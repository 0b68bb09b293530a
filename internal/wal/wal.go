// Package wal implements the punctuation-delta write-ahead log.
//
// The engine reaches a quiescent barrier at every punctuation: the batch's
// transactions have all committed or rolled back, and the multi-version table
// holds the net final version per key. Instead of logging raw event traffic,
// the WAL logs that delta set — one length-prefixed, checksummed record per
// batch, carrying the batch sequence number, the maximum timestamp the batch
// consumed, and the changed keys bucketed by table shard ("commit
// information, not traffic").
//
// Layout on the sink:
//
//	wal-%016d.log    segment of frames, named by its first record's Seq
//	snap-%016d.snap  snapshot covering everything through Seq: either a
//	                 full-table base or an incremental diff chained onto
//	                 the previous snapshot
//
// Each frame is [4B LE payload len][4B CRC-32C of payload][gob payload],
// encoded with a fresh gob encoder so every frame is self-contained and
// replay can resume from any record boundary. Snapshots hold a header frame
// followed by one frame per table shard, encoded shard-parallel.
//
// # Log-structured snapshots
//
// Snapshots form chains: a base (full-table image) followed by incremental
// diffs, each diff carrying only the keys changed since the previous link
// and naming that link through its header's Parent field. A diff costs
// bytes proportional to churn, not table size, so the engine can checkpoint
// frequently; the chain is rotated — a fresh base written and everything
// older dropped — once the accumulated diff payload crosses a fraction
// (Options.DiffBudget) of the base's size, or the chain grows past
// Options.MaxDiffChain links. Every snapshot, base or diff, truncates the
// record log behind it: records at or below the chain tip are covered by
// base + diffs.
//
// # Streaming recovery
//
// Open locates the newest snapshot chain whose every link is readable and
// returns a Recovery whose contents stream instead of materialising:
// NextSnapshot yields the chain's shard images oldest-first (the base, to
// apply with store.Table.Restore, then each diff for RestoreDelta), and
// Next yields replay records one at a time, decoding each frame as it is
// consumed so recovery memory is bounded by a single record rather than the
// full replay history. Records at or below the chain tip are skipped —
// batch-Seq idempotence — and a torn tail is repaired: a crash mid-append
// leaves a short or checksum-failing frame at the end of the last segment,
// which is truncated away so the log recovers to the previous punctuation.
// A bad frame anywhere else is real corruption and Next fails loudly with
// ErrCorrupt. Draining Next (to its io.EOF) finalises recovery: the torn
// tail is cut, a fresh segment starts at LastSeq+1, and the Log accepts
// appends; Append or Snapshot before the drain completes returns
// ErrReplaying.
package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"time"

	"morphstream/internal/store"
	"morphstream/internal/telemetry"
)

// Record is one punctuation's durable unit: the net state delta of batch Seq.
type Record struct {
	// Seq is the batch sequence number (1-based, dense, monotonic).
	Seq int64
	// MaxTS is the highest transaction timestamp at or below this
	// punctuation; replay seeds the engine's timestamp allocator past it.
	MaxTS uint64
	// Shards holds the final-version-per-key deltas bucketed by the table
	// shard that owned the key when the record was cut.
	Shards [][]store.Entry
}

// SyncPolicy controls when appended records are fsynced.
type SyncPolicy int

const (
	// SyncPunctuation (default) fsyncs once per appended record — a single
	// group fsync covers the whole batch, so an observed batch result
	// implies a durable batch.
	SyncPunctuation SyncPolicy = iota
	// SyncInterval fsyncs every Options.SyncEvery records; a crash may lose
	// up to SyncEvery-1 punctuations.
	SyncInterval
	// SyncNone never fsyncs explicitly; durability rides on the OS cache.
	SyncNone
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncPunctuation:
		return "punctuation"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	}
	return "?"
}

// DefaultDiffBudget is the base-rewrite threshold when Options leaves
// DiffBudget unset: the chain rotates once its accumulated diff payload
// reaches half the base snapshot's size (past that point replaying diffs
// costs more than a fresh base would).
const DefaultDiffBudget = 0.5

// DefaultMaxDiffChain caps the number of diffs stacked on one base when
// Options leaves MaxDiffChain unset, bounding the recovery chain walk.
const DefaultMaxDiffChain = 16

// Options tune a Log opened over a Sink.
type Options struct {
	Policy SyncPolicy
	// SyncEvery is the fsync stride under SyncInterval (min 1).
	SyncEvery int
	// DiffBudget rotates the snapshot chain (rewrites the base) once the
	// accumulated diff payload bytes reach DiffBudget × the base payload
	// size. 0 uses DefaultDiffBudget; negative disables incremental diffs
	// entirely (WantBase is always true — every snapshot is a full base,
	// the pre-chain behaviour).
	DiffBudget float64
	// MaxDiffChain caps the diffs stacked on one base regardless of size.
	// 0 uses DefaultMaxDiffChain.
	MaxDiffChain int
	// Registry, when non-nil, receives the log's series: appends and bytes,
	// fsync latency, snapshot base/diff counts, replay statistics, and the
	// watermark gauges (WatermarkGauges). All recordings happen on the
	// single-writer append/snapshot path or during recovery — never
	// concurrently.
	Registry *telemetry.Registry
}

// ErrCorrupt reports an undecodable frame before the tail of the last
// segment — unlike a torn tail, this cannot be explained by a crash
// mid-append and is never repaired silently.
var ErrCorrupt = errors.New("wal: corrupt record before log tail")

// ErrSeqOrder reports an append whose Seq does not advance the log.
var ErrSeqOrder = errors.New("wal: non-monotonic batch sequence")

// ErrReplaying reports an Append or Snapshot issued before recovery was
// drained: the log's tail position is only known once Recovery.Next has
// streamed to io.EOF.
var ErrReplaying = errors.New("wal: log not writable until recovery is drained")

// ErrNoBase reports a SnapshotDiff on a log with no base snapshot to chain
// onto; callers consult WantBase first.
var ErrNoBase = errors.New("wal: incremental snapshot without a base")

// Log is a single-writer WAL. The engine appends from its executor goroutine
// at punctuation boundaries; Close may be called afterwards from another
// goroutine once the executor has quiesced. Log does not lock.
type Log struct {
	sink      Sink
	policy    SyncPolicy
	syncEvery int
	unsynced  int
	ready     bool
	lastSeq   int64
	snapSeq   int64
	maxTS     uint64
	encBuf    bytes.Buffer

	// Snapshot-chain accounting: the current base's seq and payload size,
	// and the diff payload bytes and link count accumulated on top of it.
	diffBudget float64
	maxChain   int
	baseSeq    int64
	baseBytes  int64
	chainBytes int64
	chainLen   int

	inst walInstruments
}

// walInstruments are the log's registry series; all nil (no-op) without a
// Registry in Options.
type walInstruments struct {
	appends       *telemetry.Counter
	bytes         *telemetry.Counter
	fsyncNS       *telemetry.Histogram
	snapBase      *telemetry.Counter
	snapDiff      *telemetry.Counter
	replayRecords *telemetry.Counter
	replaySkipped *telemetry.Counter
	lastSeq       *telemetry.Gauge
	chainLen      *telemetry.Gauge
}

// WatermarkGauges returns the log's watermark series on reg: the highest
// batch sequence appended or recovered, and the number of incremental
// snapshot diffs stacked on the current base. A Log opened with
// Options.Registry is their only writer; readers (the engine's
// PipelineStats) share the same instruments. Nil registry, nil gauges.
func WatermarkGauges(reg *telemetry.Registry) (lastSeq, chainLen *telemetry.Gauge) {
	return reg.Gauge("morph_wal_last_seq", "Highest batch sequence durably appended."),
		reg.Gauge("morph_wal_diff_chain_len", "Incremental snapshot diffs stacked on the current base.")
}

// publish refreshes the watermark gauges after the log's position moved.
func (l *Log) publish() {
	l.inst.lastSeq.Set(l.lastSeq)
	l.inst.chainLen.Set(int64(l.chainLen))
}

// syncTimed fsyncs the sink, recording latency when instrumented. The clock
// is read only when a histogram exists, so uninstrumented logs pay nothing.
func (l *Log) syncTimed() error {
	if l.inst.fsyncNS == nil {
		return l.sink.Sync()
	}
	start := time.Now()
	err := l.sink.Sync()
	l.inst.fsyncNS.Record(int64(time.Since(start)))
	return err
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// gob carries store.Value (an interface) inside Entry, so every concrete
// value type must be registered. The engine's builtin workloads use these;
// applications with custom value types call RegisterValue before Start.
func init() {
	gob.Register(int(0))
	gob.Register(int64(0))
	gob.Register(uint64(0))
	gob.Register(float64(0))
	gob.Register("")
	gob.Register(false)
	gob.Register([]byte(nil))
}

// RegisterValue registers a concrete state-value type for WAL encoding.
// Call it once (e.g. from an init function) for every custom type the
// application stores in the table.
func RegisterValue(v any) { gob.Register(v) }

func writeFrame(dst *bytes.Buffer, payload []byte) {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	dst.Write(hdr[:])
	dst.Write(payload)
}

// readFrame decodes one frame at the head of data, returning the payload and
// total frame length. Any failure (short header, short payload, checksum
// mismatch) means the bytes at this offset are not a durable frame.
func readFrame(data []byte) (payload []byte, n int, err error) {
	if len(data) < 8 {
		return nil, 0, fmt.Errorf("wal: short frame header (%d bytes)", len(data))
	}
	size := int(binary.LittleEndian.Uint32(data[0:4]))
	if len(data) < 8+size {
		return nil, 0, fmt.Errorf("wal: short frame payload (%d of %d bytes)", len(data)-8, size)
	}
	payload = data[8 : 8+size]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(data[4:8]) {
		return nil, 0, fmt.Errorf("wal: frame checksum mismatch")
	}
	return payload, 8 + size, nil
}

const (
	snapBase = 0 // full-table image, the root of a chain
	snapDiff = 1 // churn since the previous chain link
)

type snapHeader struct {
	Seq   int64
	MaxTS uint64
	// Kind is snapBase or snapDiff.
	Kind int
	// Parent is the Seq of the previous chain link (-1 for a base).
	Parent int64
	Shards int
}

func encodeSnapshot(hdr snapHeader, shards [][]store.Entry) ([]byte, error) {
	bufs := make([][]byte, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var b bytes.Buffer
			errs[i] = gob.NewEncoder(&b).Encode(shards[i])
			bufs[i] = b.Bytes()
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	hdr.Shards = len(shards)
	var hb, out bytes.Buffer
	if err := gob.NewEncoder(&hb).Encode(hdr); err != nil {
		return nil, err
	}
	writeFrame(&out, hb.Bytes())
	for _, b := range bufs {
		writeFrame(&out, b)
	}
	return out.Bytes(), nil
}

// verifySnapshot decodes a snapshot's header and checks every shard frame's
// checksum without decoding the shard payloads — the cheap "is this link
// usable" probe the chain walk runs before recovery commits to a chain.
func verifySnapshot(payload []byte) (snapHeader, error) {
	var hdr snapHeader
	hp, n, err := readFrame(payload)
	if err != nil {
		return hdr, err
	}
	if err := gob.NewDecoder(bytes.NewReader(hp)).Decode(&hdr); err != nil {
		return hdr, err
	}
	off := n
	for i := 0; i < hdr.Shards; i++ {
		_, sn, err := readFrame(payload[off:])
		if err != nil {
			return hdr, fmt.Errorf("wal: snapshot shard %d: %w", i, err)
		}
		off += sn
	}
	return hdr, nil
}

// decodeSnapshotShards decodes a verified snapshot's shard images,
// shard-parallel.
func decodeSnapshotShards(payload []byte) ([][]store.Entry, error) {
	hdr, err := verifySnapshot(payload)
	if err != nil {
		return nil, err
	}
	_, off, _ := readFrame(payload)
	raw := make([][]byte, hdr.Shards)
	for i := 0; i < hdr.Shards; i++ {
		sp, sn, _ := readFrame(payload[off:])
		raw[i], off = sp, off+sn
	}
	shards := make([][]store.Entry, hdr.Shards)
	errs := make([]error, hdr.Shards)
	var wg sync.WaitGroup
	for i := range raw {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = gob.NewDecoder(bytes.NewReader(raw[i])).Decode(&shards[i])
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return shards, nil
}

// Recovery streams everything Open reconstructed from the sink. Consume it
// in two passes: NextSnapshot until io.EOF (the snapshot chain, base first),
// then Next until io.EOF (the replay records above the chain tip). LastSeq,
// MaxTS, TornTail and Skipped are complete only once Next has returned
// io.EOF, which also makes the Log writable.
type Recovery struct {
	// HasSnapshot reports whether a snapshot chain was found; when false
	// the sink was fresh (or held only records) and NextSnapshot returns
	// io.EOF immediately.
	HasSnapshot bool
	// SnapshotSeq is the batch watermark the chain tip covers (-1 if none).
	SnapshotSeq int64
	// BaseSeq is the chain's base snapshot sequence (-1 if none).
	BaseSeq int64
	// SnapshotMaxTS is the chain tip's highest timestamp: the engine seeds
	// its incremental-snapshot watermark from it, so the first diff after
	// recovery covers exactly the state the chain does not.
	SnapshotMaxTS uint64
	// Diffs counts the incremental links in the recovered chain.
	Diffs int
	// LastSeq is the highest durable batch sequence (0 for a fresh log).
	LastSeq int64
	// MaxTS is the highest timestamp across snapshot chain and records.
	MaxTS uint64
	// TornTail reports that the last segment ended in a torn frame that
	// was truncated away.
	TornTail bool
	// Skipped counts records dropped for Seq idempotence (at or below the
	// chain tip, or not advancing the replay sequence).
	Skipped int

	log *Log

	// Snapshot chain: verified payloads oldest-first, decoded lazily and
	// released as NextSnapshot hands them out.
	chain    [][]byte
	chainIdx int

	// Record stream state.
	segs    []int64
	segIdx  int
	cur     io.ReadCloser
	curSeg  int64
	off     int64
	payload []byte
	done    bool
}

// segmentOpener is the optional streaming extension of Sink: a sink that can
// hand out a segment reader lets recovery consume frames without ever
// holding a whole segment in memory. Sinks without it fall back to
// ReadSegment.
type segmentOpener interface {
	OpenSegment(firstSeq int64) (io.ReadCloser, error)
}

// openSegmentStream returns a reader over one segment, streaming when the
// sink supports it.
func openSegmentStream(sink Sink, firstSeq int64) (io.ReadCloser, error) {
	if so, ok := sink.(segmentOpener); ok {
		return so.OpenSegment(firstSeq)
	}
	data, err := sink.ReadSegment(firstSeq)
	if err != nil {
		return nil, err
	}
	return io.NopCloser(bytes.NewReader(data)), nil
}

// loadChain assembles the snapshot chain ending at tip: it follows Parent
// links back to a base, verifying every link's frames, and returns the
// payloads oldest-first. Any unreadable or unverifiable link fails the
// whole chain.
func loadChain(sink Sink, tip int64) ([][]byte, []snapHeader, error) {
	var payloads [][]byte
	var hdrs []snapHeader
	seq := tip
	for {
		payload, err := sink.ReadSnapshot(seq)
		if err != nil {
			return nil, nil, err
		}
		hdr, err := verifySnapshot(payload)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: snapshot %d: %w", seq, err)
		}
		payloads = append([][]byte{payload}, payloads...)
		hdrs = append([]snapHeader{hdr}, hdrs...)
		if hdr.Kind == snapBase {
			return payloads, hdrs, nil
		}
		if hdr.Parent < 0 || hdr.Parent >= seq {
			return nil, nil, fmt.Errorf("wal: snapshot %d: bad parent %d", seq, hdr.Parent)
		}
		seq = hdr.Parent
	}
}

// Open recovers the log state from the sink: the newest snapshot chain whose
// every link verifies is selected, and the returned Recovery streams first
// the chain (NextSnapshot) and then the replay records (Next). The Log
// becomes writable once Next has been drained to io.EOF — that drain is what
// repairs a torn tail and starts the post-recovery segment, so appends never
// interleave with history.
func Open(sink Sink, opts Options) (*Log, *Recovery, error) {
	if opts.SyncEvery < 1 {
		opts.SyncEvery = 1
	}
	budget := opts.DiffBudget
	if budget == 0 {
		budget = DefaultDiffBudget
	}
	maxChain := opts.MaxDiffChain
	if maxChain <= 0 {
		maxChain = DefaultMaxDiffChain
	}
	l := &Log{
		sink:       sink,
		policy:     opts.Policy,
		syncEvery:  opts.SyncEvery,
		diffBudget: budget,
		maxChain:   maxChain,
		baseSeq:    -1,
	}
	if reg := opts.Registry; reg != nil {
		l.inst = walInstruments{
			appends:       reg.Counter("morph_wal_appends_total", "Punctuation records appended."),
			bytes:         reg.Counter("morph_wal_bytes_total", "Framed record bytes appended."),
			fsyncNS:       reg.Histogram("morph_wal_fsync_ns", "Sink fsync latency (ns)."),
			snapBase:      reg.Counter("morph_wal_snapshots_base_total", "Full-table base snapshots written."),
			snapDiff:      reg.Counter("morph_wal_snapshots_diff_total", "Incremental diff snapshots written."),
			replayRecords: reg.Counter("morph_wal_replay_records_total", "Records replayed during recovery."),
			replaySkipped: reg.Counter("morph_wal_replay_skipped_total", "Replay records skipped for Seq idempotence."),
		}
		l.inst.lastSeq, l.inst.chainLen = WatermarkGauges(reg)
	}
	rec := &Recovery{SnapshotSeq: -1, BaseSeq: -1, log: l}

	snaps, err := sink.Snapshots()
	if err != nil {
		return nil, nil, err
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		payloads, hdrs, lerr := loadChain(sink, snaps[i])
		if lerr != nil {
			err = lerr
			continue
		}
		tip := hdrs[len(hdrs)-1]
		rec.HasSnapshot = true
		rec.SnapshotSeq = tip.Seq
		rec.BaseSeq = hdrs[0].Seq
		rec.SnapshotMaxTS = tip.MaxTS
		rec.Diffs = len(hdrs) - 1
		rec.chain = payloads
		rec.LastSeq = tip.Seq
		rec.MaxTS = tip.MaxTS
		l.baseSeq = hdrs[0].Seq
		l.baseBytes = int64(len(payloads[0]))
		for _, p := range payloads[1:] {
			l.chainBytes += int64(len(p))
		}
		l.chainLen = len(hdrs) - 1
		err = nil
		break
	}
	if !rec.HasSnapshot && err != nil {
		return nil, nil, err
	}

	if rec.segs, err = sink.Segments(); err != nil {
		return nil, nil, err
	}
	l.snapSeq = rec.SnapshotSeq
	l.maxTS = rec.MaxTS
	return l, rec, nil
}

// NextSnapshot returns the next link of the snapshot chain, oldest first:
// the base image (apply with store.Table.Restore) followed by each
// incremental diff (apply with store.Table.RestoreDelta). io.EOF ends the
// chain. Decoded links are released as they are handed out, so peak memory
// is one link plus the table being rebuilt.
func (r *Recovery) NextSnapshot() ([][]store.Entry, error) {
	if r.chainIdx >= len(r.chain) {
		return nil, io.EOF
	}
	payload := r.chain[r.chainIdx]
	r.chain[r.chainIdx] = nil
	r.chainIdx++
	return decodeSnapshotShards(payload)
}

// Next returns the next replay record, decoding one frame at a time straight
// off the sink so recovery never materialises the replay history. Records at
// or below the recovered watermark are skipped (batch-Seq idempotence). A
// torn tail — a short or checksum-failing frame at the end of the last
// segment — is truncated away; the same damage anywhere else returns
// ErrCorrupt. io.EOF reports a drained log and finalises it: the fresh
// post-recovery segment is started and the Log accepts appends.
func (r *Recovery) Next() (Record, error) {
	if r.done {
		return Record{}, io.EOF
	}
	for {
		if r.cur == nil {
			if r.segIdx >= len(r.segs) {
				return Record{}, r.finish(false)
			}
			r.curSeg = r.segs[r.segIdx]
			r.segIdx++
			r.off = 0
			cur, err := openSegmentStream(r.log.sink, r.curSeg)
			if err != nil {
				return Record{}, err
			}
			r.cur = cur
		}
		var hdr [8]byte
		if _, err := io.ReadFull(r.cur, hdr[:]); err != nil {
			if err == io.EOF { // clean segment boundary
				r.cur.Close()
				r.cur = nil
				continue
			}
			return r.tornOrCorrupt(fmt.Errorf("wal: short frame header: %v", err))
		}
		size := int(binary.LittleEndian.Uint32(hdr[0:4]))
		if cap(r.payload) < size {
			r.payload = make([]byte, size)
		}
		payload := r.payload[:size]
		if _, err := io.ReadFull(r.cur, payload); err != nil {
			return r.tornOrCorrupt(fmt.Errorf("wal: short frame payload: %v", err))
		}
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(hdr[4:8]) {
			return r.tornOrCorrupt(errors.New("wal: frame checksum mismatch"))
		}
		var rcd Record
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rcd); err != nil {
			return r.tornOrCorrupt(fmt.Errorf("wal: record decode: %v", err))
		}
		r.off += int64(8 + size)
		if rcd.Seq <= r.LastSeq {
			r.Skipped++
			r.log.inst.replaySkipped.Inc()
			continue
		}
		r.LastSeq = rcd.Seq
		if rcd.MaxTS > r.MaxTS {
			r.MaxTS = rcd.MaxTS
		}
		r.log.inst.replayRecords.Inc()
		return rcd, nil
	}
}

// Drain consumes whatever remains of the recovery — snapshot links and
// replay records alike — without handing them to the caller, leaving the Log
// writable. For callers that open a sink they know is fresh (benchmarks,
// tests) or that intentionally discard history; recovery proper applies the
// chain and records through NextSnapshot and Next instead.
func (r *Recovery) Drain() error {
	for {
		if _, err := r.NextSnapshot(); err == io.EOF {
			break
		} else if err != nil {
			return err
		}
	}
	for {
		if _, err := r.Next(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// tornOrCorrupt resolves a frame failure: in the last segment it is a torn
// tail (truncate, finish), anywhere earlier it is corruption.
func (r *Recovery) tornOrCorrupt(cause error) (Record, error) {
	r.cur.Close()
	r.cur = nil
	if r.segIdx != len(r.segs) {
		return Record{}, fmt.Errorf("%w: segment %d offset %d: %v", ErrCorrupt, r.curSeg, r.off, cause)
	}
	if err := r.log.sink.TruncateSegment(r.curSeg, r.off); err != nil {
		return Record{}, err
	}
	r.TornTail = true
	return Record{}, r.finish(true)
}

// finish completes recovery: the post-recovery segment starts at LastSeq+1
// and the Log becomes writable. Returns io.EOF on success so Next callers
// see a normal end of stream.
func (r *Recovery) finish(closedCur bool) error {
	if !closedCur && r.cur != nil {
		r.cur.Close()
		r.cur = nil
	}
	r.done = true
	r.payload = nil
	if err := r.log.sink.StartSegment(r.LastSeq + 1); err != nil {
		return err
	}
	r.log.lastSeq = r.LastSeq
	if r.MaxTS > r.log.maxTS {
		r.log.maxTS = r.MaxTS
	}
	r.log.ready = true
	r.log.publish()
	return io.EOF
}

// Append logs one punctuation record and applies the sync policy. On return
// under SyncPunctuation the record is durable.
func (l *Log) Append(r Record) error {
	if !l.ready {
		return ErrReplaying
	}
	if r.Seq <= l.lastSeq {
		return fmt.Errorf("%w: append seq %d, last %d", ErrSeqOrder, r.Seq, l.lastSeq)
	}
	l.encBuf.Reset()
	var pb bytes.Buffer
	if err := gob.NewEncoder(&pb).Encode(&r); err != nil {
		return err
	}
	writeFrame(&l.encBuf, pb.Bytes())
	if err := l.sink.Append(l.encBuf.Bytes()); err != nil {
		return err
	}
	l.inst.appends.Inc()
	l.inst.bytes.Add(int64(l.encBuf.Len()))
	l.lastSeq = r.Seq
	if r.MaxTS > l.maxTS {
		l.maxTS = r.MaxTS
	}
	l.publish()
	switch l.policy {
	case SyncPunctuation:
		return l.syncTimed()
	case SyncInterval:
		l.unsynced++
		if l.unsynced >= l.syncEvery {
			l.unsynced = 0
			return l.syncTimed()
		}
	}
	return nil
}

// WantBase reports whether the next snapshot should be a full base rather
// than an incremental diff: there is no base yet, the accumulated diff
// payload has crossed the budget fraction of the base's size, or the chain
// is at its length cap. The caller materialises accordingly — a full-table
// sweep for Snapshot, a dirty-set sweep for SnapshotDiff.
func (l *Log) WantBase() bool {
	if l.baseSeq < 0 || l.chainLen >= l.maxChain {
		return true
	}
	if l.diffBudget < 0 {
		return true
	}
	return float64(l.chainBytes) >= l.diffBudget*float64(l.baseBytes)
}

// Snapshot persists a full-table base image covering everything through seq,
// then rotates: a fresh segment starts at seq+1, and segments and snapshots
// behind the new watermark are dropped. Crash-safe at every step — the
// snapshot is made durable before any history is discarded.
func (l *Log) Snapshot(seq int64, maxTS uint64, shards [][]store.Entry) error {
	if !l.ready {
		return ErrReplaying
	}
	if seq < l.snapSeq {
		return fmt.Errorf("%w: snapshot seq %d, previous %d", ErrSeqOrder, seq, l.snapSeq)
	}
	payload, err := encodeSnapshot(snapHeader{Seq: seq, MaxTS: maxTS, Kind: snapBase, Parent: -1}, shards)
	if err != nil {
		return err
	}
	if err := l.writeAndRotate(seq, payload, seq); err != nil {
		return err
	}
	l.baseSeq = seq
	l.baseBytes = int64(len(payload))
	l.chainBytes = 0
	l.chainLen = 0
	l.snapSeq = seq
	l.inst.snapBase.Inc()
	l.publish()
	return nil
}

// SnapshotDiff persists an incremental snapshot: the given shards carry only
// the keys changed since the chain tip (the previous Snapshot or
// SnapshotDiff), and the new link chains onto it. Like a base it truncates
// the record log behind seq — base + diffs cover those records — but drops
// no snapshots above the base, so recovery can still walk the chain.
func (l *Log) SnapshotDiff(seq int64, maxTS uint64, shards [][]store.Entry) error {
	if !l.ready {
		return ErrReplaying
	}
	if l.baseSeq < 0 {
		return ErrNoBase
	}
	if seq <= l.snapSeq {
		return fmt.Errorf("%w: diff snapshot seq %d, previous %d", ErrSeqOrder, seq, l.snapSeq)
	}
	payload, err := encodeSnapshot(snapHeader{Seq: seq, MaxTS: maxTS, Kind: snapDiff, Parent: l.snapSeq}, shards)
	if err != nil {
		return err
	}
	if err := l.writeAndRotate(seq, payload, l.baseSeq); err != nil {
		return err
	}
	l.chainBytes += int64(len(payload))
	l.chainLen++
	l.snapSeq = seq
	l.inst.snapDiff.Inc()
	l.publish()
	return nil
}

// writeAndRotate is the shared crash-safe snapshot commit: pending record
// frames for seq itself are made durable first, the snapshot lands
// atomically, and only then is history truncated — segments behind seq+1
// and snapshots below keepSnaps (the new base for a rotation, the existing
// base for a diff).
func (l *Log) writeAndRotate(seq int64, payload []byte, keepSnaps int64) error {
	if err := l.syncTimed(); err != nil {
		return err
	}
	if err := l.sink.WriteSnapshot(seq, payload); err != nil {
		return err
	}
	if err := l.sink.StartSegment(seq + 1); err != nil {
		return err
	}
	if err := l.sink.DropSegmentsBelow(seq + 1); err != nil {
		return err
	}
	return l.sink.DropSnapshotsBelow(keepSnaps)
}

// Sync forces an fsync regardless of policy.
func (l *Log) Sync() error { return l.syncTimed() }

// LastSeq returns the highest batch sequence appended or recovered.
func (l *Log) LastSeq() int64 { return l.lastSeq }

// SnapshotSeq returns the current snapshot watermark — the chain tip's
// sequence (-1 if none).
func (l *Log) SnapshotSeq() int64 { return l.snapSeq }

// BaseSeq returns the current base snapshot's sequence (-1 if none).
func (l *Log) BaseSeq() int64 { return l.baseSeq }

// ChainLen returns the number of incremental diffs stacked on the base.
func (l *Log) ChainLen() int { return l.chainLen }

// MaxTS returns the highest timestamp appended or recovered.
func (l *Log) MaxTS() uint64 { return l.maxTS }

// Close flushes and closes the sink.
func (l *Log) Close() error { return l.sink.Close() }
