package engine

import (
	"errors"
	"fmt"
	"io"

	"morphstream/internal/store"
	"morphstream/internal/wal"
)

// Durability configures the punctuation-delta write-ahead log. Durability is
// a property of the streaming lifecycle: Start opens (and recovers) the log,
// every punctuation appends one record of the batch's net state deltas, and
// Close closes the log. The synchronous facade (Submit/Punctuate) does not
// log — punctuation-as-policy is what makes the quiescent barrier a commit
// point.
type Durability struct {
	// Dir is the directory of the file-backed sink (segment and snapshot
	// files). Ignored when Sink is set.
	Dir string
	// Sink overrides Dir with a custom WAL backend (e.g. wal.NewMemSink()).
	Sink wal.Sink
	// Sync is the fsync policy; the default, wal.SyncPunctuation, issues
	// one group fsync per punctuation so a delivered batch result implies
	// a durable batch.
	Sync wal.SyncPolicy
	// SyncEvery is the fsync stride under wal.SyncInterval.
	SyncEvery int
	// SnapshotEvery checkpoints every this many punctuations; 0 uses
	// DefaultSnapshotEvery, negative disables periodic snapshots (the
	// baseline snapshot at sequence 0 is still written). Most checkpoints
	// are incremental diffs — a dirty-set sweep of the keys changed since
	// the previous checkpoint — so their cost is proportional to churn;
	// the WAL rewrites the full-table base only when the accumulated diff
	// chain crosses SnapshotDiffBudget.
	SnapshotEvery int
	// SnapshotDiffBudget rotates the snapshot chain (rewrites the base)
	// once accumulated diff bytes reach this fraction of the base's size.
	// 0 uses wal.DefaultDiffBudget; negative makes every checkpoint a full
	// base (the pre-chain behaviour).
	SnapshotDiffBudget float64
	// SnapshotMaxDiffs caps the diffs stacked on one base regardless of
	// size. 0 uses wal.DefaultMaxDiffChain.
	SnapshotMaxDiffs int
}

// DefaultSnapshotEvery is the snapshot stride when Durability leaves
// SnapshotEvery unset.
const DefaultSnapshotEvery = 64

// WithDurability enables the punctuation-delta WAL (Config.Durability).
func WithDurability(d *Durability) Option {
	return func(c *Config) { c.Durability = d }
}

// RecoveredSeq reports the highest batch sequence restored by durability
// recovery during Start (0 when the log was fresh or durability is off).
// After a crash, the stream owner resumes ingestion with the first event
// after that punctuation; batch sequences continue from RecoveredSeq+1, so
// recovered results are never re-delivered — exactly-once across the crash.
func (e *Engine) RecoveredSeq() int64 { return e.recoveredSeq }

// RecoveredDiffs reports how many incremental snapshot diffs the last
// recovery applied on top of the base image (0 when the chain was a lone
// base, recovery found no snapshot, or durability is off).
func (e *Engine) RecoveredDiffs() int { return e.recoveredDiffs }

func (e *Engine) snapshotEvery() int {
	d := e.cfg.Durability
	switch {
	case d == nil || d.SnapshotEvery < 0:
		return 0
	case d.SnapshotEvery == 0:
		return DefaultSnapshotEvery
	}
	return d.SnapshotEvery
}

// openDurability opens the WAL and replays its history into the state table.
// Called from Start under lifeMu, before the pipeline goroutines exist, so
// the table is quiescent. On recovery the restored state supersedes whatever
// the application preloaded before this Start; on a fresh log a baseline
// snapshot (sequence 0) captures those preloads instead, making every later
// recovery self-contained. Replay streams: the snapshot chain applies link
// by link (base via Restore, diffs via RestoreDelta), then each record
// decodes and applies before the next is read, so recovery memory is
// bounded by one record plus the table itself — never the replay history.
func (e *Engine) openDurability() error {
	d := e.cfg.Durability
	sink := d.Sink
	if sink == nil {
		if d.Dir == "" {
			return errors.New("engine: durability needs a Dir or a Sink")
		}
		fs, err := wal.NewFileSink(d.Dir)
		if err != nil {
			return fmt.Errorf("engine: durability: %w", err)
		}
		sink = fs
	}
	l, rec, err := wal.Open(sink, wal.Options{
		Policy:       d.Sync,
		SyncEvery:    d.SyncEvery,
		DiffBudget:   d.SnapshotDiffBudget,
		MaxDiffChain: d.SnapshotMaxDiffs,
		Registry:     e.cfg.Telemetry,
	})
	if err != nil {
		return fmt.Errorf("engine: durability: %w", err)
	}
	e.snapDirty = make(map[store.KeyID]struct{})

	// Apply the snapshot chain: the base replaces the table, each diff
	// layers its churn on top.
	base := true
	for {
		shards, serr := rec.NextSnapshot()
		if serr == io.EOF {
			break
		}
		if serr != nil {
			sink.Close()
			return fmt.Errorf("engine: durability snapshot replay: %w", serr)
		}
		if base {
			e.table.Restore(shards)
			base = false
		} else {
			e.table.RestoreDelta(shards)
		}
	}

	// Stream the replay records. Keys they touch are dirty relative to the
	// recovered snapshot chain, so they seed the next incremental diff.
	for {
		r, rerr := rec.Next()
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			sink.Close()
			return fmt.Errorf("engine: durability replay: %w", rerr)
		}
		e.table.RestoreDelta(r.Shards)
		for _, es := range r.Shards {
			for _, en := range es {
				e.snapDirty[store.Intern(en.Key)] = struct{}{}
			}
		}
	}

	if rec.HasSnapshot || rec.LastSeq > 0 {
		e.batches.Store(rec.LastSeq)
		e.recoveredSeq = rec.LastSeq
		e.recoveredDiffs = rec.Diffs
		e.walWatermark = rec.MaxTS
		e.snapWatermark = rec.SnapshotMaxTS
		// Seed the timestamp allocator past all recovered history so new
		// transactions never collide with replayed versions.
		if cur := e.pc.next.Load(); rec.MaxTS > cur {
			e.pc.next.Store(rec.MaxTS)
		}
	} else if err := l.Snapshot(0, 0, e.table.LatestSince(0)); err != nil {
		sink.Close()
		return fmt.Errorf("engine: durability baseline: %w", err)
	}
	e.wal = l
	return nil
}

// commitWAL runs at the punctuation quiescent point, after the batch fully
// committed and before its result is delivered: it sweeps the batch's dirty
// chains — the keys the planner's per-key lists and the executed ND
// operations touched, O(touched) not O(table) — for the final version of
// every key written since the previous punctuation and appends them as one
// record. Under the default sync policy the append fsyncs, so a delivered
// result implies a durable batch. A WAL failure is sticky and counted in
// morph_wal_errors_total: later batches stop logging (their results carry
// Durable=false) and Close reports the first error.
//
// Every SnapshotEvery punctuations the hook also checkpoints: normally an
// incremental diff cut from the dirty keys accumulated since the previous
// checkpoint, a full-table base only when the WAL reports the diff chain
// has outgrown its budget.
func (e *Engine) commitWAL(res *BatchResult, batchMaxTS uint64, dirty []store.KeyID) {
	maxTS := e.walWatermark
	if batchMaxTS > maxTS {
		maxTS = batchMaxTS
	}
	rec := wal.Record{
		Seq:    res.Seq,
		MaxTS:  maxTS,
		Shards: e.table.LatestFor(dirty, e.walWatermark+1),
	}
	if err := e.wal.Append(rec); err != nil {
		e.failWAL(fmt.Errorf("engine: wal append seq %d: %w", res.Seq, err))
		return
	}
	e.walWatermark = maxTS
	for _, id := range dirty {
		e.snapDirty[id] = struct{}{}
	}
	res.Durable = true
	if every := e.snapshotEvery(); every > 0 && res.Seq%int64(every) == 0 {
		var err error
		if e.wal.WantBase() {
			err = e.wal.Snapshot(res.Seq, maxTS, e.table.LatestSince(0))
		} else {
			acc := make([]store.KeyID, 0, len(e.snapDirty))
			for id := range e.snapDirty {
				acc = append(acc, id)
			}
			err = e.wal.SnapshotDiff(res.Seq, maxTS, e.table.LatestFor(acc, e.snapWatermark+1))
		}
		if err != nil {
			e.failWAL(fmt.Errorf("engine: wal snapshot seq %d: %w", res.Seq, err))
			return
		}
		clear(e.snapDirty)
		e.snapWatermark = maxTS
	}
}

// failWAL makes err the sticky logging failure and counts it.
func (e *Engine) failWAL(err error) {
	e.walErr = err
	e.inst.walErrors.Inc()
}

// closeWAL closes the log once the executor has quiesced, surfacing any
// sticky logging error. Idempotent; callers hold lifeMu.
func (e *Engine) closeWAL() error {
	if e.wal == nil {
		return nil
	}
	err := e.walErr
	if cerr := e.wal.Close(); err == nil {
		err = cerr
	}
	e.wal = nil
	return err
}
