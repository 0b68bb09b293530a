package main

import (
	"fmt"
	"io"
	"time"

	"morphstream/internal/engine"
	"morphstream/internal/exec"
	"morphstream/internal/metrics"
	"morphstream/internal/sched"
	"morphstream/internal/store"
	"morphstream/internal/tpg"
	"morphstream/internal/txn"
	"morphstream/internal/wal"
)

// tracer records spans in memory; times are nanoseconds since its epoch.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, seq int64, parent int) int {
	t.spans = append(t.spans, span{Name: name, Seq: seq, Parent: parent, Start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = t.now() }

// record adds a span timed by the caller.
func (t *tracer) record(name string, parent int, start, end time.Time) {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
}

// call times fn as one span.
func (t *tracer) call(name string, seq int64, parent int, fn func()) {
	i := t.begin(name, seq, parent)
	fn()
	t.end(i)
}

// countingSink counts what the WAL writes through a sink.
type countingSink struct {
	wal.Sink
	appendBytes int64
	syncs       int
}

func (c *countingSink) Append(frame []byte) error {
	c.appendBytes += int64(len(frame))
	return c.Sink.Append(frame)
}

func (c *countingSink) Sync() error {
	c.syncs++
	return c.Sink.Sync()
}

// stagedReplay drives a stream batch by batch through the layers' public
// functions in the order the engine's executeBatch calls them — operator
// PreProcess and StateAccess, tpg.Builder AddTxn and Finalize, sched.Decide,
// exec.AlignTable and exec.Run, PostProcess, the WAL commit (Table.LatestFor,
// Log.Append, Log.Sync, Snapshot/SnapshotDiff) and Table.Truncate — with one
// span per call, so each layer's cost is measured where it is spent. It
// runs single-group, without pipelining: planning and execution take turns.
type stagedReplay struct {
	op      engine.Operator
	table   *store.Table
	threads int
	builder *tpg.Builder
	tr      *tracer

	log           *wal.Log
	sink          *countingSink
	snapEvery     int
	watermark     uint64
	snapWatermark uint64
	snapDirty     map[store.KeyID]struct{}

	// The decision model's profiled inputs, fed back exactly as the engine
	// does.
	bd             metrics.Breakdown
	lastAbortRatio float64
	lastComplexity time.Duration
	lastDecision   sched.Decision

	ts  uint64
	seq int64

	// Totals.
	events, batches, ops, deps        int
	committed, aborted                int
	abortRounds, redos, steals, parks int
	switches                          int
	planAllocs, execAllocs            uint64
	baseSnaps, diffSnaps              int
	baseSnapNS, diffSnapNS            int64
	preload                           time.Duration
	unitsProbed                       int
}

// newStagedReplay preloads a fresh table and opens a WAL in dir with the
// given snapshot stride and chain cap; the log's baseline snapshot is the
// replay's first base snapshot.
func newStagedReplay(op engine.Operator, preload func(*store.Table), threads int, dir string, snapEvery, maxDiffs int) (*stagedReplay, error) {
	s := &stagedReplay{
		op:             op,
		table:          store.NewTable(),
		threads:        threads,
		tr:             newTracer(),
		snapEvery:      snapEvery,
		snapDirty:      map[store.KeyID]struct{}{},
		lastComplexity: 10 * time.Microsecond,
	}
	start := time.Now()
	preload(s.table)
	s.preload = time.Since(start)
	ids := s.table.KeyIDs()
	s.builder = tpg.NewBuilderIDs(func() []store.KeyID { return ids })

	fs, err := wal.NewFileSink(dir)
	if err != nil {
		return nil, err
	}
	s.sink = &countingSink{Sink: fs}
	log, rec, err := wal.Open(s.sink, wal.Options{Policy: wal.SyncNone, DiffBudget: 1e9, MaxDiffChain: maxDiffs})
	if err != nil {
		return nil, err
	}
	if _, err := rec.Next(); err != io.EOF {
		return nil, fmt.Errorf("staged WAL not fresh: %v", err)
	}
	s.log = log
	if err := s.snapshot(true); err != nil {
		return nil, err
	}
	return s, nil
}

// snapshot cuts a base or diff snapshot at the current sequence, timed as a
// root span of its own kind.
func (s *stagedReplay) snapshot(base bool) error {
	var err error
	if base {
		i := s.tr.begin("wal.Snapshot", s.seq, -1)
		var shards [][]store.Entry
		s.tr.call("store.LatestSince", s.seq, i, func() { shards = s.table.LatestSince(0) })
		err = s.log.Snapshot(s.seq, s.watermark, shards)
		s.tr.end(i)
		s.baseSnaps++
		s.baseSnapNS += s.tr.spans[i].dur()
	} else {
		i := s.tr.begin("wal.SnapshotDiff", s.seq, -1)
		acc := make([]store.KeyID, 0, len(s.snapDirty))
		for id := range s.snapDirty {
			acc = append(acc, id)
		}
		var shards [][]store.Entry
		s.tr.call("store.LatestFor", s.seq, i, func() { shards = s.table.LatestFor(acc, s.snapWatermark+1) })
		err = s.log.SnapshotDiff(s.seq, s.watermark, shards)
		s.tr.end(i)
		s.diffSnaps++
		s.diffSnapNS += s.tr.spans[i].dur()
	}
	clear(s.snapDirty)
	s.snapWatermark = s.watermark
	return err
}

// batch processes one punctuation's events.
func (s *stagedReplay) batch(data []any) error {
	s.seq++
	seq, tr := s.seq, s.tr
	root := tr.begin("batch", seq, -1)

	evs := make([]*engine.Event, len(data))
	ebs := make([]*txn.EventBlotter, len(data))
	txns := make([]*txn.Transaction, len(data))
	var err error
	tr.call("op.PreProcess", seq, root, func() {
		for i, d := range data {
			evs[i] = &engine.Event{Data: d, Arrival: time.Now()}
			if ebs[i], err = s.op.PreProcess(evs[i]); err != nil {
				return
			}
		}
	})
	if err != nil {
		return fmt.Errorf("preprocess: %w", err)
	}
	a0 := heapAllocs()
	tr.call("op.StateAccess", seq, root, func() {
		for i := range evs {
			s.ts++
			t := txn.NewTransaction(int64(s.ts), s.ts)
			t.Blotter = ebs[i]
			if err = s.op.StateAccess(ebs[i], txn.Build(t)); err != nil {
				return
			}
			txns[i] = t
		}
	})
	if err != nil {
		return fmt.Errorf("state access: %w", err)
	}
	tr.call("tpg.AddTxn", seq, root, func() {
		for _, t := range txns {
			s.builder.AddTxn(t)
		}
	})
	var dirty []store.KeyID
	tr.call("tpg.AppendDirtyKeys", seq, root, func() { dirty = s.builder.AppendDirtyKeys(nil) })
	var g *tpg.Graph
	tr.call("tpg.Finalize", seq, root, func() { g = s.builder.Finalize(s.threads) })
	s.planAllocs += heapAllocs() - a0

	var d sched.Decision
	di := tr.begin("sched.Decide", seq, root)
	in := sched.ModelInputs{Props: g.Props, Complexity: s.lastComplexity, AbortRatio: s.lastAbortRatio}
	if ops := float64(g.Props.NumOps); ops > 0 && float64(g.Props.NumTD)/ops >= sched.HighTDPerOp && float64(g.Props.NumPD)/ops <= sched.LowPDPerOp {
		tr.call("sched.BuildUnits", seq, di, func() { _, in.Cyclic = sched.BuildUnits(g, sched.CSchedule) })
		s.unitsProbed++
	}
	d = sched.Decide(in)
	tr.end(di)
	if s.batches > 0 && d != s.lastDecision {
		s.switches++
	}
	s.lastDecision = d

	tr.call("exec.AlignTable", seq, root, func() { exec.AlignTable(s.table, 0, s.threads, g) })
	a1 := heapAllocs()
	var res exec.Result
	tr.call("exec.Run", seq, root, func() {
		res = exec.Run(g, exec.Config{Decision: d, Threads: s.threads, Table: s.table, Breakdown: &s.bd})
	})
	s.execAllocs += heapAllocs() - a1
	tr.call("op.PostProcess", seq, root, func() {
		for i, t := range txns {
			_ = s.op.PostProcess(evs[i], ebs[i], t.Aborted())
		}
	})
	// The engine's profiling for the next decision (engine.executeBatch).
	if total := res.Committed + res.Aborted; total > 0 {
		s.lastAbortRatio = float64(res.Aborted) / float64(total)
	}
	if res.OpsExecuted > 0 {
		if useful := s.bd.Get(metrics.Useful); useful > 0 {
			s.lastComplexity = useful / time.Duration(res.OpsExecuted)
		}
	}

	// The punctuation commit: the batch's net deltas, appended and synced.
	maxTS := s.ts
	var shards [][]store.Entry
	tr.call("store.LatestFor", seq, root, func() { shards = s.table.LatestFor(dirty, s.watermark+1) })
	tr.call("wal.Append", seq, root, func() { err = s.log.Append(wal.Record{Seq: seq, MaxTS: maxTS, Shards: shards}) })
	if err != nil {
		return fmt.Errorf("wal append: %w", err)
	}
	tr.call("wal.Sync", seq, root, func() { err = s.log.Sync() })
	if err != nil {
		return fmt.Errorf("wal sync: %w", err)
	}
	s.watermark = maxTS
	for _, id := range dirty {
		s.snapDirty[id] = struct{}{}
	}
	tr.call("tpg.Recycle", seq, root, func() {
		s.builder.Recycle(g)
		s.builder.Reset()
	})
	tr.call("store.Truncate", seq, root, func() { s.table.Truncate(^uint64(0)) })
	tr.end(root)

	s.events += len(data)
	s.batches++
	s.ops += g.Props.NumOps
	s.deps += g.Props.NumTD + g.Props.NumPD
	s.committed += res.Committed
	s.aborted += res.Aborted
	s.abortRounds += res.AbortRounds
	s.redos += res.Redos
	s.steals += res.Steals
	s.parks += res.Parks

	if s.snapEvery > 0 && seq%int64(s.snapEvery) == 0 {
		if err := s.snapshot(s.log.WantBase()); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
	}
	return nil
}

// run replays the stream in batches of size until budget is spent (at least
// one batch), and returns how many events it consumed.
func (s *stagedReplay) run(src source, size int, budget time.Duration) (int, error) {
	deadline := time.Now().Add(budget)
	data := make([]any, size)
	for s.batches == 0 || time.Now().Before(deadline) {
		for i := range data {
			data[i] = src.next()
		}
		if err := s.batch(data); err != nil {
			return s.events, err
		}
	}
	return s.events, s.log.Close()
}

// sum totals the durations of spans with the given name.
func (s *stagedReplay) sum(name string) int64 {
	var t int64
	for _, sp := range s.tr.spans {
		if sp.Name == name {
			t += sp.dur()
		}
	}
	return t
}

// report sets the per-layer metrics the replay measures.
func (s *stagedReplay) report(rep *report) {
	b, ev, ops := float64(s.batches), float64(s.events), float64(max(s.ops, 1))
	us := func(name string) float64 { return float64(s.sum(name)) / 1e3 / b }
	rep.set("tpg.build_ns_per_event", float64(s.sum("tpg.AddTxn"))/ev)
	rep.set("tpg.finalize_us_per_batch", us("tpg.Finalize"))
	rep.set("tpg.deps_per_op", float64(s.deps)/ops)
	rep.set("tpg.allocs_per_event", float64(s.planAllocs)/ev)
	rep.set("sched.decide_us_per_batch", us("sched.Decide"))
	rep.set("sched.decision_switches", float64(s.switches))
	rep.set("exec.run_ns_per_op", float64(s.sum("exec.Run"))/ops)
	rep.set("exec.abort_rounds_per_batch", float64(s.abortRounds)/b)
	rep.set("exec.redo_frac", float64(s.redos)/ops)
	var total time.Duration
	for _, c := range []metrics.Category{metrics.Useful, metrics.Explore, metrics.Abort, metrics.Sync, metrics.Lock} {
		total += s.bd.Get(c)
	}
	frac := func(c metrics.Category) float64 { return float64(s.bd.Get(c)) / float64(max(total, 1)) }
	rep.set("exec.useful_frac", frac(metrics.Useful))
	rep.set("exec.explore_frac", frac(metrics.Explore))
	rep.set("exec.abort_frac", frac(metrics.Abort))
	rep.set("exec.sync_frac", frac(metrics.Sync))
	rep.set("exec.steals_per_batch", float64(s.steals)/b)
	rep.set("exec.parks_per_batch", float64(s.parks)/b)
	rep.set("exec.allocs_per_op", float64(s.execAllocs)/ops)
	rep.set("store.preload_s", s.preload.Seconds())
	rep.set("store.align_us_per_batch", us("exec.AlignTable"))
	rep.set("store.truncate_us_per_batch", us("store.Truncate"))
	rep.set("wal.sweep_us_per_batch", float64(s.sumChild("store.LatestFor", "batch"))/1e3/b)
	rep.set("wal.append_us_per_batch", us("wal.Append"))
	rep.set("wal.fsync_us_per_batch", us("wal.Sync"))
	rep.set("wal.snapshot_base_ms", float64(s.baseSnapNS)/1e6/float64(max(s.baseSnaps, 1)))
	rep.set("wal.snapshot_diff_ms", float64(s.diffSnapNS)/1e6/float64(max(s.diffSnaps, 1)))
	rep.set("wal.bytes_per_event", float64(s.sink.appendBytes)/ev)
	rep.set("wal.events_per_fsync", ev/float64(max(s.sink.syncs, 1)))

	// Unattributed: batch time outside every layer span.
	self := selfTimes(s.tr.spans)
	var rootSelf, rootDur int64
	for i, sp := range s.tr.spans {
		if sp.Name == "batch" {
			rootSelf += self[i]
			rootDur += sp.dur()
		}
	}
	rep.set("trace.unattributed_frac", float64(rootSelf)/float64(max(rootDur, 1)))
	rep.note("staged replay: %d events in %d batches (%d committed, %d aborted); %d base and %d diff snapshots; c-schedule probe on %d batches",
		s.events, s.batches, s.committed, s.aborted, s.baseSnaps, s.diffSnaps, s.unitsProbed)
}

// sumChild totals spans named name whose parent span is named parent.
func (s *stagedReplay) sumChild(name, parent string) int64 {
	var t int64
	for _, sp := range s.tr.spans {
		if sp.Name == name && sp.Parent >= 0 && s.tr.spans[sp.Parent].Name == parent {
			t += sp.dur()
		}
	}
	return t
}
