package engine

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"morphstream/internal/exec"
	"morphstream/internal/sched"
	"morphstream/internal/store"
	"morphstream/internal/txn"
	"morphstream/internal/workload"
)

// ---- lifecycle edge cases ----

func TestLifecycleStateErrors(t *testing.T) {
	e := New(Config{Threads: 2})
	op := depositOp()
	if err := e.Ingest(op, &Event{}); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("Ingest before Start = %v; want ErrNotStarted", err)
	}
	if err := e.Drain(); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("Drain before Start = %v; want ErrNotStarted", err)
	}
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(context.Background()); !errors.Is(err, ErrStarted) {
		t.Fatalf("second Start = %v; want ErrStarted", err)
	}
	if err := e.Submit(op, &Event{}); !errors.Is(err, ErrStarted) {
		t.Fatalf("Submit while started = %v; want ErrStarted", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Punctuate on a started engine did not panic")
			}
		}()
		e.Punctuate()
	}()
	if err := e.Close(); err != nil {
		t.Fatalf("Close = %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close = %v; want nil", err)
	}
	if err := e.Ingest(op, &Event{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Ingest after Close = %v; want ErrClosed", err)
	}
	if err := e.Start(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Start after Close = %v; want ErrClosed", err)
	}
	// The synchronous facade works again after Close.
	e.Table().Preload("k", int64(0))
	if err := e.Submit(depositOp(), &Event{Data: [2]any{txn.Key("k"), int64(5)}}); err != nil {
		t.Fatalf("Submit after Close = %v", err)
	}
	if res := e.Punctuate(); res.Committed != 1 {
		t.Fatalf("post-Close punctuate: %+v", res)
	}
}

// TestPipelineBasicFlow drives events through Start/Ingest/Drain/Close and
// checks the punctuation-count policy, result delivery, and final state.
func TestPipelineBasicFlow(t *testing.T) {
	e := New(Config{Threads: 2, Cleanup: true}, WithPunctuationCount(10), WithIngestBuffer(16))
	e.Table().Preload("acct", int64(0))
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	var results []*BatchResult
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := range e.Results() {
			results = append(results, r)
		}
	}()
	op := depositOp()
	const events = 35
	for i := 0; i < events; i++ {
		if err := e.Ingest(op, &Event{Data: [2]any{txn.Key("acct"), int64(1)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	<-done

	total, committed := 0, 0
	for i, r := range results {
		total += r.Events
		committed += r.Committed
		if r.Seq != int64(i+1) {
			t.Errorf("result %d has Seq %d; want in-order delivery", i, r.Seq)
		}
	}
	if total != events || committed != events {
		t.Fatalf("events=%d committed=%d; want %d/%d", total, committed, events, events)
	}
	// 35 events at count-10 punctuation: 3 full batches + the drained tail.
	if len(results) != 4 {
		t.Fatalf("batches = %d (%v events); want 4", len(results), total)
	}
	if v, _ := e.Table().Latest("acct"); v.(int64) != events {
		t.Fatalf("acct = %v; want %d", v, events)
	}
	if e.Batches() != len(results) {
		t.Fatalf("Batches() = %d; want %d", e.Batches(), len(results))
	}
	if e.Latency().Count != events {
		t.Fatalf("latency samples = %d; want %d", e.Latency().Count, events)
	}
	st := e.PipelineStats()
	if st.PlanBusy <= 0 || st.ExecBusy <= 0 {
		t.Fatalf("overlap meter did not run: %+v", st)
	}
}

// TestDoubleDrain issues overlapping Drain barriers (including concurrent
// ones) and verifies both resolve and nothing is lost.
func TestDoubleDrain(t *testing.T) {
	e := New(Config{Threads: 2, Cleanup: true}, WithPunctuationCount(8),
		WithResultSink(func(*BatchResult) {}))
	e.Table().Preload("acct", int64(0))
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	op := depositOp()
	for i := 0; i < 20; i++ {
		if err := e.Ingest(op, &Event{Data: [2]any{txn.Key("acct"), int64(1)}}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := e.Drain(); err != nil {
				t.Errorf("concurrent Drain = %v", err)
			}
		}()
	}
	wg.Wait()
	if v, _ := e.Table().Latest("acct"); v.(int64) != 20 {
		t.Fatalf("after concurrent drains: acct = %v; want 20", v)
	}
	// Sequential re-drain on an idle pipeline is a no-op barrier.
	if err := e.Drain(); err != nil {
		t.Fatalf("idle Drain = %v", err)
	}
	if err := e.Drain(); err != nil {
		t.Fatalf("second idle Drain = %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if batches := e.Batches(); batches < 3 {
		t.Fatalf("batches = %d; want >= 3 (two full + drained tail)", batches)
	}
}

// TestBackpressureTinyRing forces constant submission-ring backpressure and
// verifies every event still flows through exactly once.
func TestBackpressureTinyRing(t *testing.T) {
	e := New(Config{Threads: 2, Cleanup: true}, WithPunctuationCount(16), WithIngestBuffer(4),
		WithResultSink(func(*BatchResult) {}))
	e.Table().Preload("acct", int64(0))
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	op := depositOp()
	const producers, perProducer = 4, 100
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if err := e.Ingest(op, &Event{Data: [2]any{txn.Key("acct"), int64(1)}}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if v, _ := e.Table().Latest("acct"); v.(int64) != producers*perProducer {
		t.Fatalf("acct = %v; want %d", v, producers*perProducer)
	}
}

// TestPunctuationInterval: with an interval policy, a partial batch seals
// without any Drain call.
func TestPunctuationInterval(t *testing.T) {
	e := New(Config{Threads: 2},
		WithPunctuationCount(1<<20), WithPunctuationInterval(10*time.Millisecond))
	e.Table().Preload("acct", int64(0))
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	op := depositOp()
	for i := 0; i < 3; i++ {
		if err := e.Ingest(op, &Event{Data: [2]any{txn.Key("acct"), int64(1)}}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case r := <-e.Results():
		if r.Events != 3 || r.Committed != 3 {
			t.Fatalf("interval batch: %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("interval punctuation never fired")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPreprocessErrorsReportedAsDrops: the pipeline's asynchronous
// counterpart of Submit returning a preprocess error.
func TestPreprocessErrorsReportedAsDrops(t *testing.T) {
	e := New(Config{Threads: 1}, WithPunctuationCount(4))
	e.Table().Preload("acct", int64(0))
	dep := depositOp()
	bad := OperatorFuncs{
		Pre: func(*Event) (*txn.EventBlotter, error) { return nil, errors.New("bad event") },
	}
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	_ = e.Ingest(dep, &Event{Data: [2]any{txn.Key("acct"), int64(1)}})
	_ = e.Ingest(bad, &Event{})
	_ = e.Ingest(bad, &Event{})
	_ = e.Ingest(dep, &Event{Data: [2]any{txn.Key("acct"), int64(1)}})
	var results []*BatchResult
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := range e.Results() {
			results = append(results, r)
		}
	}()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	dropped, events := 0, 0
	for _, r := range results {
		dropped += r.Dropped
		events += r.Events
	}
	if dropped != 2 || events != 2 {
		t.Fatalf("dropped=%d events=%d; want 2/2", dropped, events)
	}
}

// TestContextCancellationMidBatch cancels the pipeline while a batch is
// executing: the in-flight batch completes (execution is never interrupted
// mid-transaction), later batches are discarded without a trace, and every
// lifecycle call unblocks with the cancellation error.
func TestContextCancellationMidBatch(t *testing.T) {
	e := New(Config{Threads: 1}, WithPunctuationCount(1), WithIngestBuffer(4))
	e.Table().Preload("k", int64(0))
	executing := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	blockOp := OperatorFuncs{
		Access: func(_ *txn.EventBlotter, b *txn.Builder) error {
			b.Write("k", []txn.Key{"k"}, func(_ *txn.Ctx, src []txn.Value) (txn.Value, error) {
				once.Do(func() { close(executing) })
				<-release
				return src[0].(int64) + 1, nil
			})
			return nil
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := e.Start(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := e.Ingest(blockOp, &Event{}); err != nil {
			t.Fatal(err)
		}
	}
	<-executing // batch 1 is mid-execution
	cancel()
	close(release)

	if err := e.Close(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Close after cancel = %v; want context.Canceled", err)
	}
	if err := e.Ingest(blockOp, &Event{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Ingest after cancel = %v; want ErrClosed", err)
	}
	if err := e.Drain(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Drain after cancel = %v; want context.Canceled", err)
	}
	// The Results channel must close; the in-flight batch's result is
	// delivered best-effort, later batches never ran.
	n := 0
	for range e.Results() {
		n++
	}
	if n > 1 {
		t.Fatalf("results after cancel = %d; want at most the in-flight batch", n)
	}
	// Batch 1 committed before the abort; batches 2 and 3 left no trace.
	if v, _ := e.Table().Latest("k"); v.(int64) != 1 {
		t.Fatalf("k = %v; want 1 (only the in-flight batch executed)", v)
	}
}

// ---- pipelined vs synchronous vs serial-oracle equivalence ----

// runRecord captures per-transaction outcomes for equivalence comparison.
type runRecord struct {
	mu      sync.Mutex
	aborted map[int64]bool
	results map[int64][]int64
}

func newRunRecord() *runRecord {
	return &runRecord{aborted: make(map[int64]bool), results: make(map[int64][]int64)}
}

func (r *runRecord) record(id int64, aborted bool, vals []txn.Value) {
	out := make([]int64, 0, len(vals))
	for _, v := range vals {
		out = append(out, v.(int64))
	}
	// Results within one blotter can be merged from per-worker sinks in
	// either order; compare as multisets.
	slices.Sort(out)
	r.mu.Lock()
	r.aborted[id] = aborted
	r.results[id] = out
	r.mu.Unlock()
}

// specOp adapts the canonical workload specs to the engine's three-step
// operator model (event payload = workload.TxnSpec).
func specOp(rec *runRecord) Operator {
	return OperatorFuncs{
		Access: func(eb *txn.EventBlotter, b *txn.Builder) error {
			eb.Params["spec"].(workload.TxnSpec).Issue(b)
			return nil
		},
		Pre: func(ev *Event) (*txn.EventBlotter, error) {
			eb := txn.NewEventBlotter()
			eb.Params["spec"] = ev.Data.(workload.TxnSpec)
			return eb, nil
		},
		Post: func(ev *Event, eb *txn.EventBlotter, aborted bool) error {
			rec.record(ev.Data.(workload.TxnSpec).ID, aborted, eb.Results())
			return nil
		},
	}
}

func preloadState(e *Engine, b *workload.Batch) {
	for k, v := range b.State {
		e.Table().Preload(k, v)
	}
}

// runSync pushes the whole spec stream through the synchronous facade in
// punctuations of batchSize.
func runSync(t *testing.T, b *workload.Batch, d *sched.Decision, batchSize int) (map[txn.Key]txn.Value, *runRecord, int, int) {
	t.Helper()
	rec := newRunRecord()
	e := New(Config{Threads: 4, Strategy: d, Cleanup: true})
	preloadState(e, b)
	op := specOp(rec)
	committed, aborted := 0, 0
	for i, s := range b.Specs {
		if err := e.Submit(op, &Event{Data: s}); err != nil {
			t.Fatal(err)
		}
		if (i+1)%batchSize == 0 || i == len(b.Specs)-1 {
			r := e.Punctuate()
			committed += r.Committed
			aborted += r.Aborted
		}
	}
	return e.Table().Snapshot(), rec, committed, aborted
}

// runPipelined pushes the same stream through Start/Ingest/Drain/Close with
// a count-punctuation policy equal to the synchronous batch size.
func runPipelined(t *testing.T, b *workload.Batch, d *sched.Decision, batchSize int) (map[txn.Key]txn.Value, *runRecord, int, int) {
	t.Helper()
	rec := newRunRecord()
	e := New(Config{Threads: 4, Strategy: d, Cleanup: true}, WithPunctuationCount(batchSize))
	preloadState(e, b)
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	committed, aborted := 0, 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := range e.Results() {
			committed += r.Committed
			aborted += r.Aborted
		}
	}()
	op := specOp(rec)
	for _, s := range b.Specs {
		if err := e.Ingest(op, &Event{Data: s}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	return e.Table().Snapshot(), rec, committed, aborted
}

// runOracle executes the stream on the single-threaded serial oracle.
func runOracle(b *workload.Batch) (map[txn.Key]txn.Value, *runRecord, int, int) {
	txns, table := b.Materialize()
	res := exec.Serial(txns, table)
	rec := newRunRecord()
	for _, tx := range txns {
		rec.record(tx.ID, tx.Aborted(), tx.Blotter.Results())
	}
	snap := make(map[txn.Key]txn.Value)
	for k, v := range table.Snapshot() {
		snap[k] = v
	}
	return snap, rec, res.Committed, res.Aborted
}

func diffRuns(t *testing.T, label string,
	wantSnap map[txn.Key]txn.Value, wantRec *runRecord, wantC, wantA int,
	gotSnap map[txn.Key]txn.Value, gotRec *runRecord, gotC, gotA int) {
	t.Helper()
	if gotC != wantC || gotA != wantA {
		t.Errorf("%s: committed/aborted = %d/%d; want %d/%d", label, gotC, gotA, wantC, wantA)
	}
	for k, wv := range wantSnap {
		if gv, ok := gotSnap[k]; !ok || gv != wv {
			t.Errorf("%s: state[%s] = %v; want %v", label, k, gv, wv)
		}
	}
	if len(gotSnap) != len(wantSnap) {
		t.Errorf("%s: %d keys; want %d", label, len(gotSnap), len(wantSnap))
	}
	for id, wa := range wantRec.aborted {
		if ga, ok := gotRec.aborted[id]; !ok || ga != wa {
			t.Errorf("%s: txn %d aborted = %v (seen %v); want %v", label, id, ga, ok, wa)
		}
	}
	for id, wr := range wantRec.results {
		if gr := gotRec.results[id]; !slices.Equal(gr, wr) {
			t.Errorf("%s: txn %d results = %v; want %v", label, id, gr, wr)
		}
	}
}

// TestPipelinedMatchesSynchronousAndOracle is the engine-level leg of the
// strategy-matrix suite: the same seeded workloads run (a) on the serial
// oracle, (b) through the synchronous facade, and (c) through the pipelined
// lifecycle, under every pinned decision plus the adaptive model. Final
// state, per-transaction abort flags, blotter results, and commit/abort
// totals must all agree.
func TestPipelinedMatchesSynchronousAndOracle(t *testing.T) {
	workloads := []struct {
		name  string
		batch *workload.Batch
	}{
		{"SL", workload.SL(workload.Config{
			Txns: 240, StateSize: 64, Theta: 0.6, AbortRatio: 0.1,
			Seed: 11, Length: 2, MultiRatio: 0.5,
		})},
		{"GS", workload.GS(workload.Config{
			Txns: 240, StateSize: 96, Theta: 0.8, AbortRatio: 0.05,
			Seed: 12, Length: 1, MultiRatio: 1,
		})},
		{"GSND", workload.GSND(workload.GSNDConfig{
			Config:     workload.Config{Txns: 160, StateSize: 48, Seed: 13},
			NDAccesses: 16,
		})},
	}
	decisions := []*sched.Decision{nil} // adaptive model first
	for _, e := range []sched.Explore{sched.SExploreBFS, sched.SExploreDFS, sched.NSExplore} {
		for _, g := range []sched.Granularity{sched.FSchedule, sched.CSchedule} {
			for _, a := range []sched.AbortMode{sched.EAbort, sched.LAbort} {
				d := sched.Decision{Explore: e, Gran: g, Abort: a}
				decisions = append(decisions, &d)
			}
		}
	}
	const batchSize = 80
	for _, w := range workloads {
		oSnap, oRec, oC, oA := runOracle(w.batch)
		for _, d := range decisions {
			name := "adaptive"
			if d != nil {
				name = d.String()
			}
			t.Run(fmt.Sprintf("%s/%s", w.name, name), func(t *testing.T) {
				sSnap, sRec, sC, sA := runSync(t, w.batch, d, batchSize)
				pSnap, pRec, pC, pA := runPipelined(t, w.batch, d, batchSize)
				diffRuns(t, "sync-vs-oracle", oSnap, oRec, oC, oA, sSnap, sRec, sC, sA)
				diffRuns(t, "pipelined-vs-oracle", oSnap, oRec, oC, oA, pSnap, pRec, pC, pA)
			})
		}
	}
}

// TestUniverseRefreshSeesPreInternedKeys pins the ND fan-out staleness
// fix: a key whose string was interned long ago (by another table sharing
// the process dictionary) and preloaded between punctuations must still
// enter the quiescent-point universe snapshot — the dictionary length
// alone cannot signal it, the table's chain-birth counter must.
func TestUniverseRefreshSeesPreInternedKeys(t *testing.T) {
	// Intern the key via a different table first.
	other := store.NewTable()
	other.Preload("pre-interned-elsewhere", int64(0))
	id := store.Intern("pre-interned-elsewhere")

	e := New(Config{Threads: 1})
	e.Table().Preload("k0", int64(0))
	_ = e.Submit(depositOp(), &Event{Data: [2]any{txn.Key("k0"), int64(1)}})
	e.Punctuate() // snapshot taken; dict already contains the foreign key

	inUniverse := func() bool {
		for _, u := range e.universeSnapshot() {
			if u == id {
				return true
			}
		}
		return false
	}
	if inUniverse() {
		t.Fatal("key unexpectedly in the universe before preload")
	}
	// Preload moves KeyBirths but not DictLen: the next quiescent refresh
	// must still pick it up.
	e.Table().Preload("pre-interned-elsewhere", int64(7))
	_ = e.Submit(depositOp(), &Event{Data: [2]any{txn.Key("k0"), int64(1)}})
	e.Punctuate()
	if !inUniverse() {
		t.Fatal("preloaded pre-interned key missing from the ND universe snapshot")
	}
}

// TestDropsOnlyBatchPunctuates: a stream of events that all fail
// PreProcess must still punctuate on the count policy, surfacing
// BatchResult.Dropped without an explicit Drain or Close.
func TestDropsOnlyBatchPunctuates(t *testing.T) {
	e := New(Config{Threads: 1}, WithPunctuationCount(4))
	bad := OperatorFuncs{
		Pre: func(*Event) (*txn.EventBlotter, error) { return nil, errors.New("malformed") },
	}
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := e.Ingest(bad, &Event{}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case r := <-e.Results():
		if r.Dropped != 4 || r.Events != 0 {
			t.Fatalf("drops-only batch: %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("count policy never sealed a drops-only batch")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseWithoutStartClosesResults: a consumer ranging Results must
// terminate even when the pipeline never started.
func TestCloseWithoutStartClosesResults(t *testing.T) {
	e := New(Config{Threads: 1})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range e.Results() {
		}
	}()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Results never closed after Close on a never-started engine")
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
}
