package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"morphstream"
	"morphstream/internal/engine"
	"morphstream/internal/rpcserve"
	"morphstream/internal/store"
	"morphstream/internal/txn"
	"morphstream/internal/workload"
)

// inprocWL binds an in-process workload's spec to its operator, stream and
// initial state.
type inprocWL struct {
	*runArgs
	op engine.Operator
}

func newInprocWL(a *runArgs) *inprocWL {
	w := &inprocWL{runArgs: a, op: specOp()}
	if a.ws.Kind == "ledger" {
		w.op = rpcserve.LedgerOperator()
	}
	return w
}

// source starts the workload's stream from the beginning.
func (w *inprocWL) source() source {
	if w.ws.Kind == "grepsum" {
		return newGSSource(w.ws, w.seed)
	}
	return newLedgerSource(w.ws, w.seed, 0, w.ws.StateSize, false)
}

// preload installs the initial state.
func (w *inprocWL) preload(t *store.Table) {
	if w.ws.Kind == "grepsum" {
		for k, v := range workload.GS(workload.Config{StateSize: w.ws.StateSize, Txns: 1}).State {
			t.Preload(k, v)
		}
		return
	}
	rpcserve.PreloadAccounts(t, w.ws.StateSize, w.ws.Balance)
}

// keys lists every state key, for comparing final tables.
func (w *inprocWL) keys() []txn.Key {
	ks := make([]txn.Key, w.ws.StateSize)
	for i := range ks {
		if w.ws.Kind == "grepsum" {
			ks[i] = workload.KeyName(i)
		} else {
			ks[i] = txn.Key(rpcserve.AccountKey(i))
		}
	}
	return ks
}

// newEngine builds the workload's engine; dir is the WAL directory when the
// workload is durable.
func (w *inprocWL) newEngine(dir string) *morphstream.Engine {
	ws := w.ws
	opts := []morphstream.Option{morphstream.WithPunctuationCount(ws.Punctuation.Count)}
	if ws.Punctuation.IntervalMS > 0 {
		opts = append(opts, morphstream.WithPunctuationInterval(time.Duration(ws.Punctuation.IntervalMS*float64(time.Millisecond))))
	}
	if ws.WAL != nil {
		opts = append(opts, morphstream.WithDurability(&morphstream.Durability{
			Dir:           dir,
			SnapshotEvery: ws.WAL.SnapshotEvery,
			// Rotation by chain length only, so which snapshots are bases
			// depends on the batch count alone, not on encoded sizes.
			SnapshotDiffBudget: 1e9,
			SnapshotMaxDiffs:   ws.WAL.MaxDiffs,
		}))
	}
	return morphstream.New(morphstream.Config{Threads: ws.Threads, Cleanup: true}, opts...)
}

// setup builds, preloads and starts an engine (opening the WAL in dir).
func (w *inprocWL) setup(dir string) (*morphstream.Engine, error) {
	e := w.newEngine(dir)
	w.preload(e.Table())
	if err := e.Start(context.Background()); err != nil {
		return nil, fmt.Errorf("start: %w", err)
	}
	return e, nil
}

// setupRepeated sets up setup_repeats engines in turn, closing all but the
// last, and returns the last with the median set-up time.
func (w *inprocWL) setupRepeated() (e *morphstream.Engine, walDir string, setupS float64, err error) {
	var times []float64
	for i := 0; i < max(w.ws.SetupRepeats, 1); i++ {
		if e != nil {
			if err := e.Close(); err != nil {
				return nil, "", 0, fmt.Errorf("close set-up %d: %w", i-1, err)
			}
			os.RemoveAll(walDir)
			e = nil
			runtime.GC()
		}
		walDir = filepath.Join(w.workdir, fmt.Sprintf("wal-%d", i))
		start := time.Now()
		if e, err = w.setup(walDir); err != nil {
			return nil, "", 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return e, walDir, median(times), nil
}

// pipeRun drives one started engine: a producer (the calling goroutine)
// ingests the stream, a consumer goroutine folds the batch results.
type pipeRun struct {
	e       *morphstream.Engine
	op      engine.Operator
	src     source
	durable bool

	sent      int
	delivered atomic.Int64 // events with an outcome (Events+Dropped)

	// Written by the consumer, read after done closes.
	committed, aborted, dropped, nonDurable, batches int
	match                                            *latencyMatcher
	onResult                                         func(r *morphstream.BatchResult, at time.Time)
	meter                                            floodMeter
	done                                             chan struct{}
	// onIngest, when set, sees every Ingest call's interval (traced runs).
	onIngest func(start, end time.Time)
}

func startPipeRun(e *morphstream.Engine, w *inprocWL, match *latencyMatcher, onResult func(*morphstream.BatchResult, time.Time)) *pipeRun {
	p := &pipeRun{e: e, op: w.op, src: w.source(), durable: w.ws.WAL != nil, match: match, onResult: onResult, done: make(chan struct{})}
	p.meter = floodMeter{window: int64(w.ws.WindowEvents), read: func(events int64) (usage, error) {
		rss, err := takePeakRSSMB("self")
		return usage{at: time.Now(), events: events, cpu: selfCPU(), allocs: heapAllocs(), rssMB: rss}, err
	}}
	go p.consume()
	return p
}

func (p *pipeRun) consume() {
	defer close(p.done)
	for r := range p.e.Results() {
		at := time.Now()
		n := resultEvents(r)
		if p.match != nil {
			p.match.complete(n, at)
		}
		if p.onResult != nil {
			p.onResult(r, at)
		}
		p.committed += r.Committed
		p.aborted += r.Aborted
		p.dropped += r.Dropped
		p.batches++
		if p.durable && !r.Durable {
			p.nonDurable += n
		}
		p.meter.observe(p.delivered.Add(int64(n)))
	}
}

// resultEvents is how many ingested events a batch result accounts for:
// PreProcess drops are reported alongside the planned events.
func resultEvents(r *morphstream.BatchResult) int { return r.Events + r.Dropped }

func (p *pipeRun) ingest() error {
	p.sent++
	ev := &morphstream.Event{Data: p.src.next()}
	if p.onIngest == nil {
		return p.e.Ingest(p.op, ev)
	}
	start := time.Now()
	err := p.e.Ingest(p.op, ev)
	p.onIngest(start, time.Now())
	return err
}

// flush waits until every event sent so far has an outcome.
func (p *pipeRun) flush() error { return p.e.Drain() }

// warmup floods n events and drains them.
func (p *pipeRun) warmup(n int) error {
	for i := 0; i < n; i++ {
		if err := p.ingest(); err != nil {
			return err
		}
	}
	return p.flush()
}

// openLoop sends n events on a fixed schedule of rate per second, starting
// now, never waiting for the engine except through Ingest's backpressure.
// It returns each event's send lag behind its due time (ms) and the backlog
// probe, and drains before returning.
func (p *pipeRun) openLoop(n int, rate float64) (lags []float64, probe *backlogProbe, err error) {
	runtime.GC() // start every run's phase at the same point of the GC cycle
	probe = &backlogProbe{n: n}
	lags = make([]float64, 0, n)
	m := p.match
	m.begin(time.Now())
	for k := 0; k < n; k++ {
		due := m.due(m.first + k)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lags = append(lags, float64(time.Since(due))/1e6)
		probe.observe(k, p.sent-int(p.delivered.Load()))
		if err := p.ingest(); err != nil {
			return nil, nil, err
		}
	}
	return lags, probe, p.flush()
}

// flood ingests as fast as backpressure allows for d while the consumer
// meters whole windows of completed events.
func (p *pipeRun) flood(d time.Duration) error {
	runtime.GC()
	p.meter.arm(p.delivered.Load())
	defer p.meter.disarm()
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		for j := 0; j < 64; j++ {
			if err := p.ingest(); err != nil {
				return err
			}
		}
	}
	return nil
}

// close flushes and stops the engine and waits for the consumer.
func (p *pipeRun) close() error {
	err := p.e.Close()
	<-p.done
	return err
}

// runInproc is the end-to-end run of an in-process workload.
func runInproc(a *runArgs) (*report, error) {
	w := newInprocWL(a)
	ws := a.ws
	rep := newReport()

	e, walDir, setupS, err := w.setupRepeated()
	if err != nil {
		return nil, err
	}
	rep.set("setup_s", setupS)
	releaseSetupMemory()

	olN := a.openLoopEvents()
	match := newLatencyMatcher(ws.WarmupEvents, olN, ws.RatePerS, 1, 0, make([]float64, olN))
	p := startPipeRun(e, w, match, nil)
	if err := p.warmup(ws.WarmupEvents); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	lags, probe, err := p.openLoop(olN, ws.RatePerS)
	if err != nil {
		return nil, fmt.Errorf("open loop: %w", err)
	}
	if err := p.flood(a.floodDuration()); err != nil {
		return nil, fmt.Errorf("flood: %w", err)
	}
	if err := p.close(); err != nil {
		rep.fail(int64(p.sent)-p.delivered.Load(), "close: %v", err)
	}
	fl, rss, err := p.meter.result()
	if err != nil {
		return nil, err
	}
	fl.report(rep)
	rep.set("rss_peak_mb", rss)
	reportOpenLoop(rep, match.lat, lags, probe, ws)

	rep.attempted = int64(p.sent)
	rep.note("stream: %d events (%d warm-up, %d open-loop, %d flood)", p.sent, ws.WarmupEvents, olN, p.sent-ws.WarmupEvents-olN)
	oracle, err := checkPipeRun(w, p, e.Table(), rep)
	if err != nil {
		return nil, err
	}
	if p.durable {
		batches := int64(p.batches)
		e, p = nil, nil
		runtime.GC()
		if err := checkRecovery(w, walDir, batches, w.keys(), oracle, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// checkPipeRun checks a closed run's outcomes: every event has one, none
// was dropped or (with the WAL on) left non-durable, and the committed and
// aborted counts and the final table equal a serial replay of the same
// stream, whose table it returns.
func checkPipeRun(w *inprocWL, p *pipeRun, table *store.Table, rep *report) (*store.Table, error) {
	if lost := int64(p.sent) - p.delivered.Load(); lost > 0 {
		rep.fail(lost, "%d events without an outcome", lost)
	}
	if p.dropped > 0 {
		rep.fail(int64(p.dropped), "%d events dropped", p.dropped)
	}
	if p.nonDurable > 0 {
		rep.fail(int64(p.nonDurable), "%d events in non-durable batches", p.nonDurable)
	}
	oracle := store.NewTable()
	w.preload(oracle)
	oc, oa, err := serialReplay(w.op, w.source(), p.sent, oracle, nil)
	if err != nil {
		return nil, err
	}
	if oc != p.committed || oa != p.aborted {
		rep.fail(int64(abs(oa-p.aborted)+1), "engine committed/aborted %d/%d, serial oracle %d/%d", p.committed, p.aborted, oc, oa)
	}
	if d := tableDiffs(w.keys(), table, oracle); d > 0 {
		rep.fail(int64(d), "%d keys differ from the serial oracle", d)
	}
	rep.note("%d batches: %d committed, %d aborted, as the serial oracle", p.batches, p.committed, p.aborted)
	return oracle, nil
}

// checkRecovery reopens the WAL directory in a fresh engine and checks that
// recovery restores every batch and the oracle's balances.
func checkRecovery(w *inprocWL, dir string, batches int64, keys []txn.Key, oracle *store.Table, rep *report) error {
	e := w.newEngine(dir)
	if err := e.Start(context.Background()); err != nil {
		return fmt.Errorf("reopen WAL: %w", err)
	}
	if got := e.RecoveredSeq(); got != batches {
		rep.fail(1, "recovered seq %d, want %d", got, batches)
	}
	if d := tableDiffs(keys, e.Table(), oracle); d > 0 {
		rep.fail(int64(d), "%d keys differ from the oracle after WAL recovery", d)
	}
	rep.note("WAL recovery: seq %d, %d snapshot diffs replayed", e.RecoveredSeq(), e.RecoveredDiffs())
	return e.Close()
}

// reportOpenLoop sets the latency metrics unless the phase was invalid: the
// backlog grew (the rate was not sustained) or no window supports p99.
func reportOpenLoop(rep *report, lat, lags []float64, probe *backlogProbe, ws *wlSpec) {
	sort.Float64s(lags)
	lagP99, _ := percentile(lags, 99)
	rep.note("open loop: %d events at %.0f/s; generator lag p99 %.3f ms; backlog growth %.1f events",
		len(lat), ws.RatePerS, lagP99, probe.growth())
	limit := max(float64(ws.Punctuation.Count), 0.02*float64(probe.n))
	if probe.grew(limit) {
		rep.fail(0, "open loop invalid: backlog grew by %.0f events (limit %.0f); latency not reported", probe.growth(), limit)
		return
	}
	p50, _, ok50 := windowedPercentile(lat, ws.WindowEvents, 50)
	p99, n, ok99 := windowedPercentile(lat, ws.WindowEvents, 99)
	if !ok50 || !ok99 {
		hp, _ := highestSupported(min(len(lat), ws.WindowEvents), 50, 90, 95, 99)
		rep.fail(0, "open loop: windows of %d events support only p%g; latency not reported", ws.WindowEvents, hp)
		return
	}
	rep.set("latency_p50_ms", p50)
	rep.set("latency_p99_ms", p99)
	rep.note("latency: p50 %.3f ms, p99 %.3f ms (medians over %d windows of %d events, %d samples beyond p99 each)",
		p50, p99, n, ws.WindowEvents, beyond(99, ws.WindowEvents))
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
