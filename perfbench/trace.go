package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"morphstream"
	"morphstream/internal/rpcserve"
	"morphstream/internal/store"
	"morphstream/internal/workload"
)

// Shares of --seconds in a traced run: an open loop (generator lag), an
// untraced and a traced flood of equal length (tracing overhead and the
// engine-boundary spans), then the staged replay.
const (
	traceOpenLoopShare = 0.15
	traceFloodShare    = 0.2
	traceStagedShare   = 0.25
)

// codecSamples is how many of the workload's payloads the codec is timed on.
const codecSamples = 20000

// stagedWAL is the staged replay's snapshot stride and chain cap when the
// workload itself runs without a WAL.
var stagedWAL = struct{ every, maxDiffs int }{16, 15}

func (a *runArgs) share(f float64) time.Duration {
	return time.Duration(a.seconds * f * float64(time.Second))
}

// engineSpans are the engine-boundary spans of a traced in-process flood.
type engineSpans struct {
	Ingest     [][2]int64 `json:"ingest"`     // start, end (ns since epoch)
	Deliveries [][3]int64 `json:"deliveries"` // seq, delivered at, events
}

// traceInproc is the traced run of an in-process workload.
func traceInproc(a *runArgs) (*report, error) {
	w := newInprocWL(a)
	ws := a.ws
	rep := newReport()
	if ws.Kind == "grepsum" {
		rpcserve.RegisterPayload(workload.TxnSpec{})
	}

	e, err := w.setup(filepath.Join(a.workdir, "wal"))
	if err != nil {
		return nil, err
	}
	olN := int(ws.RatePerS * a.share(traceOpenLoopShare).Seconds())
	tr := newTracer()
	var spans engineSpans
	var tracing atomic.Bool
	p := startPipeRun(e, w, newLatencyMatcher(ws.WarmupEvents, olN, ws.RatePerS, 1, 0, make([]float64, olN)),
		func(r *morphstream.BatchResult, at time.Time) {
			if tracing.Load() {
				spans.Deliveries = append(spans.Deliveries, [3]int64{r.Seq, int64(at.Sub(tr.epoch)), int64(r.Events + r.Dropped)})
			}
		})
	if err := p.warmup(ws.WarmupEvents); err != nil {
		return nil, err
	}
	lags, _, err := p.openLoop(olN, ws.RatePerS)
	if err != nil {
		return nil, err
	}
	reportGenLag(rep, lags)

	if err := p.flood(a.share(traceFloodShare)); err != nil {
		return nil, err
	}
	untraced, _, err := p.meter.result()
	if err != nil {
		return nil, err
	}
	if err := p.flush(); err != nil {
		return nil, err
	}
	before := e.PipelineStats()
	tracing.Store(true)
	p.onIngest = func(start, end time.Time) {
		spans.Ingest = append(spans.Ingest, [2]int64{int64(start.Sub(tr.epoch)), int64(end.Sub(tr.epoch))})
	}
	if err := p.flood(a.share(traceFloodShare)); err != nil {
		return nil, err
	}
	p.onIngest = nil
	traced, _, err := p.meter.result()
	if err != nil {
		return nil, err
	}
	if err := p.flush(); err != nil {
		return nil, err
	}
	tracing.Store(false)
	after := e.PipelineStats()
	var ingestNS int64
	for _, s := range spans.Ingest {
		ingestNS += s[1] - s[0]
	}
	rep.set("engine.ingest_ns_per_event", float64(ingestNS)/float64(max(len(spans.Ingest), 1)))
	reportEngineStats(rep, before, after)
	rep.set("trace.overhead_frac", 1-traced.eventsPerS()/untraced.eventsPerS())
	if err := p.close(); err != nil {
		rep.fail(int64(p.sent)-p.delivered.Load(), "close: %v", err)
	}
	rep.attempted = int64(p.sent)
	if _, err := checkPipeRun(w, p, e.Table(), rep); err != nil {
		return nil, err
	}
	e, p = nil, nil
	runtime.GC()

	if err := stagedAndSerial(a, w.op, w.preload, w.source, w.keys(), ws.Punctuation.Count, rep); err != nil {
		return nil, err
	}
	if err := timeCodec(w.source(), rep); err != nil {
		return nil, err
	}
	for _, m := range []string{"client.submit_ns_per_event", "client.flush_us_per_call", "rpcserve.frames_per_event"} {
		rep.set(m, 0) // no client, no frames in-process
	}
	return rep, writeSpans(a, map[string]any{"engine": spans})
}

// reportEngineStats sets the engine-boundary metrics from two
// PipelineStats readings around a traced flood.
func reportEngineStats(rep *report, before, after morphstream.PipelineStats) {
	batches := float64(max(after.Batches-before.Batches, 1))
	events := float64(max(after.Events-before.Events, 1))
	rep.set("engine.ingest_stalls_per_kevent", float64(after.IngestStalls-before.IngestStalls)/events*1e3)
	rep.set("engine.plan_us_per_batch", float64(after.PlanElapsed-before.PlanElapsed)/1e3/batches)
	rep.set("engine.exec_us_per_batch", float64(after.ExecElapsed-before.ExecElapsed)/1e3/batches)
	rep.set("engine.commit_us_per_batch", float64(after.CommitElapsed-before.CommitElapsed)/1e3/batches)
	rep.set("engine.overlap_frac", float64(after.Overlap-before.Overlap)/float64(max(after.ExecBusy-before.ExecBusy, 1)))
	rep.set("engine.events_per_batch", events/batches)
}

func reportGenLag(rep *report, lags []float64) {
	sort.Float64s(lags)
	lag, ok := percentile(lags, 99)
	if !ok {
		rep.fail(0, "open loop too short for a generator-lag p99")
	}
	rep.set("workload.gen_lag_p99_ms", lag)
}

// stagedAndSerial runs the staged replay on the workload's stream, then the
// single-thread serial oracle over the same events, which must reach the
// same final state.
func stagedAndSerial(a *runArgs, op morphstream.Operator, preload func(*store.Table), newSource func() source, keys []morphstream.Key, batch int, rep *report) error {
	every, maxDiffs := stagedWAL.every, stagedWAL.maxDiffs
	if a.ws.WAL != nil {
		every, maxDiffs = a.ws.WAL.SnapshotEvery, a.ws.WAL.MaxDiffs
	}
	sr, err := newStagedReplay(op, preload, a.ws.Threads, filepath.Join(a.workdir, "staged-wal"), every, maxDiffs)
	if err != nil {
		return err
	}
	n, err := sr.run(newSource(), batch, a.share(traceStagedShare))
	if err != nil {
		return fmt.Errorf("staged replay: %w", err)
	}
	sr.report(rep)

	oracle := store.NewTable()
	preload(oracle)
	start := time.Now()
	oc, oa, err := serialReplay(op, newSource(), n, oracle, nil)
	if err != nil {
		return err
	}
	rep.set("workload.serial_events_per_s", float64(n)/time.Since(start).Seconds())
	if oc != sr.committed || oa != sr.aborted {
		rep.fail(int64(abs(oa-sr.aborted)+1), "staged replay committed/aborted %d/%d, serial oracle %d/%d", sr.committed, sr.aborted, oc, oa)
	}
	if d := tableDiffs(keys, sr.table, oracle); d > 0 {
		rep.fail(int64(d), "staged replay: %d keys differ from the serial oracle", d)
	}
	return writeSpans(a, map[string]any{"staged": sr.tr.spans})
}

// timeCodec times the default wire codec on the workload's own payloads.
func timeCodec(src source, rep *report) error {
	payloads := make([]any, codecSamples)
	for i := range payloads {
		payloads[i] = src.next()
	}
	codec := rpcserve.GobCodec{}
	frames := make([][]byte, len(payloads))
	bytes := 0
	a0, t0 := heapAllocs(), time.Now()
	for i, p := range payloads {
		b, err := codec.Encode(p)
		if err != nil {
			return err
		}
		frames[i] = b
		bytes += len(b)
	}
	enc := time.Since(t0)
	t1 := time.Now()
	for _, f := range frames {
		if _, err := codec.Decode(f); err != nil {
			return err
		}
	}
	dec := time.Since(t1)
	n := float64(len(payloads))
	rep.set("rpcserve.encode_ns_per_payload", float64(enc)/n)
	rep.set("rpcserve.decode_ns_per_payload", float64(dec)/n)
	rep.set("rpcserve.codec_allocs_per_event", float64(heapAllocs()-a0)/n)
	rep.set("rpcserve.payload_bytes_per_event", float64(bytes)/n)
	return nil
}

// writeSpans writes one JSON line of spans to the run's span file, kept
// next to (not inside) the run's scratch directory; a run's first call
// replaces the file an earlier run of the same workload and seed left.
func writeSpans(a *runArgs, v any) error {
	path := filepath.Join(filepath.Dir(a.workdir), fmt.Sprintf("spans-%s-seed%d.jsonl", a.name, a.seed))
	flags := os.O_CREATE | os.O_APPEND | os.O_WRONLY
	if !a.spansWritten {
		flags |= os.O_TRUNC
		a.spansWritten = true
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(v); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// roundRobin interleaves sources one event at a time.
type roundRobin struct {
	srcs []source
	i    int
}

func (r *roundRobin) next() any {
	s := r.srcs[r.i%len(r.srcs)]
	r.i++
	return s.next()
}

// scrape reads a Prometheus text exposition into series -> value.
func scrape(admin string) (map[string]float64, error) {
	body, err := httpGet("http://" + admin + "/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta is after-before of one series, or of every series with the prefix
// when the name ends in '{'.
func delta(before, after map[string]float64, name string) float64 {
	var d float64
	for k, v := range after {
		if k == name || (strings.HasSuffix(name, "{") && strings.HasPrefix(k, name)) {
			d += v - before[k]
		}
	}
	return d
}

// traceRPC is the traced run of the wire workload.
func traceRPC(a *runArgs) (rep *report, err error) {
	ws := a.ws
	rep = newReport()
	s, err := bootServer(a, filepath.Join(a.workdir, "morphserve.log"))
	if err != nil {
		return nil, err
	}
	conns, err := dialAll(a, s)
	if err != nil {
		s.stop()
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			for _, wc := range conns {
				wc.cl.Abort()
			}
			s.stop()
		}
	}()
	olN := int(ws.RatePerS * a.share(traceOpenLoopShare).Seconds())
	olN -= olN % len(conns)
	lat := make([]float64, olN)
	perConn := ws.WarmupEvents / len(conns)
	for c, wc := range conns {
		wc.match = newLatencyMatcher(perConn, olN/len(conns), ws.RatePerS, len(conns), c, lat)
	}
	r := startWireRun(s, conns, ws)
	if err := r.warmup(perConn * len(conns)); err != nil {
		return nil, err
	}
	lags, _, err := r.openLoop(olN, ws.RatePerS)
	if err != nil {
		return nil, err
	}
	reportGenLag(rep, lags)
	if err := r.flood(a.share(traceFloodShare)); err != nil {
		return nil, err
	}
	untraced, _, err := r.meter.result()
	if err != nil {
		return nil, err
	}
	if err := r.drain(); err != nil {
		return nil, err
	}
	before, err := scrape(s.admin)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	root := tr.begin("flood", 0, -1)
	r.onSubmit = func(start, end time.Time) { tr.record("client.Submit", root, start, end) }
	r.onFlush = func(start, end time.Time) { tr.record("client.Flush", root, start, end) }
	r.onWait = func(start, end time.Time) { tr.record("client.wait", root, start, end) }
	r.arrivals.Store(&[]int64{})
	if err := r.flood(a.share(traceFloodShare)); err != nil {
		return nil, err
	}
	tr.end(root)
	r.onSubmit, r.onFlush, r.onWait = nil, nil, nil
	traced, _, err := r.meter.result()
	if err != nil {
		return nil, err
	}
	if err := r.drain(); err != nil {
		return nil, err
	}
	after, err := scrape(s.admin)
	if err != nil {
		return nil, err
	}
	if err := r.close(); err != nil {
		rep.fail(0, "client close: %v", err)
	}
	arrivals := r.arrivals.Load()
	stopped = true
	if err := s.stop(); err != nil {
		rep.fail(0, "morphserve exit: %v", err)
	}
	for c, wc := range conns {
		rep.attempted += int64(wc.sent)
		if wc.sent != len(wc.statuses) || wc.disorder > 0 {
			rep.fail(int64(abs(wc.sent-len(wc.statuses))+wc.disorder), "conn %d: %d submits, %d receipts, %d out of order", c, wc.sent, len(wc.statuses), wc.disorder)
		}
	}

	var submitNS, flushNS int64
	var submits, flushes int
	for _, sp := range tr.spans {
		switch sp.Name {
		case "client.Submit":
			submitNS += sp.dur()
			submits++
		case "client.Flush":
			flushNS += sp.dur()
			flushes++
		}
	}
	rep.set("client.submit_ns_per_event", float64(submitNS)/float64(max(submits, 1)))
	rep.set("client.flush_us_per_call", float64(flushNS)/1e3/float64(max(flushes, 1)))
	rep.set("trace.overhead_frac", 1-traced.eventsPerS()/untraced.eventsPerS())

	events := delta(before, after, "morph_engine_batch_events_sum")
	batches := max(delta(before, after, "morph_engine_batch_events_count"), 1)
	rep.set("rpcserve.frames_per_event", (delta(before, after, "morph_rpc_frames_in_total{")+delta(before, after, "morph_rpc_frames_out_total{"))/max(events, 1))
	rep.set("engine.ingest_ns_per_event", 0) // Ingest runs inside morphserve
	rep.set("engine.ingest_stalls_per_kevent", delta(before, after, "morph_ingest_stalls_total")/max(events, 1)*1e3)
	rep.set("engine.plan_us_per_batch", delta(before, after, "morph_engine_plan_ns_sum")/1e3/batches)
	rep.set("engine.exec_us_per_batch", delta(before, after, "morph_engine_exec_ns_sum")/1e3/batches)
	rep.set("engine.commit_us_per_batch", delta(before, after, "morph_engine_commit_ns_sum")/1e3/batches)
	rep.set("engine.overlap_frac", delta(before, after, "morph_engine_overlap_ns_total")/max(delta(before, after, "morph_engine_exec_busy_ns_total"), 1))
	rep.set("engine.events_per_batch", events/batches)

	// The staged replay and serial baseline run the connections' streams
	// interleaved one event at a time, in-process.
	newSource := func() source {
		rr := &roundRobin{}
		for c := range conns {
			rr.srcs = append(rr.srcs, connSource(ws, a.seed, c))
		}
		return rr
	}
	preload := func(t *store.Table) { rpcserve.PreloadAccounts(t, ws.StateSize, ws.Balance) }
	keys := make([]morphstream.Key, ws.StateSize)
	for i := range keys {
		keys[i] = morphstream.Key(rpcserve.AccountKey(i))
	}
	if err := stagedAndSerial(a, rpcserve.LedgerOperator(), preload, newSource, keys, ws.Punctuation.Count, rep); err != nil {
		return nil, err
	}
	if err := timeCodec(newSource(), rep); err != nil {
		return nil, err
	}
	// On the wire the submitter loop is what the client-side spans cover;
	// this replaces the staged replay's figure.
	self := selfTimes(tr.spans)
	rep.set("trace.unattributed_frac", float64(self[root])/float64(max(tr.spans[root].dur(), 1)))
	return rep, writeSpans(a, map[string]any{"client": tr.spans, "receipt_arrivals_ns": arrivals})
}
