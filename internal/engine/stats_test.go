package engine

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"morphstream/internal/sched"
	"morphstream/internal/telemetry"
	"morphstream/internal/txn"
	"morphstream/internal/wal"
)

// scrapeProm renders reg's /metrics exposition into a series -> value map
// (histograms contribute their _sum and _count lines).
func scrapeProm(t *testing.T, reg *telemetry.Registry) map[string]int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseInt(line[i+1:], 10, 64)
		if err != nil {
			t.Fatalf("unparsable series %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// ledgerStream ingests n events on a started engine: every fifth event
// carries a malformed payload (dropped by PreProcess), every seventh a
// negative amount (its transaction aborts), the rest deposit 1 on one of
// eight keys.
func ledgerStream(t *testing.T, e *Engine, n int) {
	t.Helper()
	op := droppingDepositOp()
	for i := 0; i < n; i++ {
		var data any = [2]any{txn.Key(fmt.Sprintf("k%d", i%8)), int64(1)}
		switch {
		case i%5 == 4:
			data = "malformed"
		case i%7 == 6:
			data = [2]any{txn.Key(fmt.Sprintf("k%d", i%8)), int64(-1)}
		}
		if err := e.Ingest(op, &Event{Data: data}); err != nil {
			t.Fatal(err)
		}
	}
}

// droppingDepositOp is depositOp whose PreProcess rejects non-pair payloads.
func droppingDepositOp() Operator {
	op := depositOp().(OperatorFuncs)
	pre := op.Pre
	op.Pre = func(ev *Event) (*txn.EventBlotter, error) {
		if _, ok := ev.Data.([2]any); !ok {
			return nil, errors.New("malformed event")
		}
		return pre(ev)
	}
	return op
}

// TestPipelineStatsIsRegistryView runs a pipelined, durable stream against a
// caller registry and checks that every PipelineStats counter and duration
// is the value /metrics exposes for its series — one store, two readers —
// and that the store agrees with the delivered batch results.
func TestPipelineStatsIsRegistryView(t *testing.T) {
	reg := telemetry.NewRegistry()
	var sum BatchResult // per-batch results, summed
	var durable int64
	e := New(Config{Threads: 2, Cleanup: true, Fusion: true},
		WithTelemetry(reg), WithPunctuationCount(16),
		WithDurability(&Durability{Sink: wal.NewMemSink(), SnapshotEvery: 3, SnapshotDiffBudget: 1e9}),
		WithResultSink(func(r *BatchResult) {
			sum.Events += r.Events
			sum.Dropped += r.Dropped
			sum.Committed += r.Committed
			sum.Aborted += r.Aborted
			sum.OpsExecuted += r.OpsExecuted
			sum.PlanElapsed += r.PlanElapsed
			sum.Elapsed += r.Elapsed
			if r.Durable {
				durable++
			}
		}))
	for i := 0; i < 8; i++ {
		e.Table().Preload(txn.Key(fmt.Sprintf("k%d", i)), int64(0))
	}
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	const events = 500
	ledgerStream(t, e, events)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	st := e.PipelineStats()
	m := scrapeProm(t, reg)
	for _, c := range []struct {
		field  string
		got    int64
		series string
	}{
		{"Batches", st.Batches, "morph_engine_batches_sealed_total"},
		{"Events", st.Events, "morph_engine_events_planned_total"},
		{"Dropped", st.Dropped, "morph_engine_events_dropped_total"},
		{"Committed", st.Committed, "morph_engine_txn_committed_total"},
		{"Aborted", st.Aborted, "morph_engine_txn_aborted_total"},
		{"AbortRounds", st.AbortRounds, "morph_engine_abort_rounds_total"},
		{"Redos", st.Redos, "morph_engine_redos_total"},
		{"OpsExecuted", st.OpsExecuted, "morph_exec_ops_total"},
		{"Steals", st.Steals, "morph_exec_steals_total"},
		{"Parks", st.Parks, "morph_exec_parks_total"},
		{"FusedOps", st.FusedOps, "morph_engine_fused_ops_total"},
		{"PlanElapsed", int64(st.PlanElapsed), "morph_engine_plan_ns_sum"},
		{"ExecElapsed", int64(st.ExecElapsed), "morph_engine_exec_ns_sum"},
		{"CommitElapsed", int64(st.CommitElapsed), "morph_engine_commit_ns_sum"},
		{"DurableBatches", st.DurableBatches, "morph_engine_durable_batches_total"},
		{"WALLastSeq", st.WALLastSeq, "morph_wal_last_seq"},
		{"WALDiffChain", int64(st.WALDiffChain), "morph_wal_diff_chain_len"},
		{"WALErrors", st.WALErrors, "morph_wal_errors_total"},
		{"IngestStalls", st.IngestStalls, "morph_ingest_stalls_total"},
		{"IngestCapacity", int64(st.IngestCapacity), "morph_ingest_ring_capacity"},
		{"PlanBusy", int64(st.PlanBusy), "morph_engine_plan_busy_ns_total"},
		{"ExecBusy", int64(st.ExecBusy), "morph_engine_exec_busy_ns_total"},
		{"Overlap", int64(st.Overlap), "morph_engine_overlap_ns_total"},
		{"Latency().Count", e.Latency().Count, "morph_engine_event_latency_ns_count"},
		{"Latency().Sum", e.Latency().Sum, "morph_engine_event_latency_ns_sum"},
	} {
		want, ok := m[c.series]
		if !ok {
			t.Errorf("%s: series %s missing from /metrics", c.field, c.series)
			continue
		}
		if c.got != want {
			t.Errorf("%s = %d; /metrics %s = %d", c.field, c.got, c.series, want)
		}
	}

	// The store agrees with what the batches reported.
	if st.Events+st.Dropped != events || st.Events != int64(sum.Events) || st.Dropped != int64(sum.Dropped) {
		t.Errorf("events/dropped = %d/%d; results %d/%d, ingested %d", st.Events, st.Dropped, sum.Events, sum.Dropped, events)
	}
	if st.Committed != int64(sum.Committed) || st.Aborted != int64(sum.Aborted) || st.OpsExecuted != int64(sum.OpsExecuted) {
		t.Errorf("committed/aborted/ops = %d/%d/%d; results %d/%d/%d",
			st.Committed, st.Aborted, st.OpsExecuted, sum.Committed, sum.Aborted, sum.OpsExecuted)
	}
	if st.PlanElapsed != sum.PlanElapsed || st.ExecElapsed != sum.Elapsed {
		t.Errorf("plan/exec elapsed = %v/%v; results %v/%v", st.PlanElapsed, st.ExecElapsed, sum.PlanElapsed, sum.Elapsed)
	}
	if st.DurableBatches != durable || st.DurableBatches != st.Batches || st.WALLastSeq != st.Batches {
		t.Errorf("durable = %d, wal last seq = %d; results %d durable of %d batches", st.DurableBatches, st.WALLastSeq, durable, st.Batches)
	}
	if st.Aborted == 0 || st.Dropped == 0 || st.CommitElapsed <= 0 || st.WALDiffChain == 0 {
		t.Errorf("stream did not exercise aborts, drops, commits and diff snapshots: %+v", st)
	}
	if e.Latency().Count != st.Events {
		t.Errorf("latency observations = %d; want one per executed event (%d)", e.Latency().Count, st.Events)
	}
}

// TestPipelineStatsWithoutRegistry: an engine given no registry keeps its
// accounting in a private one, so PipelineStats and Latency are populated
// exactly as with a caller registry.
func TestPipelineStatsWithoutRegistry(t *testing.T) {
	e := New(Config{Threads: 2, Cleanup: true}, WithPunctuationCount(10),
		WithResultSink(func(*BatchResult) {}))
	for i := 0; i < 8; i++ {
		e.Table().Preload(txn.Key(fmt.Sprintf("k%d", i)), int64(0))
	}
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	const events = 203
	op := depositOp()
	for i := 0; i < events; i++ {
		amount := int64(1)
		if i%4 == 0 {
			amount = -1
		}
		if err := e.Ingest(op, &Event{Data: [2]any{txn.Key(fmt.Sprintf("k%d", i%8)), amount}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	st := e.PipelineStats()
	if st.Batches != 21 || int(st.Batches) != e.Batches() {
		t.Errorf("Batches = %d (engine %d); want 21", st.Batches, e.Batches())
	}
	if st.Events != events || st.Committed+st.Aborted != events || st.Aborted != 51 {
		t.Errorf("events/committed/aborted = %d/%d/%d; want %d events, 51 aborted", st.Events, st.Committed, st.Aborted, events)
	}
	if st.OpsExecuted < st.Committed || st.PlanElapsed <= 0 || st.ExecElapsed <= 0 || st.IngestCapacity == 0 {
		t.Errorf("stats not populated: %+v", st)
	}
	if st.CommitElapsed != 0 || st.DurableBatches != 0 || st.WALLastSeq != 0 || st.WALErrors != 0 {
		t.Errorf("WAL stats without durability: %+v", st)
	}
	lat := e.Latency()
	if lat.Count != events || lat.Sum <= 0 {
		t.Errorf("latency count/sum = %d/%d; want %d events", lat.Count, lat.Sum, events)
	}
}

// errInjected is failingSink's Append failure.
var errInjected = errors.New("injected append failure")

// failingSink is a MemSink whose failAt-th Append fails.
type failingSink struct {
	*wal.MemSink
	appends, failAt int
}

func (s *failingSink) Append(frame []byte) error {
	s.appends++
	if s.appends == s.failAt {
		return errInjected
	}
	return s.MemSink.Append(frame)
}

// TestWALErrorCounted: a failed append is counted once, later batches are
// delivered non-durable, DurableBatches stops growing, and Close reports
// the sticky error.
func TestWALErrorCounted(t *testing.T) {
	reg := telemetry.NewRegistry()
	var durable []bool
	e := New(Config{Threads: 1}, WithTelemetry(reg), WithPunctuationCount(1),
		WithDurability(&Durability{Sink: &failingSink{MemSink: wal.NewMemSink(), failAt: 3}, SnapshotEvery: -1}),
		WithResultSink(func(r *BatchResult) { durable = append(durable, r.Durable) }))
	e.Table().Preload("acct", int64(0))
	if err := e.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	op := depositOp()
	for i := 0; i < 6; i++ {
		if err := e.Ingest(op, &Event{Data: [2]any{txn.Key("acct"), int64(1)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	mid := e.PipelineStats()
	for i := 0; i < 4; i++ {
		if err := e.Ingest(op, &Event{Data: [2]any{txn.Key("acct"), int64(1)}}); err != nil {
			t.Fatal(err)
		}
	}
	err := e.Close()
	if !errors.Is(err, errInjected) {
		t.Fatalf("Close = %v; want the injected append failure", err)
	}
	want := []bool{true, true, false, false, false, false, false, false, false, false}
	if fmt.Sprint(durable) != fmt.Sprint(want) {
		t.Fatalf("Durable flags = %v; want %v", durable, want)
	}
	st := e.PipelineStats()
	if st.WALErrors != 1 || reg.Counter("morph_wal_errors_total", "").Value() != 1 {
		t.Errorf("WALErrors = %d, morph_wal_errors_total = %d; want 1", st.WALErrors, reg.Counter("morph_wal_errors_total", "").Value())
	}
	if mid.DurableBatches != 2 || st.DurableBatches != 2 || st.WALLastSeq != 2 {
		t.Errorf("DurableBatches %d -> %d, WALLastSeq %d; want 2 throughout", mid.DurableBatches, st.DurableBatches, st.WALLastSeq)
	}
}

// TestDecisionProfilesEachBatch: the decision model's UDF complexity input
// is this batch's Useful time per executed operation. A cheap UDF under a
// 50% abort ratio must keep electing l-abort however many batches ran; a
// cumulative Useful numerator would inflate the complexity with the batch
// count until l-abort is never picked again. Medians over windows of
// batches keep a stray slow batch (GC, the race detector) from deciding.
func TestDecisionProfilesEachBatch(t *testing.T) {
	e := New(Config{Threads: 2, Cleanup: true})
	const keys, batch, batches, window = 64, 256, 150, 21
	for i := 0; i < keys; i++ {
		e.Table().Preload(txn.Key(fmt.Sprintf("k%d", i)), int64(0))
	}
	op := depositOp()
	complexity := make([]time.Duration, 0, batches)
	lazy := 0
	for b := 0; b < batches; b++ {
		for i := 0; i < batch; i++ {
			amount := int64(1)
			if i%2 == 0 {
				amount = -1
			}
			_ = e.Submit(op, &Event{Data: [2]any{txn.Key(fmt.Sprintf("k%d", i%keys)), amount}})
		}
		res := e.Punctuate()
		complexity = append(complexity, e.lastComplexity)
		if b >= batches-window && res.Decisions[0].Abort == sched.LAbort {
			lazy++
		}
	}
	median := func(ds []time.Duration) time.Duration {
		ds = slices.Clone(ds)
		slices.Sort(ds)
		return ds[len(ds)/2]
	}
	early, late := median(complexity[4:4+window]), median(complexity[batches-window:])
	if late > sched.LowComplexity || late > 4*early {
		t.Errorf("complexity input: median %v over batches 5-%d, %v over the last %d; want <= %v and not growing",
			early, 4+window, late, window, sched.LowComplexity)
	}
	if lazy <= window/2 {
		t.Errorf("l-abort elected in %d of the last %d batches; want a majority (abort ratio %.2f)",
			lazy, window, e.lastAbortRatio)
	}
}
