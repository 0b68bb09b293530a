package exec

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"morphstream/internal/sched"
	"morphstream/internal/store"
	"morphstream/internal/tpg"
	"morphstream/internal/txn"
	"morphstream/internal/workload"
)

// This file is the strategy-matrix fuzz net: seeded workloads from the
// paper's generators (internal/workload) are executed under every point of
// the 3x2x2 decision space — with plan-time fusion both off and on — and
// cross-checked against the serial oracle. Randomised cross-checking,
// rather than per-strategy unit tests, is the correctness regime guarding
// the lock-free execution epoch and the fused blot/abort paths.

// matrixCase derives one seeded workload configuration from fuzz inputs.
type matrixCase struct {
	kind     string // "SL", "GS", "HK" or "GSND"
	seed     int64
	theta    float64
	abortPct float64
	txns     int
	states   int
	// hotFrac / churn drive the workload skew knobs (HotSetFraction,
	// ChurnRatio).
	hotFrac float64
	churn   float64
}

func (mc matrixCase) batch() *workload.Batch {
	cfg := workload.Config{
		StateSize:      mc.states,
		Theta:          mc.theta,
		HotSetFraction: mc.hotFrac,
		ChurnRatio:     mc.churn,
		AbortRatio:     mc.abortPct,
		Txns:           mc.txns,
		Seed:           mc.seed,
		// ns-scale UDFs: contention, not compute, dominates.
		ComplexityUS: 0,
		Length:       2,
		MultiRatio:   0.5,
	}
	switch mc.kind {
	case "GS":
		cfg.Length = 1
		cfg.MultiRatio = 1
		return workload.GS(cfg)
	case "HK":
		return workload.HK(cfg)
	case "GSND":
		cfg.Length = 1
		cfg.MultiRatio = 1
		return workload.GSND(workload.GSNDConfig{Config: cfg, NDAccesses: mc.txns / 10})
	}
	return workload.SL(cfg)
}

func buildGraphFromTable(txns []*txn.Transaction, table *store.Table, fusion bool) *tpg.Graph {
	b := tpg.NewBuilderIDs(table.KeyIDs).SetFusion(fusion)
	b.AddTxns(txns, 2)
	return b.Finalize(2)
}

// blotterSig reduces the per-transaction blotter results to a comparable
// signature. Results within one transaction are compared as a multiset:
// concurrent workers (and fused fan-out) deposit them in nondeterministic
// order, and the serial oracle fixes only the set, not the order.
func blotterSig(txns []*txn.Transaction) map[int64][]string {
	sig := make(map[int64][]string, len(txns))
	for _, t := range txns {
		rs := t.Blotter.Results()
		ss := make([]string, len(rs))
		for i, v := range rs {
			ss[i] = fmt.Sprint(v)
		}
		sort.Strings(ss)
		sig[t.ID] = ss
	}
	return sig
}

// checkMatrixCase runs one seeded workload through all 12 strategies, with
// fusion off and on, and fails if any combination diverges from the serial
// oracle in final state, abort set, commit/abort counts, or per-event
// blotter results.
func checkMatrixCase(t *testing.T, mc matrixCase) {
	t.Helper()
	batch := mc.batch()

	oTxns, oTable := batch.Materialize()
	oracle := Serial(oTxns, oTable)
	wantState := oTable.Snapshot()
	wantAborted := abortedIDs(oTxns)
	wantBlots := blotterSig(oTxns)

	for _, fusion := range []bool{false, true} {
		for _, d := range allDecisions() {
			for _, threads := range []int{1, 4} {
				name := fmt.Sprintf("%s/seed=%d/%v/threads=%d/fusion=%v",
					mc.kind, mc.seed, d, threads, fusion)
				txns, table := batch.Materialize()
				g := buildGraphFromTable(txns, table, fusion)
				res := Run(g, Config{Decision: d, Threads: threads, Table: table})
				if res.Committed != oracle.Committed || res.Aborted != oracle.Aborted {
					t.Errorf("%s: committed/aborted = %d/%d; oracle %d/%d",
						name, res.Committed, res.Aborted, oracle.Committed, oracle.Aborted)
				}
				if got := abortedIDs(txns); !reflect.DeepEqual(got, wantAborted) {
					t.Errorf("%s: aborted txn set diverges from oracle", name)
				}
				if got := table.Snapshot(); !reflect.DeepEqual(got, wantState) {
					t.Errorf("%s: final state diverges from oracle", name)
				}
				if got := blotterSig(txns); !reflect.DeepEqual(got, wantBlots) {
					t.Errorf("%s: blotter results diverge from oracle", name)
				}
			}
		}
	}
}

// TestStrategyMatrixSeededWorkloads sweeps the generator space: all
// workload kinds, uniform and skewed access, hot-set/churn knobs, and abort
// ratios from none to extreme (forced failures land on every strategy's
// e-abort and l-abort paths alike).
func TestStrategyMatrixSeededWorkloads(t *testing.T) {
	cases := []matrixCase{
		{kind: "SL", seed: 1, theta: 0.2, abortPct: 0, txns: 150, states: 16},
		{kind: "SL", seed: 2, theta: 0.9, abortPct: 0.1, txns: 150, states: 12},
		{kind: "SL", seed: 3, theta: 0.6, abortPct: 0.3, txns: 120, states: 8},
		{kind: "GS", seed: 4, theta: 0.2, abortPct: 0, txns: 150, states: 16},
		{kind: "GS", seed: 5, theta: 0.9, abortPct: 0.1, txns: 150, states: 12},
		{kind: "GS", seed: 6, theta: 0.6, abortPct: 0.3, txns: 120, states: 8},
		// Hot-key pathology: nearly every transaction collides.
		{kind: "SL", seed: 7, theta: 1.2, abortPct: 0.2, txns: 100, states: 4},
		{kind: "GS", seed: 8, theta: 1.2, abortPct: 0.2, txns: 100, states: 4},
		// Zipf hot-key probes for fusion: receipt deposits exercise fused
		// result fan-out; transfers interleave PDs with fused runs; the
		// hot-set/churn knobs concentrate and drift the contention.
		{kind: "HK", seed: 9, theta: 0.6, abortPct: 0, txns: 150, states: 16, hotFrac: 0.25},
		{kind: "HK", seed: 10, theta: 0.9, abortPct: 0.15, txns: 150, states: 12, churn: 0.1},
		{kind: "HK", seed: 11, theta: 1.2, abortPct: 0.25, txns: 120, states: 6, hotFrac: 0.5, churn: 0.05},
		// ND accesses fan pessimistic virtual operations into every list:
		// fusion must never collapse across them.
		{kind: "GSND", seed: 12, theta: 0.6, abortPct: 0.1, txns: 120, states: 10},
		{kind: "GSND", seed: 13, theta: 0.9, abortPct: 0.2, txns: 120, states: 8},
		{kind: "GSND", seed: 14, theta: 1.2, abortPct: 0.1, txns: 100, states: 6},
	}
	if testing.Short() {
		cases = cases[:4]
	}
	for _, mc := range cases {
		mc := mc
		t.Run(fmt.Sprintf("%s/seed=%d/a=%v", mc.kind, mc.seed, mc.abortPct), func(t *testing.T) {
			checkMatrixCase(t, mc)
		})
	}
}

// TestDFSEagerAbortNoLostWork repeats the matrix case that used to hang
// under s-explore(DFS)/e-abort with 4 workers: a worker could find every
// unit settled and no failure pending, and exit, while another worker's
// failure — settled before it was recorded, or drained outside the abort
// fence — was about to reset operations in the exited worker's chunk,
// leaving them to no one. A run outliving the watchdog is that hang.
func TestDFSEagerAbortNoLostWork(t *testing.T) {
	mc := matrixCase{kind: "SL", seed: 3, theta: 0.6, abortPct: 0.3, txns: 120, states: 8}
	batch := mc.batch()
	d := sched.Decision{Explore: sched.SExploreDFS, Gran: sched.FSchedule, Abort: sched.EAbort}
	for it := 0; it < 300; it++ {
		txns, table := batch.Materialize()
		g := buildGraphFromTable(txns, table, true)
		done := make(chan struct{})
		go func() {
			defer close(done)
			Run(g, Config{Decision: d, Threads: 4, Table: table})
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("run %d did not finish: work was left to an exited DFS worker", it)
		}
	}
}

// TestFusionPlansSmallerHotKeyGraph is the planner-side acceptance probe: a
// θ=1.2 hot-key batch of 100k operations must plan a TPG with at least 10x
// fewer operation vertices when fusion is on.
func TestFusionPlansSmallerHotKeyGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("large batch")
	}
	batch := workload.HK(workload.Config{
		StateSize: 1024, Theta: 1.2, Txns: 50000, Length: 2, Seed: 61,
	})
	txns, table := batch.Materialize()
	off := buildGraphFromTable(txns, table, false)
	txns2, table2 := batch.Materialize()
	on := buildGraphFromTable(txns2, table2, true)
	if len(off.Ops) != 100000 {
		t.Fatalf("fusion-off graph has %d ops; want 100000", len(off.Ops))
	}
	if want := len(off.Ops) / 10; len(on.Ops) > want {
		t.Errorf("fusion-on graph has %d ops; want <= %d (10x reduction)", len(on.Ops), want)
	}
	if on.Props.FusedOps == 0 || on.Props.FusedAway == 0 {
		t.Errorf("fusion stats empty: %+v", on.Props)
	}
	if got := len(on.Ops); got != on.Props.NumOps-on.Props.FusedAway+on.Props.FusedOps {
		t.Errorf("vertex count %d inconsistent with props %+v", got, on.Props)
	}
}

// FuzzStrategyMatrix is the native fuzz entry point: arbitrary seeds, skew,
// hot-set/churn knobs, and abort ratios are reduced to a bounded workload
// and checked against the oracle across the full matrix, fusion off and on.
// Under plain `go test` it runs the corpus below;
// `go test -fuzz=FuzzStrategyMatrix ./internal/exec` explores further.
func FuzzStrategyMatrix(f *testing.F) {
	f.Add(int64(42), uint8(20), uint8(10), uint8(0), uint8(0), uint8(0))
	f.Add(int64(99), uint8(120), uint8(40), uint8(0), uint8(0), uint8(1))
	f.Add(int64(7), uint8(0), uint8(0), uint8(0), uint8(0), uint8(2))
	f.Add(int64(23), uint8(90), uint8(15), uint8(30), uint8(10), uint8(2))
	f.Add(int64(51), uint8(129), uint8(25), uint8(50), uint8(5), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, theta, abortPct, hot, churn, kind uint8) {
		mc := matrixCase{
			kind:     []string{"SL", "GS", "HK", "GSND"}[kind%4],
			seed:     seed,
			theta:    float64(theta%130) / 100, // [0, 1.3)
			abortPct: float64(abortPct%50) / 100,
			hotFrac:  float64(hot%100) / 100,
			churn:    float64(churn%30) / 100,
			txns:     100,
			states:   8,
		}
		checkMatrixCase(t, mc)
	})
}
