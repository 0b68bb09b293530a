package harness

import (
	"fmt"
	"strings"
	"testing"

	"morphstream/internal/baseline"
	"morphstream/internal/engine"
	"morphstream/internal/exec"
	"morphstream/internal/sched"
	"morphstream/internal/workload"
)

const testScale = Scale(0.02)

// checkOracle runs b on the serial oracle and requires res to agree on the
// committed and aborted counts and on every key's final value.
func checkOracle(t *testing.T, label string, b *workload.Batch, res baseline.Result) {
	t.Helper()
	oTxns, oTable := b.Materialize()
	oracle := exec.Serial(oTxns, oTable)
	if res.Committed != oracle.Committed || res.Aborted != oracle.Aborted {
		t.Fatalf("%s: committed/aborted = %d/%d; oracle %d/%d",
			label, res.Committed, res.Aborted, oracle.Committed, oracle.Aborted)
	}
	for k, v := range oTable.Snapshot() {
		if got, ok := res.FinalState[k]; !ok || got != v.(int64) {
			t.Fatalf("%s: state[%s] = %d (present %v); oracle %v", label, k, got, ok, v)
		}
	}
}

// TestMorphSystemMatchesSerialOracle runs every generator the figures use
// through the engine-backed MorphSystem — adaptive model, two pinned
// decisions, and nested per-group strategies on the two-group TP — and
// compares each batch against the serial oracle. The dynamic case streams
// all of its batches through one system, as Fig. 12 does: the engine (and
// its decision profile) persists across them, and each batch must still
// match the oracle run from that batch's initial state.
func TestMorphSystemMatchesSerialOracle(t *testing.T) {
	base := workload.Config{
		Txns: 300, StateSize: 64, Theta: 0.6, AbortRatio: 0.05,
		ComplexityUS: 0, Seed: 31, MultiRatio: 0.5, Length: 2,
		InitialBalance: 1 << 40,
	}
	sl := base
	sl.Theta = 0.2
	tp := workload.DefaultTPGroups()
	tp.Txns, tp.StateSize, tp.ComplexityUS, tp.Seed = 400, 64, 0, 33
	var dynamic []*workload.Batch
	for _, db := range workload.Dynamic(workload.Config{Txns: 200, StateSize: 64, Seed: 12},
		workload.DynamicPhases(2)) {
		dynamic = append(dynamic, db.Batch)
	}
	cases := []struct {
		name    string
		batches []*workload.Batch
	}{
		{"SL", []*workload.Batch{workload.SL(sl)}},
		{"GS", []*workload.Batch{workload.GS(base)}},
		{"GSND", []*workload.Batch{workload.GSND(workload.GSNDConfig{Config: base, NDAccesses: 24})}},
		{"GSWindow", []*workload.Batch{workload.GSWindow(workload.GSWindowConfig{
			Config: base, WindowSize: 50, ReadEvery: 40, ReadKeys: 4,
		})}},
		{"TP", []*workload.Batch{workload.TP(tp)}},
		{"Dynamic", dynamic},
	}
	pinA := sched.Decision{Explore: sched.NSExplore, Gran: sched.CSchedule, Abort: sched.LAbort}
	pinB := sched.Decision{Explore: sched.SExploreBFS, Gran: sched.FSchedule, Abort: sched.EAbort}
	for _, c := range cases {
		// Fresh systems per case: a new engine's timestamps start where
		// the generators' do, so ND keys resolve as in the oracle.
		systems := []*MorphSystem{
			NewMorphPinned(pinA, "pinned-ns-c-l"),
			NewMorphPinned(pinB, "pinned-bfs-f-e"),
			{Label: "adaptive", Config: engine.Config{Cleanup: true}},
		}
		if c.name == "TP" {
			systems = append(systems, &MorphSystem{Label: "nested", Config: engine.Config{
				Cleanup:         true,
				GroupStrategies: map[int]sched.Decision{0: pinA, 1: pinB},
			}})
		}
		for _, sys := range systems {
			t.Run(c.name+"/"+sys.Name(), func(t *testing.T) {
				for i, b := range c.batches {
					checkOracle(t, fmt.Sprintf("batch %d", i), b, sys.Run(b, 4, nil))
				}
			})
		}
	}
}

func TestMorphSystemName(t *testing.T) {
	if NewMorph().Name() != "MorphStream" {
		t.Error("default name")
	}
	d := sched.Decision{Explore: sched.NSExplore}
	if got := NewMorphPinned(d, "").Name(); !strings.Contains(got, "ns-explore") {
		t.Errorf("pinned name = %q", got)
	}
	if got := NewMorphPinned(d, "X").Name(); got != "X" {
		t.Errorf("labelled name = %q", got)
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{
		Title:  "T",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"n1"},
	}
	s := r.String()
	for _, want := range []string{"== T ==", "a", "bb", "333", "note: n1"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

// TestAllExperimentsRunAtTinyScale smoke-tests every figure runner: each
// must produce a structurally complete report without panicking.
func TestAllExperimentsRunAtTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	threads := 2
	runs := []struct {
		name string
		fn   func() *Report
		rows int
	}{
		{"fig11", func() *Report { return Fig11(testScale, threads) }, 5},
		{"fig13", func() *Report { return Fig13(testScale, threads) }, 5},
		{"fig14", func() *Report { return Fig14(testScale, threads) }, 6},
		{"fig15", func() *Report { return Fig15(testScale, threads) }, 5},
		{"fig18", func() *Report { return Fig18(testScale, threads) }, 10},
		{"fig19", func() *Report { return Fig19(testScale, threads) }, 12},
		{"fig20", func() *Report { return Fig20(testScale, threads) }, 10},
		{"fig21a", func() *Report { return Fig21a(testScale, threads) }, 3},
		{"fig21b", func() *Report { return Fig21b(testScale, 4) }, 3},
	}
	for _, run := range runs {
		t.Run(run.name, func(t *testing.T) {
			r := run.fn()
			if len(r.Rows) != run.rows {
				t.Fatalf("%s: rows = %d; want %d\n%s", run.name, len(r.Rows), run.rows, r)
			}
			for i, row := range r.Rows {
				if len(row) != len(r.Header) {
					t.Fatalf("%s: row %d has %d cells; header has %d", run.name, i, len(row), len(r.Header))
				}
			}
		})
	}
}

func TestDynamicExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	r12 := Fig12(testScale, 2)
	if len(r12.Rows) != 12 {
		t.Fatalf("fig12 rows = %d; want 12", len(r12.Rows))
	}
	r16a := Fig16a(testScale, 2)
	if len(r16a.Rows) != 3 {
		t.Fatalf("fig16a rows = %d", len(r16a.Rows))
	}
	r16b := Fig16b(testScale, 2)
	if len(r16b.Rows) != 3 {
		t.Fatalf("fig16b rows = %d", len(r16b.Rows))
	}
	r17 := Fig17(testScale, 2)
	if len(r17.Rows) != 4 {
		t.Fatalf("fig17 rows = %d", len(r17.Rows))
	}
}

// TestPipelineOverlapExperiment checks that the pipelined lifecycle and
// the synchronous facade commit the same transactions of one stream, and
// that the pipeline's overlap meter measures both stages.
func TestPipelineOverlapExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	cfg := workload.DefaultGS()
	cfg.Txns = testScale.txns(40960)
	cfg.StateSize = testScale.states(4096)
	cfg.ComplexityUS = 1
	b, batchSize := workload.GS(cfg), testScale.txns(4096)
	sc, _ := RunSynchronousBaseline(b, batchSize, 2)
	pc, _, st := RunPipelined(b, batchSize, 2)
	if sc != pc {
		t.Fatalf("committed: sync %d vs pipelined %d", sc, pc)
	}
	if sc == 0 {
		t.Fatal("nothing committed")
	}
	if st.PlanBusy <= 0 || st.ExecBusy <= 0 {
		t.Fatalf("overlap meter empty: %+v", st)
	}
}
