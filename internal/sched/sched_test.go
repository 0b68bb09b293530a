package sched

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"morphstream/internal/tpg"
	"morphstream/internal/txn"
)

// buildGraph constructs a TPG from (target, src) writes at increasing ts.
func buildGraph(t *testing.T, specs [][2]string) *tpg.Graph {
	t.Helper()
	b := tpg.NewBuilderIDs(nil)
	for i, s := range specs {
		tx := txn.NewTransaction(int64(i+1), uint64(i+1))
		var srcs []txn.Key
		if s[1] != "" {
			srcs = []txn.Key{s[1]}
		}
		txn.Build(tx).Write(s[0], srcs, nil)
		b.AddTxn(tx)
	}
	return b.Finalize(1)
}

func TestStringers(t *testing.T) {
	d := Decision{Explore: NSExplore, Gran: CSchedule, Abort: LAbort}
	if got := d.String(); got != "ns-explore/c-schedule/l-abort" {
		t.Fatalf("Decision.String() = %q", got)
	}
	if SExploreBFS.String() != "s-explore(BFS)" || SExploreDFS.String() != "s-explore(DFS)" {
		t.Fatal("Explore stringer broken")
	}
	if FSchedule.String() != "f-schedule" || EAbort.String() != "e-abort" {
		t.Fatal("Gran/Abort stringer broken")
	}
}

func TestFScheduleOneUnitPerOp(t *testing.T) {
	g := buildGraph(t, [][2]string{{"A", ""}, {"A", ""}, {"B", "A"}})
	units, cyclic := BuildUnits(g, FSchedule)
	if cyclic {
		t.Fatal("f-schedule reported cyclic")
	}
	if len(units) != 3 {
		t.Fatalf("units = %d; want 3", len(units))
	}
	for _, u := range units {
		if len(u.Ops) != 1 {
			t.Fatalf("unit has %d ops; want 1", len(u.Ops))
		}
	}
}

func TestCScheduleChainsAndEdges(t *testing.T) {
	// Keys A and B, each with two writes; B's second write sources A.
	g := buildGraph(t, [][2]string{{"A", ""}, {"B", ""}, {"A", ""}, {"B", "A"}})
	units, cyclic := BuildUnits(g, CSchedule)
	if cyclic {
		t.Fatal("unexpected cycle")
	}
	if len(units) != 2 {
		t.Fatalf("units = %d; want 2 (one chain per key)", len(units))
	}
	// The B chain depends on the A chain via the PD.
	var aUnit, bUnit *Unit
	for _, u := range units {
		switch u.Ops[0].Key {
		case "A":
			aUnit = u
		case "B":
			bUnit = u
		}
	}
	if aUnit == nil || bUnit == nil {
		t.Fatal("chains not keyed as expected")
	}
	found := false
	for _, c := range aUnit.Children() {
		if c == bUnit {
			found = true
		}
	}
	if !found {
		t.Fatal("missing unit edge A-chain -> B-chain")
	}
}

func TestCScheduleMergesCycles(t *testing.T) {
	// A@1 -> B@2 (PD src A), B@2 -> A@3 chain... construct:
	// ts1: write A; ts2: write B src A; ts3: write A src B.
	// Chain A = {ts1, ts3}, chain B = {ts2}: A->B (PD ts1->ts2 via src),
	// B->A (PD ts2->ts3). Cycle between units.
	g := buildGraph(t, [][2]string{{"A", ""}, {"B", "A"}, {"A", "B"}})
	units, cyclic := BuildUnits(g, CSchedule)
	if !cyclic {
		t.Fatal("cycle not detected")
	}
	if len(units) != 1 {
		t.Fatalf("units = %d; want 1 merged unit", len(units))
	}
	u := units[0]
	if len(u.Ops) != 3 {
		t.Fatalf("merged unit ops = %d; want 3", len(u.Ops))
	}
	for i := 1; i < len(u.Ops); i++ {
		if u.Ops[i-1].TS() > u.Ops[i].TS() {
			t.Fatal("merged unit ops not in timestamp order")
		}
	}
	if len(u.Parents()) != 0 || len(u.Children()) != 0 {
		t.Fatal("merged unit should have no external edges")
	}
}

func TestStratifyRanks(t *testing.T) {
	// A linear chain of 4 ops on one key -> 4 strata under f-schedule.
	g := buildGraph(t, [][2]string{{"K", ""}, {"K", ""}, {"K", ""}, {"K", ""}})
	units, _ := BuildUnits(g, FSchedule)
	strata := Stratify(units)
	if len(strata) != 4 {
		t.Fatalf("strata = %d; want 4", len(strata))
	}
	for r, s := range strata {
		if len(s) != 1 {
			t.Fatalf("stratum %d has %d units; want 1", r, len(s))
		}
		if s[0].Rank != r {
			t.Fatalf("unit rank = %d; want %d", s[0].Rank, r)
		}
	}

	// Independent keys land in stratum 0 together.
	g2 := buildGraph(t, [][2]string{{"A", ""}, {"B", ""}, {"C", ""}})
	units2, _ := BuildUnits(g2, FSchedule)
	strata2 := Stratify(units2)
	if len(strata2) != 1 || len(strata2[0]) != 3 {
		t.Fatalf("independent ops: strata %d x %d; want 1 x 3", len(strata2), len(strata2[0]))
	}
}

func TestStratifyRespectsEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var specs [][2]string
	for i := 0; i < 150; i++ {
		specs = append(specs, [2]string{
			fmt.Sprintf("k%d", rng.Intn(6)),
			fmt.Sprintf("k%d", rng.Intn(6)),
		})
	}
	g := buildGraph(t, specs)
	for _, gran := range []Granularity{FSchedule, CSchedule} {
		units, _ := BuildUnits(g, gran)
		Stratify(units)
		for _, u := range units {
			for _, c := range u.Children() {
				if c.Rank <= u.Rank {
					t.Fatalf("%s: child rank %d <= parent rank %d", gran, c.Rank, u.Rank)
				}
			}
		}
	}
}

func TestUnitDone(t *testing.T) {
	g := buildGraph(t, [][2]string{{"A", ""}, {"A", ""}})
	units, _ := BuildUnits(g, CSchedule)
	u := units[0]
	if u.Done() {
		t.Fatal("fresh unit reports done")
	}
	u.Ops[0].SetState(txn.EXE)
	if u.Done() {
		t.Fatal("half-finished unit reports done")
	}
	u.Ops[1].SetState(txn.ABT)
	if !u.Done() {
		t.Fatal("settled unit (EXE+ABT) not done")
	}
}

func TestDecideExplorationDimension(t *testing.T) {
	// Many dependencies + uniform distribution -> structured exploration.
	in := ModelInputs{Props: tpg.Props{NumOps: 100, NumTD: 150, NumPD: 10, DegreeSkew: 2}}
	if d := Decide(in); d.Explore != SExploreBFS {
		t.Fatalf("uniform/high-deps: explore = %v; want s-explore(BFS)", d.Explore)
	}
	// Skewed distribution -> non-structured.
	in.Props.DegreeSkew = 50
	if d := Decide(in); d.Explore != NSExplore {
		t.Fatalf("skewed: explore = %v; want ns-explore", d.Explore)
	}
	// Few dependencies -> non-structured.
	in = ModelInputs{Props: tpg.Props{NumOps: 100, NumTD: 5, NumPD: 0, DegreeSkew: 1}}
	if d := Decide(in); d.Explore != NSExplore {
		t.Fatalf("low-deps: explore = %v; want ns-explore", d.Explore)
	}
}

func TestDecideGranularityDimension(t *testing.T) {
	// Acyclic, many TDs, few PDs -> c-schedule.
	in := ModelInputs{Props: tpg.Props{NumOps: 100, NumTD: 90, NumPD: 2, DegreeSkew: 1}}
	if d := Decide(in); d.Gran != CSchedule {
		t.Fatalf("acyclic/TD-heavy: gran = %v; want c-schedule", d.Gran)
	}
	// Cyclic -> f-schedule regardless.
	in.Cyclic = true
	if d := Decide(in); d.Gran != FSchedule {
		t.Fatalf("cyclic: gran = %v; want f-schedule", d.Gran)
	}
	// Many PDs -> f-schedule.
	in = ModelInputs{Props: tpg.Props{NumOps: 100, NumTD: 90, NumPD: 50}}
	if d := Decide(in); d.Gran != FSchedule {
		t.Fatalf("PD-heavy: gran = %v; want f-schedule", d.Gran)
	}
}

func TestDecideAbortDimension(t *testing.T) {
	// Low complexity + high abort ratio -> l-abort.
	in := ModelInputs{
		Props:      tpg.Props{NumOps: 10},
		Complexity: 5 * time.Microsecond,
		AbortRatio: 0.5,
	}
	if d := Decide(in); d.Abort != LAbort {
		t.Fatalf("cheap/aborty: abort = %v; want l-abort", d.Abort)
	}
	// High complexity -> e-abort even with many aborts.
	in.Complexity = 80 * time.Microsecond
	if d := Decide(in); d.Abort != EAbort {
		t.Fatalf("expensive: abort = %v; want e-abort", d.Abort)
	}
	// Rare aborts -> e-abort.
	in.Complexity = 5 * time.Microsecond
	in.AbortRatio = 0.01
	if d := Decide(in); d.Abort != EAbort {
		t.Fatalf("rare aborts: abort = %v; want e-abort", d.Abort)
	}
}

func TestBuildUnitsLargeRandomAcyclicInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var specs [][2]string
	for i := 0; i < 500; i++ {
		specs = append(specs, [2]string{
			fmt.Sprintf("k%d", rng.Intn(20)),
			fmt.Sprintf("k%d", rng.Intn(20)),
		})
	}
	g := buildGraph(t, specs)
	units, _ := BuildUnits(g, CSchedule)
	// After SCC merge the unit graph must be a DAG: Stratify visits all.
	strata := Stratify(units)
	n := 0
	for _, s := range strata {
		n += len(s)
	}
	// Units in strata >= units with rank assigned; unreachable-from-source
	// units would keep rank 0 but still appear. Count must match.
	if n != len(units) {
		t.Fatalf("stratified %d of %d units; residual cycle?", n, len(units))
	}
	// Every op appears in exactly one unit.
	seen := map[*txn.Operation]int{}
	for _, u := range units {
		for _, op := range u.Ops {
			seen[op]++
		}
	}
	if len(seen) != len(g.Ops) {
		t.Fatalf("unit ops cover %d of %d ops", len(seen), len(g.Ops))
	}
	for op, n := range seen {
		if n != 1 {
			t.Fatalf("op %d appears in %d units", op.ID, n)
		}
	}
}

func TestLinkUnitsDedupAndSelf(t *testing.T) {
	a := &Unit{ID: 1}
	b := &Unit{ID: 2}
	LinkUnits(a, b)
	LinkUnits(a, b) // duplicate ignored
	LinkUnits(a, a) // self ignored
	if len(a.Children()) != 1 || len(b.Parents()) != 1 {
		t.Fatalf("edges: children=%d parents=%d", len(a.Children()), len(b.Parents()))
	}
	if a.Children()[0] != b || b.Parents()[0] != a {
		t.Fatal("edge endpoints wrong")
	}
}

// TestStratifyShardedBucketsStrata: the sharded variant must keep exactly
// Stratify's rank partition while making each stratum's units contiguous by
// home shard (non-decreasing shard sequence), with edges still respected.
func TestStratifyShardedBucketsStrata(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var specs [][2]string
	for i := 0; i < 200; i++ {
		specs = append(specs, [2]string{
			fmt.Sprintf("k%d", rng.Intn(8)),
			fmt.Sprintf("k%d", rng.Intn(8)),
		})
	}
	g := buildGraph(t, specs)
	const numShards = 4
	for _, gran := range []Granularity{FSchedule, CSchedule} {
		units, _ := BuildUnits(g, gran)
		shardOf := make([]int32, len(units))
		for i := range shardOf {
			shardOf[i] = int32(rng.Intn(numShards))
		}
		wantRanks := make(map[int]int)
		for r, s := range Stratify(units) {
			wantRanks[r] = len(s)
		}
		strata := StratifySharded(units, shardOf, numShards)
		if len(strata) != len(wantRanks) {
			t.Fatalf("%v: %d strata; want %d", gran, len(strata), len(wantRanks))
		}
		for r, stratum := range strata {
			if len(stratum) != wantRanks[r] {
				t.Fatalf("%v: stratum %d has %d units; want %d", gran, r, len(stratum), wantRanks[r])
			}
			for i, u := range stratum {
				if u.Rank != r {
					t.Fatalf("%v: unit of rank %d in stratum %d", gran, u.Rank, r)
				}
				if i > 0 && shardOf[stratum[i-1].ID] > shardOf[u.ID] {
					t.Fatalf("%v: stratum %d not bucketed by shard at slot %d", gran, r, i)
				}
			}
			for _, u := range stratum {
				for _, c := range u.Children() {
					if c.Rank <= u.Rank {
						t.Fatalf("%v: child rank %d <= parent rank %d after bucketing", gran, c.Rank, u.Rank)
					}
				}
			}
		}
	}
}

// TestStratifyShardedSingleShardIsStratify: numShards <= 1 must not touch
// the stratify output at all.
func TestStratifyShardedSingleShardIsStratify(t *testing.T) {
	g := buildGraph(t, [][2]string{{"A", ""}, {"B", "A"}, {"A", "B"}, {"C", ""}})
	units, _ := BuildUnits(g, FSchedule)
	want := Stratify(units)
	got := StratifySharded(units, make([]int32, len(units)), 1)
	if len(got) != len(want) {
		t.Fatalf("strata = %d; want %d", len(got), len(want))
	}
	for r := range want {
		for i := range want[r] {
			if got[r][i] != want[r][i] {
				t.Fatalf("stratum %d slot %d differs", r, i)
			}
		}
	}
}
