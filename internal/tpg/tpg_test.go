package tpg

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"morphstream/internal/store"
	"morphstream/internal/txn"
)

// mkWrite builds a write op "key = f(srcs)" for tests.
func mkWrite(t *txn.Transaction, key Key, srcs ...Key) *txn.Operation {
	return txn.Build(t).Write(key, srcs, nil)
}

func hasEdge(parent, child *txn.Operation) bool {
	for _, c := range parent.Children() {
		if c == child {
			return true
		}
	}
	return false
}

// TestRunningExampleFigure3 reproduces the paper's Fig. 3: a deposit txn1 and
// two transfer txns over states A and B.
func TestRunningExampleFigure3(t *testing.T) {
	t1 := txn.NewTransaction(1, 1)
	o1 := mkWrite(t1, "A") // deposit to A

	t2 := txn.NewTransaction(2, 2)
	o2 := mkWrite(t2, "A")      // debit A
	o3 := mkWrite(t2, "B", "A") // credit B with f(A)

	t3 := txn.NewTransaction(3, 3)
	o4 := mkWrite(t3, "B")      // debit B
	o5 := mkWrite(t3, "A", "B") // credit A with f(B)

	b := NewBuilderIDs(nil)
	b.AddTxns([]*txn.Transaction{t1, t2, t3}, 1)
	g := b.Finalize(1)

	// TDs: chain in list A is O1->O2->O5; in list B it is O3->O4.
	for _, e := range []struct{ p, c *txn.Operation }{{o1, o2}, {o2, o5}, {o3, o4}} {
		if !hasEdge(e.p, e.c) {
			t.Errorf("missing TD edge %d -> %d", e.p.ID, e.c.ID)
		}
	}
	// PDs: O1 -> O3 (via VO_A of O3), O3 -> O5 (via VO_B of O5).
	for _, e := range []struct{ p, c *txn.Operation }{{o1, o3}, {o3, o5}} {
		if !hasEdge(e.p, e.c) {
			t.Errorf("missing PD edge %d -> %d", e.p.ID, e.c.ID)
		}
	}
	if g.Props.NumTD != 3 {
		t.Errorf("NumTD = %d; want 3", g.Props.NumTD)
	}
	if g.Props.NumPD != 2 {
		t.Errorf("NumPD = %d; want 2", g.Props.NumPD)
	}
	// LDs: one per multi-op transaction (txn2, txn3).
	if g.Props.NumLD != 2 {
		t.Errorf("NumLD = %d; want 2", g.Props.NumLD)
	}
	if g.Props.NumTxns != 3 || g.Props.NumOps != 5 {
		t.Errorf("props = %+v", g.Props)
	}
}

// TestOutOfOrderArrivalSameGraph feeds the same transactions in reverse
// arrival order and expects the identical dependency structure (challenge C1).
func TestOutOfOrderArrivalSameGraph(t *testing.T) {
	build := func(order []int) map[string]bool {
		t1 := txn.NewTransaction(1, 1)
		o1 := mkWrite(t1, "A")
		t2 := txn.NewTransaction(2, 2)
		o2 := mkWrite(t2, "A")
		o3 := mkWrite(t2, "B", "A")
		t3 := txn.NewTransaction(3, 3)
		o4 := mkWrite(t3, "B")
		o5 := mkWrite(t3, "A", "B")
		ops := map[*txn.Operation]string{o1: "o1", o2: "o2", o3: "o3", o4: "o4", o5: "o5"}
		all := []*txn.Transaction{t1, t2, t3}

		b := NewBuilderIDs(nil)
		for _, i := range order {
			b.AddTxn(all[i])
		}
		b.Finalize(1)

		edges := map[string]bool{}
		for op, name := range ops {
			for _, c := range op.Children() {
				edges[name+"->"+ops[c]] = true
			}
		}
		return edges
	}
	inOrder := build([]int{0, 1, 2})
	reversed := build([]int{2, 1, 0})
	if len(inOrder) != len(reversed) {
		t.Fatalf("edge counts differ: %v vs %v", inOrder, reversed)
	}
	for e := range inOrder {
		if !reversed[e] {
			t.Errorf("edge %s missing under out-of-order arrival", e)
		}
	}
}

// TestWindowDependencies reproduces Fig. 4a: a window write aggregating C
// over the past 10 time units into A depends on every in-window write of C.
func TestWindowDependencies(t *testing.T) {
	var writesC []*txn.Operation
	var all []*txn.Transaction
	for i := 1; i <= 3; i++ {
		tx := txn.NewTransaction(int64(i), uint64(i*3)) // ts 3, 6, 9
		writesC = append(writesC, mkWrite(tx, "C"))
		all = append(all, tx)
	}
	wtx := txn.NewTransaction(9, 12)
	wop := txn.Build(wtx).WindowWrite("A", []Key{"C"}, 10, nil)
	all = append(all, wtx)

	b := NewBuilderIDs(nil)
	b.AddTxns(all, 1)
	b.Finalize(1)

	// Window [2, 12): writes at ts 3, 6, 9 are all inside.
	for i, w := range writesC {
		if !hasEdge(w, wop) {
			t.Errorf("missing window PD from write %d (ts %d)", i, w.TS())
		}
	}

	// A second, narrower window [9,12) catches only the last write.
	wtx2 := txn.NewTransaction(10, 12)
	wop2 := txn.Build(wtx2).WindowWrite("A", []Key{"C"}, 3, nil)
	b2 := NewBuilderIDs(nil)
	for i := 1; i <= 3; i++ {
		tx := txn.NewTransaction(int64(i), uint64(i*3))
		writesC[i-1] = mkWrite(tx, "C")
		b2.AddTxn(tx)
	}
	b2.AddTxn(wtx2)
	b2.Finalize(1)
	if hasEdge(writesC[0], wop2) || hasEdge(writesC[1], wop2) {
		t.Error("narrow window depends on out-of-window writes")
	}
	if !hasEdge(writesC[2], wop2) {
		t.Error("narrow window misses in-window write at ts 9")
	}
}

// TestNonDeterministicFanOut reproduces Fig. 4b: an ND write is ordered
// against the operations of every key list.
func TestNonDeterministicFanOut(t *testing.T) {
	t1 := txn.NewTransaction(1, 1)
	oa := mkWrite(t1, "A")
	t2 := txn.NewTransaction(2, 2)
	ob := mkWrite(t2, "B")
	t3 := txn.NewTransaction(3, 3)
	oc := mkWrite(t3, "C")

	nd := txn.NewTransaction(4, 4)
	ond := txn.Build(nd).NDWrite(func(*txn.Ctx) (Key, error) { return "B", nil }, nil, nil)

	// Key D exists in the table but is untouched by this batch; the
	// pessimistic fan-out must still order the ND op within D's list.
	later := txn.NewTransaction(5, 5)
	od := mkWrite(later, "D")

	b := NewBuilderIDs(func() []store.KeyID {
		return []store.KeyID{store.Intern("A"), store.Intern("B"), store.Intern("C"), store.Intern("D")}
	})
	b.AddTxns([]*txn.Transaction{t1, t2, t3, nd, later}, 1)
	g := b.Finalize(1)

	for _, prev := range []*txn.Operation{oa, ob, oc} {
		if !hasEdge(prev, ond) {
			t.Errorf("ND op missing dependency on write of %s", prev.Key)
		}
	}
	// The later write to D must depend on the ND op (it may write D).
	if !hasEdge(ond, od) {
		t.Error("later write to D does not depend on the ND op")
	}
	if g.Props.NumND != 1 {
		t.Errorf("NumND = %d; want 1", g.Props.NumND)
	}
	// The ND op forms its own singleton chain.
	found := false
	for _, c := range g.Chains {
		if len(c) == 1 && c[0] == ond {
			found = true
		}
	}
	if !found {
		t.Error("ND op does not form a singleton chain")
	}
}

func TestSelfSourcedWriteHasNoSelfEdge(t *testing.T) {
	t1 := txn.NewTransaction(1, 1)
	o1 := mkWrite(t1, "A", "A") // balance = f(balance)
	t2 := txn.NewTransaction(2, 2)
	o2 := mkWrite(t2, "A", "A")

	b := NewBuilderIDs(nil)
	b.AddTxns([]*txn.Transaction{t1, t2}, 1)
	b.Finalize(1)

	for _, c := range o1.Children() {
		if c == o1 {
			t.Fatal("self edge on self-sourced write")
		}
	}
	if !hasEdge(o1, o2) {
		t.Fatal("TD between successive self-sourced writes missing")
	}
}

func TestChainsGroupByKey(t *testing.T) {
	var all []*txn.Transaction
	perKey := map[Key]int{}
	for i := 1; i <= 12; i++ {
		tx := txn.NewTransaction(int64(i), uint64(i))
		k := Key(fmt.Sprintf("k%d", i%3))
		mkWrite(tx, k)
		perKey[k]++
		all = append(all, tx)
	}
	b := NewBuilderIDs(nil)
	b.AddTxns(all, 1)
	g := b.Finalize(1)

	if len(g.Chains) != 3 {
		t.Fatalf("chains = %d; want 3", len(g.Chains))
	}
	for _, c := range g.Chains {
		if len(c) != perKey[c[0].Key] {
			t.Errorf("chain for %s has %d ops; want %d", c[0].Key, len(c), perKey[c[0].Key])
		}
		for i := 1; i < len(c); i++ {
			if c[i-1].TS() > c[i].TS() {
				t.Errorf("chain for %s out of order", c[0].Key)
			}
		}
	}
}

func TestDegreeSkewProps(t *testing.T) {
	// 10 ops on one hot key, 1 op each on 10 cold keys.
	b := NewBuilderIDs(nil)
	id := int64(1)
	for i := 0; i < 10; i++ {
		tx := txn.NewTransaction(id, uint64(id))
		mkWrite(tx, "hot")
		b.AddTxn(tx)
		id++
	}
	for i := 0; i < 10; i++ {
		tx := txn.NewTransaction(id, uint64(id))
		mkWrite(tx, Key(fmt.Sprintf("cold%d", i)))
		b.AddTxn(tx)
		id++
	}
	g := b.Finalize(1)
	// mean list length = 20/11, max = 10 -> skew = 5.5
	if g.Props.DegreeSkew < 5 || g.Props.DegreeSkew > 6 {
		t.Errorf("DegreeSkew = %f; want ~5.5", g.Props.DegreeSkew)
	}
}

// TestParallelConstructionEquivalence checks that multi-worker construction
// yields exactly the single-worker dependency structure.
func TestParallelConstructionEquivalence(t *testing.T) {
	gen := func() []*txn.Transaction {
		rng := rand.New(rand.NewSource(7))
		var all []*txn.Transaction
		for i := 1; i <= 200; i++ {
			tx := txn.NewTransaction(int64(i), uint64(i))
			k := Key(fmt.Sprintf("k%d", rng.Intn(8)))
			src := Key(fmt.Sprintf("k%d", rng.Intn(8)))
			mkWrite(tx, k, src)
			all = append(all, tx)
		}
		return all
	}
	edgeSet := func(txns []*txn.Transaction) map[string]bool {
		out := map[string]bool{}
		for _, tx := range txns {
			for _, op := range tx.Ops {
				for _, c := range op.Children() {
					out[fmt.Sprintf("%d->%d", op.Txn.TS, c.Txn.TS)] = true
				}
			}
		}
		return out
	}

	seq := gen()
	b1 := NewBuilderIDs(nil)
	b1.AddTxns(seq, 1)
	b1.Finalize(1)
	want := edgeSet(seq)

	par := gen()
	b2 := NewBuilderIDs(nil)
	b2.AddTxns(par, 8)
	b2.Finalize(8)
	got := edgeSet(par)

	if len(want) != len(got) {
		t.Fatalf("edge count: sequential %d vs parallel %d", len(want), len(got))
	}
	for e := range want {
		if !got[e] {
			t.Errorf("edge %s missing under parallel construction", e)
		}
	}
}

// TestEdgesRespectTimestampOrder asserts the TPG is a DAG by construction:
// every edge goes from a (ts,id)-smaller to a (ts,id)-larger operation.
func TestEdgesRespectTimestampOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var all []*txn.Transaction
	for i := 1; i <= 300; i++ {
		tx := txn.NewTransaction(int64(i), uint64(i))
		b := txn.Build(tx)
		for j := 0; j < 1+rng.Intn(3); j++ {
			k := Key(fmt.Sprintf("k%d", rng.Intn(5)))
			if rng.Intn(2) == 0 {
				b.Read(k, nil)
			} else {
				b.Write(k, []Key{Key(fmt.Sprintf("k%d", rng.Intn(5)))}, nil)
			}
		}
		all = append(all, tx)
	}
	b := NewBuilderIDs(nil)
	b.AddTxns(all, 4)
	g := b.Finalize(4)
	for _, op := range g.Ops {
		for _, c := range op.Children() {
			if c.TS() < op.TS() || (c.TS() == op.TS() && c.ID <= op.ID) {
				t.Fatalf("edge violates (ts,id) order: (%d,%d) -> (%d,%d)",
					op.TS(), op.ID, c.TS(), c.ID)
			}
		}
	}
}

// TestKeySpanCoversBatchKeys: Graph.KeySpan must be one past the highest
// KeyID the batch references, targets and sources alike.
func TestKeySpanCoversBatchKeys(t *testing.T) {
	t1 := txn.NewTransaction(1, 1)
	mkWrite(t1, "span-a")
	t2 := txn.NewTransaction(2, 2)
	mkWrite(t2, "span-b", "span-c") // source key counts too

	b := NewBuilderIDs(nil)
	b.AddTxns([]*txn.Transaction{t1, t2}, 1)
	g := b.Finalize(1)

	var want store.KeyID
	for _, k := range []Key{"span-a", "span-b", "span-c"} {
		if id := store.Intern(k); id >= want {
			want = id + 1
		}
	}
	if g.KeySpan != want {
		t.Fatalf("KeySpan = %d; want %d", g.KeySpan, want)
	}
}

// TestKeySpanCoversNDUniverse: with non-deterministic operations in the
// batch, KeySpan must also cover the fan-out key universe — an ND access
// can resolve to any of those keys at execution time, and without the
// widened span the executor's (and the aligned table's) shard map would
// clamp every ND-resolved key into the last shard.
func TestKeySpanCoversNDUniverse(t *testing.T) {
	universe := make([]store.KeyID, 0, 8)
	var top store.KeyID
	for i := 0; i < 8; i++ {
		id := store.Intern(fmt.Sprintf("ndspan-%d", i))
		universe = append(universe, id)
		if id >= top {
			top = id + 1
		}
	}

	t1 := txn.NewTransaction(1, 1)
	txn.Build(t1).NDRead(func(*txn.Ctx) (Key, error) { return "ndspan-0", nil }, nil)

	b := NewBuilderIDs(func() []store.KeyID { return universe })
	b.AddTxns([]*txn.Transaction{t1}, 1)
	g := b.Finalize(1)
	if g.KeySpan < top {
		t.Fatalf("KeySpan = %d; want >= %d (the ND fan-out universe)", g.KeySpan, top)
	}

	// Without ND operations the universe must not inflate the span.
	t2 := txn.NewTransaction(2, 2)
	mkWrite(t2, "ndspan-plain")
	b2 := NewBuilderIDs(func() []store.KeyID { return universe })
	b2.AddTxns([]*txn.Transaction{t2}, 1)
	g2 := b2.Finalize(1)
	id, _ := store.LookupID("ndspan-plain")
	if g2.KeySpan != id+1 {
		t.Fatalf("KeySpan without ND = %d; want %d", g2.KeySpan, id+1)
	}
}

// graphFingerprint reduces a graph to a comparable shape: edge set by
// (txnID, op ordinal) pairs — op IDs are process-global, so ordinals make
// fingerprints comparable across materializations — plus chain count and
// the decision-model properties.
func graphFingerprint(g *Graph) string {
	ord := make(map[*txn.Operation]int)
	for _, t := range g.Txns {
		for i, op := range t.Ops {
			ord[op] = i
		}
	}
	var edges []string
	for _, op := range g.Ops {
		for _, c := range op.Children() {
			edges = append(edges, fmt.Sprintf("%d.%d->%d.%d", op.Txn.ID, ord[op], c.Txn.ID, ord[c]))
		}
	}
	sort.Strings(edges)
	return fmt.Sprintf("edges=%v chains=%d props=%+v span=%d", edges, len(g.Chains), g.Props, g.KeySpan)
}

// TestRecycleSteadyStateEquivalence drives the engine's pooled punctuation
// loop: Reset + Recycle between batches must reproduce exactly the graph a
// fresh builder constructs, for several consecutive batches.
func TestRecycleSteadyStateEquivalence(t *testing.T) {
	gen := func(seed int64) []*txn.Transaction {
		rng := rand.New(rand.NewSource(seed))
		var txns []*txn.Transaction
		for i := 1; i <= 80; i++ {
			tx := txn.NewTransaction(int64(i), uint64(i))
			for j := 0; j < 1+rng.Intn(2); j++ {
				mkWrite(tx, Key(fmt.Sprintf("rk%d", rng.Intn(10))), Key(fmt.Sprintf("rk%d", rng.Intn(10))))
			}
			txns = append(txns, tx)
		}
		return txns
	}

	steady := NewBuilderIDs(nil)
	var prev *Graph
	for round := int64(0); round < 4; round++ {
		if prev != nil {
			steady.Reset()
			steady.Recycle(prev)
		}
		steady.AddTxns(gen(round), 2)
		g := steady.Finalize(2)

		fresh := NewBuilderIDs(nil)
		fresh.AddTxns(gen(round), 2)
		want := fresh.Finalize(2)

		if got, wantFp := graphFingerprint(g), graphFingerprint(want); got != wantFp {
			t.Fatalf("round %d: recycled graph diverges from fresh build:\n got %s\nwant %s", round, got, wantFp)
		}
		prev = g
	}
}

// TestRecycleNilGraphIsNoop guards the engine's first-punctuation path.
func TestRecycleNilGraphIsNoop(t *testing.T) {
	b := NewBuilderIDs(nil)
	b.Recycle(nil)
	tx := txn.NewTransaction(1, 1)
	mkWrite(tx, "nq")
	b.AddTxn(tx)
	if g := b.Finalize(1); len(g.Ops) != 1 {
		t.Fatalf("ops = %d; want 1", len(g.Ops))
	}
}
