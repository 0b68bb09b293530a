// Package tpg implements MorphStream's Planning stage (paper Section 4):
// the two-phase construction of the Task Precedence Graph.
//
// Stream processing phase: arriving state transactions are decomposed into
// atomic state-access operations; logical dependencies (LDs) are implicit in
// the transaction; operations are inserted into per-key lists together with
// the virtual operations of their parametric sources. Out-of-order arrival
// is tolerated because the lists are only sorted at punctuation.
//
// Transaction processing phase (Finalize): each key list is sorted by
// timestamp; temporal dependencies (TDs) are derived by chaining consecutive
// real operations, and parametric dependencies (PDs) by linking each virtual
// operation to the latest preceding write (window operations link to every
// in-window write; non-deterministic operations fan virtual operations out to
// every key list, paper Section 4.3 and 4.4).
//
// Keys are handled as interned dense ids throughout (store.KeyID): the
// per-key lists are sharded by id, so planning never hashes a string.
// Finalize also assigns each operation its dense per-batch Index, which the
// scheduler and executor use to replace pointer-keyed maps with flat slices.
package tpg

import (
	"fmt"
	"slices"
	"sync"

	"morphstream/internal/store"
	"morphstream/internal/txn"
)

// Key aliases the store key type.
type Key = txn.Key

// entryKind distinguishes the three flavours of key-list entries.
type entryKind int8

const (
	// real: the operation's own target-key placement; participates in the
	// TD chain.
	real entryKind = iota
	// vo: a virtual operation for a parametric source; receives a PD edge
	// from the latest preceding write.
	vo
	// ndvo: a virtual operation of a non-deterministic access; pessimistic,
	// so it participates in the TD chain in both directions.
	ndvo
)

// entry is one slot in a per-key sorted list.
type entry struct {
	op   *txn.Operation
	kind entryKind
	// window is the event-time range of a window source; zero for plain vo.
	window uint64
}

type keyList struct {
	entries []entry
	// fusibles counts the fusible real entries appended this batch — the
	// stream-phase pending-run tracker. The fuse pass only scans lists
	// where at least two fusible operations could form a run.
	fusibles int32
	// sorted marks a list the fuse pass has already ordered, so
	// deriveShard can skip the re-sort.
	sorted bool
}

// ListShards is the number of per-key-list shards the builder maintains —
// the planner's parallelism bound. The executor's KeyID-range shard map is
// independent of it (sized by worker count over Graph.KeySpan).
const ListShards = 64

type listShard struct {
	mu sync.Mutex
	m  map[store.KeyID]*keyList

	// edges and writes are Finalize scratch, owned by deriveShard and
	// retained across Reset so steady-state construction stays
	// allocation-free once warm. edges is consumed by linkEdges before the
	// next Finalize can run.
	edges  []edgePair
	writes []writeAt
}

// Builder accumulates one batch of state transactions and constructs its TPG.
// AddTxn/AddTxns may be called concurrently (stream processing phase);
// Finalize runs the transaction processing phase.
type Builder struct {
	shards [ListShards]listShard

	// fusion enables plan-time same-key operation fusion (SetFusion). It
	// must be set before transactions are added: AddTxn maintains the
	// per-list fusible counters the fuse pass keys off.
	fusion bool

	mu      sync.Mutex
	txns    []*txn.Transaction
	ndOps   []*txn.Operation
	numOps  int
	numLD   int
	multi   int // ops with >1 source key
	withSrc int // ops with >=1 source key

	// allKeyIDs lazily supplies the key universe for non-deterministic
	// fan-out (typically store.Table.KeyIDs).
	allKeyIDs func() []store.KeyID

	// childPos / parentPos are linkEdges scratch (count-then-offset
	// arrays), retained across Reset.
	childPos  []int32
	parentPos []int32

	// Pooled output buffers reclaimed by Recycle: the next Finalize reuses
	// their capacity for Graph.Ops, Graph.Chains (outer array) and the
	// shared edge backing arrays, so a steady-state engine allocates no
	// per-punctuation graph structure beyond the per-key chain slices.
	poolOps    []*txn.Operation
	poolChains [][]*txn.Operation
	poolChild  []*txn.Operation
	poolParent []*txn.Operation
}

// NewBuilderIDs returns an empty Builder. allKeyIDs supplies the key
// universe for non-deterministic operations as dense ids (typically
// store.Table.KeyIDs); it may be nil when the workload has none.
func NewBuilderIDs(allKeyIDs func() []store.KeyID) *Builder {
	return &Builder{allKeyIDs: allKeyIDs}
}

func (b *Builder) shardOf(id store.KeyID) *listShard {
	return &b.shards[uint32(id)%ListShards]
}

// SetFusion toggles plan-time same-key operation fusion for every batch the
// builder plans. Call it before adding transactions; it returns the builder
// for chaining. With fusion on, Finalize collapses runs of fusible same-key
// operations into single fused vertices (see txn.Operation.Fusible), so a
// hot-key batch plans a TPG orders of magnitude smaller.
func (b *Builder) SetFusion(on bool) *Builder {
	b.fusion = on
	return b
}

// clearCap zeroes a slice's full capacity region and truncates it to zero
// length, dropping the pointers a plain [:0] would retain.
func clearCap[T any](s []T) []T {
	s = s[:cap(s)]
	clear(s)
	return s[:0]
}

// Reset clears the builder for the next batch while retaining allocated
// capacity: the per-key lists and the Finalize scratch buffers are emptied,
// not freed, so a long-running engine constructs each punctuation's TPG
// with near-zero steady-state allocation. Outputs of the previous Finalize
// (the Graph, its Ops/Chains, and the operations' edge arrays) are fresh
// allocations and stay valid after Reset.
func (b *Builder) Reset() {
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.Lock()
		for id, l := range s.m {
			if len(l.entries) == 0 {
				// Cold for a full batch: evict, so builder memory tracks
				// the live working set rather than every key ever seen.
				delete(s.m, id)
			} else {
				l.entries = clearCap(l.entries)
				l.fusibles = 0
				l.sorted = false
			}
		}
		// The scratch buffers hold operation pointers of the previous
		// batch in their capacity regions; zero them so the batch's graph
		// is collectable once its consumers drop it.
		s.edges = clearCap(s.edges)
		s.writes = clearCap(s.writes)
		s.mu.Unlock()
	}
	b.mu.Lock()
	b.txns = nil // the previous Graph aliases the backing array
	b.ndOps = nil
	b.numOps, b.numLD, b.multi, b.withSrc = 0, 0, 0, 0
	b.mu.Unlock()
}

func (b *Builder) appendEntry(id store.KeyID, e entry) {
	s := b.shardOf(id)
	s.mu.Lock()
	l := s.m[id]
	if l == nil {
		if s.m == nil {
			s.m = make(map[store.KeyID]*keyList)
		}
		l = &keyList{}
		s.m[id] = l
	}
	l.entries = append(l.entries, e)
	if e.kind == real && b.fusion && e.op.Fusible() {
		l.fusibles++
	}
	s.mu.Unlock()
}

// AddTxn decomposes one state transaction into its operations and inserts
// them into the per-key lists (stream processing phase). Safe for concurrent
// use.
func (b *Builder) AddTxn(t *txn.Transaction) {
	multi, withSrc := 0, 0
	var nds []*txn.Operation
	for _, op := range t.Ops {
		op.SetState(txn.BLK)
		op.FusedInto = nil // re-planning the same transactions starts clean
		if len(op.SrcIDs) > 1 {
			multi++
		}
		if len(op.SrcIDs) > 0 {
			withSrc++
		}
		if op.IsND() {
			// Fan-out is deferred to Finalize so that lists created by
			// later arrivals are covered too.
			nds = append(nds, op)
			continue
		}
		b.appendEntry(op.KeyID, entry{op: op, kind: real})
		for _, src := range op.SrcIDs {
			if src == op.KeyID && op.Window == 0 {
				// Self-sourced write (e.g. balance = f(balance)): the TD
				// chain already orders it after the previous write.
				continue
			}
			b.appendEntry(src, entry{op: op, kind: vo, window: op.Window})
		}
	}
	b.mu.Lock()
	b.txns = append(b.txns, t)
	b.numOps += len(t.Ops)
	if n := len(t.Ops); n > 1 {
		b.numLD += n - 1
	}
	b.multi += multi
	b.withSrc += withSrc
	b.ndOps = append(b.ndOps, nds...)
	b.mu.Unlock()
}

// AddTxns adds a slice of transactions using the given number of workers;
// it models the parallel stream processing phase.
func (b *Builder) AddTxns(txns []*txn.Transaction, workers int) {
	if workers <= 1 || len(txns) < 2 {
		for _, t := range txns {
			b.AddTxn(t)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (len(txns) + workers - 1) / workers
	for lo := 0; lo < len(txns); lo += chunk {
		hi := lo + chunk
		if hi > len(txns) {
			hi = len(txns)
		}
		wg.Add(1)
		go func(part []*txn.Transaction) {
			defer wg.Done()
			for _, t := range part {
				b.AddTxn(t)
			}
		}(txns[lo:hi])
	}
	wg.Wait()
}

// Graph is the constructed TPG for one batch: vertices are operations, edges
// are the TD/PD dependencies (LDs stay implicit in the transactions).
type Graph struct {
	Txns []*txn.Transaction
	// Ops are all operations of the batch; op.Index is its position here.
	Ops []*txn.Operation
	// Chains groups the real operations of each key in timestamp order;
	// the scheduler uses them as coarse-grained scheduling units.
	Chains [][]*txn.Operation
	// KeySpan is one past the highest KeyID referenced by the batch
	// (targets and sources). The executor partitions [0, KeySpan) into
	// contiguous per-shard ranges; keys interned after planning (ND
	// writes) clamp into the last range.
	KeySpan store.KeyID
	Props   Props

	// NDOps are the batch's non-deterministic operations. Their target
	// keys are unknown at plan time (an ND write may even create a fresh
	// key mid-batch), so the engine's durability commit hook walks them at
	// the punctuation quiescent point — txn.Operation.WrittenID names the
	// key each committed ND write resolved to — to complete the batch's
	// dirty set beyond what the per-key lists knew.
	NDOps []*txn.Operation

	// childBuf/parentBuf are the shared edge backing arrays produced by
	// linkEdges; Recycle reclaims them for the next Finalize.
	childBuf, parentBuf []*txn.Operation
}

// Props are the TPG properties feeding the decision model (paper Table 2).
type Props struct {
	NumTxns int
	NumOps  int
	NumLD   int
	NumTD   int
	NumPD   int
	// NumND / NumWindow count special operations.
	NumND     int
	NumWindow int
	// FusedOps counts the fused vertices planned this batch; FusedAway
	// counts the constituent operations they replaced, so the graph holds
	// NumOps - FusedAway + FusedOps vertices.
	FusedOps  int
	FusedAway int
	// DegreeSkew is max key-list length over mean length: 1 for perfectly
	// uniform access, large for hot keys (θ in the paper).
	DegreeSkew float64
	// MultiAccessRatio approximates r: the share of operations computing
	// from more than one source state.
	MultiAccessRatio float64
}

// AppendDirtyKeys appends the id of every key the batch under construction
// touches — the keys with at least one per-key-list entry, i.e. every
// operation target and every parametric source — and returns the extended
// slice. The durability layer uses it as the batch's dirty set: the WAL
// commit sweep visits only these chains instead of the whole table. The set
// is a superset of the keys actually written (read-only targets and sources
// are included; the sweep's timestamp filter drops them), and it misses
// only keys resolved at execution time by ND operations, which the engine
// harvests separately from Graph.NDOps.
//
// Call it after the batch's transactions are added and before Finalize: the
// ND fan-out inserts a virtual entry into every known key list, which would
// inflate the dirty set back to the whole key universe.
func (b *Builder) AppendDirtyKeys(dst []store.KeyID) []store.KeyID {
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.Lock()
		for id, l := range s.m {
			// A reused builder keeps empty lists of earlier batches; only
			// lists touched this batch are dirty.
			if len(l.entries) > 0 {
				dst = append(dst, id)
			}
		}
		s.mu.Unlock()
	}
	return dst
}

// Finalize sorts the key lists and derives TD and PD edges (transaction
// processing phase), returning the completed graph. workers bounds the
// parallelism of per-shard edge derivation.
func (b *Builder) Finalize(workers int) *Graph {
	// Non-deterministic fan-out: a pessimistic virtual operation of every
	// ND op goes into every known key list (paper Section 4.4). The
	// universe also feeds KeySpan below: an ND access resolves to any of
	// these keys at execution time, so the executor's (and the aligned
	// state table's) KeyID-range shard map must cover them — otherwise
	// every ND-resolved key would clamp into the last shard. Keys the ND
	// write *creates* mid-batch are interned after planning and still
	// clamp; the table grows its last shard race-clean for exactly them.
	var ndSpan store.KeyID
	if len(b.ndOps) > 0 {
		universe := map[store.KeyID]struct{}{}
		if b.allKeyIDs != nil {
			for _, id := range b.allKeyIDs() {
				universe[id] = struct{}{}
			}
		}
		for i := range b.shards {
			s := &b.shards[i]
			s.mu.Lock()
			for id, l := range s.m {
				// Only lists touched this batch: a reused builder keeps
				// empty lists of earlier batches, which are not part of
				// the current key universe.
				if len(l.entries) > 0 {
					universe[id] = struct{}{}
				}
			}
			s.mu.Unlock()
		}
		for id := range universe {
			if id != store.NoKeyID && id+1 > ndSpan {
				ndSpan = id + 1
			}
			for _, op := range b.ndOps {
				b.appendEntry(id, entry{op: op, kind: ndvo})
			}
		}
	}

	// Fuse pass: with fusion on, collapse runs of fusible same-key
	// operations into fused vertices before the graph is assembled. Runs
	// after the ND fan-out so ndvo entries (which chain bidirectionally)
	// are visible as run breakers.
	var fusedOps []*txn.Operation
	var fusedAway int
	if b.fusion {
		fusedOps, fusedAway = b.fuseShards(workers)
	}

	g := &Graph{Txns: b.txns, NDOps: b.ndOps}
	g.Props.NumTxns = len(b.txns)
	g.Props.NumOps = b.numOps
	g.Props.NumLD = b.numLD
	g.Props.FusedOps = len(fusedOps)
	g.Props.FusedAway = fusedAway
	if b.numOps > 0 {
		g.Props.MultiAccessRatio = float64(b.multi) / float64(b.numOps)
	}
	if cap(b.poolOps) >= b.numOps {
		g.Ops = b.poolOps[:0]
	} else {
		g.Ops = make([]*txn.Operation, 0, b.numOps)
	}
	b.poolOps = nil
	for _, t := range b.txns {
		for _, op := range t.Ops {
			if op.KeyID != store.NoKeyID && op.KeyID >= g.KeySpan {
				g.KeySpan = op.KeyID + 1
			}
			for _, src := range op.SrcIDs {
				if src >= g.KeySpan {
					g.KeySpan = src + 1
				}
			}
			switch op.Kind {
			case txn.OpNDRead, txn.OpNDWrite:
				g.Props.NumND++
			case txn.OpWindowRead, txn.OpWindowWrite:
				g.Props.NumWindow++
			}
			if op.FusedInto != nil {
				// Constituent of a fused vertex: excluded from the graph;
				// Index -1 fails fast if anything indexes it.
				op.Index = -1
				continue
			}
			op.Index = int32(len(g.Ops))
			g.Ops = append(g.Ops, op)
		}
	}
	if len(fusedOps) > 0 {
		// Deterministic graph layout: fused vertices in (ts, id) order
		// regardless of shard iteration order.
		slices.SortFunc(fusedOps, txn.CompareOps)
		for _, op := range fusedOps {
			op.Index = int32(len(g.Ops))
			g.Ops = append(g.Ops, op)
		}
	}
	if ndSpan > g.KeySpan {
		g.KeySpan = ndSpan
	}

	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	results := make([]shardStats, ListShards)
	sem := make(chan struct{}, workers)
	for i := range b.shards {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			results[i] = b.deriveShard(&b.shards[i])
			<-sem
		}(i)
	}
	wg.Wait()

	var maxList, totList, nLists, numEdges int
	for _, r := range results {
		g.Props.NumTD += r.td
		g.Props.NumPD += r.pd
		if r.maxList > maxList {
			maxList = r.maxList
		}
		totList += r.totList
		nLists += r.nLists
	}
	for i := range b.shards {
		numEdges += len(b.shards[i].edges)
	}
	if nLists > 0 && totList > 0 {
		g.Props.DegreeSkew = float64(maxList) / (float64(totList) / float64(nLists))
	} else {
		g.Props.DegreeSkew = 1
	}

	b.linkEdges(g, numEdges)

	// Coarse-grained chains: the real operations per key, in timestamp
	// order; ND ops form singleton chains of their own.
	if cap(b.poolChains) > 0 {
		g.Chains = b.poolChains[:0]
		b.poolChains = nil
	}
	for i := range b.shards {
		s := &b.shards[i]
		for _, l := range s.m {
			var chain []*txn.Operation
			for _, e := range l.entries {
				if e.kind == real {
					chain = append(chain, e.op)
				}
			}
			if len(chain) > 0 {
				g.Chains = append(g.Chains, chain)
			}
		}
	}
	for _, op := range b.ndOps {
		g.Chains = append(g.Chains, []*txn.Operation{op})
	}
	return g
}

type shardStats struct {
	td, pd           int
	maxList, totList int
	nLists           int
}

// fuseRun records one detected run: the entry index of its first member and
// the fused vertex replacing it during compaction.
type fuseRun struct {
	first int
	op    *txn.Operation
}

// MaxFuseRun caps the fan of one fused vertex. Aborts redo a fused vertex
// wholesale — every fan transaction resets — so an unbounded fan would turn
// one forced violation on a hot key into a batch-wide redo storm. Chunking
// runs at this size bounds the blast radius while keeping the planner-side
// reduction within a few percent of unbounded fusion.
const MaxFuseRun = 32

// fuseShards runs the fuse pass over every list shard in parallel and
// returns the fused vertices plus the number of constituents they absorbed.
func (b *Builder) fuseShards(workers int) ([]*txn.Operation, int) {
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	results := make([][]*txn.Operation, ListShards)
	sem := make(chan struct{}, workers)
	for i := range b.shards {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			results[i] = fuseShard(&b.shards[i])
			<-sem
		}(i)
	}
	wg.Wait()
	var fused []*txn.Operation
	away := 0
	for _, r := range results {
		for _, op := range r {
			away += len(op.Fan)
		}
		fused = append(fused, r...)
	}
	return fused, away
}

// fuseShard scans each candidate key list of one shard for runs of fusible
// operations in strictly increasing timestamp order and compacts each run
// into a single fused vertex placed at its first member's slot.
//
// Run breakers: ndvo entries (they chain bidirectionally, so fusing across
// one could cycle), non-fusible writes (window or cross-key parametric — the
// value chain must flow through them), and equal timestamps (a same-ts write
// reads strictly below its own timestamp and replaces its sibling's version,
// so chaining would feed it the wrong input). Plain reads and vo source
// placeholders do NOT break runs: execution installs every constituent's
// version, and those accesses are timestamp-addressed.
func fuseShard(s *listShard) []*txn.Operation {
	var out []*txn.Operation
	var members []int
	var runs []fuseRun
	var fan []*txn.Operation
	for _, l := range s.m {
		if l.fusibles < 2 || len(l.entries) == 0 {
			continue
		}
		entries := l.entries
		slices.SortStableFunc(entries, entryBefore)
		l.sorted = true
		runs = runs[:0]
		members = members[:0]
		var lastTS uint64
		closeRun := func() {
			if len(members) >= 2 {
				fan = fan[:0]
				for _, i := range members {
					fan = append(fan, entries[i].op)
				}
				runs = append(runs, fuseRun{first: members[0], op: txn.NewFused(fan)})
			}
			members = members[:0]
		}
		for i := range entries {
			e := &entries[i]
			switch e.kind {
			case ndvo:
				closeRun()
			case vo:
				// timestamp-addressed source placeholder; not a breaker
			case real:
				switch {
				case e.op.Fusible():
					if len(members) > 0 && e.op.TS() <= lastTS {
						closeRun()
					}
					if len(members) == MaxFuseRun {
						closeRun()
					}
					members = append(members, i)
					lastTS = e.op.TS()
				case e.op.IsWrite():
					closeRun()
				default:
					// plain read; timestamp-addressed, not a breaker
				}
			}
		}
		closeRun()
		if len(runs) == 0 {
			continue
		}
		kept := entries[:0]
		ri := 0
		for i, e := range entries {
			if ri < len(runs) && i == runs[ri].first {
				kept = append(kept, entry{op: runs[ri].op, kind: real})
				ri++
				continue
			}
			if e.kind == real && e.op.FusedInto != nil {
				continue // non-leading constituent: absorbed by its vertex
			}
			kept = append(kept, e)
		}
		// Zero the truncated tail so dropped entries release their ops.
		for i := len(kept); i < len(entries); i++ {
			entries[i] = entry{}
		}
		l.entries = kept
		for _, r := range runs {
			out = append(out, r.op)
		}
	}
	return out
}

// edgePair is one "child depends on parent" dependency.
type edgePair struct {
	p, c *txn.Operation
}

// grownPos returns a zeroed int32 scratch array of length n, reusing buf.
func grownPos(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// linkEdges materialises every operation's parent/child lists from the
// per-shard edge buffers: a counting pass sizes two shared backing arrays
// exactly, a fill pass places each edge, and a final pass sorts and
// deduplicates per operation. Lock-free and allocation-exact, unlike the
// txn.AddEdge path (which remains for runtime edge bridging during aborts).
// The edge buffers and position arrays are builder scratch; the backing
// arrays the operations end up pointing into are fresh per batch.
func (b *Builder) linkEdges(g *Graph, numEdges int) {
	nOps := len(g.Ops)
	// Count, then convert to running start offsets in place.
	b.childPos = grownPos(b.childPos, nOps)
	b.parentPos = grownPos(b.parentPos, nOps)
	childPos, parentPos := b.childPos, b.parentPos
	for si := range b.shards {
		for _, e := range b.shards[si].edges {
			childPos[e.p.Index]++
			parentPos[e.c.Index]++
		}
	}
	var co, po int32
	for i := 0; i < nOps; i++ {
		co, childPos[i] = co+childPos[i], co
		po, parentPos[i] = po+parentPos[i], po
	}
	childBuf := grownEdgeBuf(b.poolChild, numEdges)
	parentBuf := grownEdgeBuf(b.poolParent, numEdges)
	b.poolChild, b.poolParent = nil, nil
	for si := range b.shards {
		for _, e := range b.shards[si].edges {
			pi, ci := e.p.Index, e.c.Index
			childBuf[childPos[pi]] = e.c
			childPos[pi]++
			parentBuf[parentPos[ci]] = e.p
			parentPos[ci]++
		}
	}
	// After the fill, childPos[i]/parentPos[i] hold the end of region i;
	// region i starts where region i-1 ends.
	co, po = 0, 0
	for _, op := range g.Ops {
		i := op.Index
		op.SetEdges(parentBuf[po:parentPos[i]:parentPos[i]], childBuf[co:childPos[i]:childPos[i]])
		co, po = childPos[i], parentPos[i]
		op.DedupEdges()
	}
	g.childBuf, g.parentBuf = childBuf, parentBuf
}

// grownEdgeBuf returns an edge backing array of length n, reusing a pooled
// buffer when its capacity suffices (Recycle cleared its contents).
func grownEdgeBuf(pool []*txn.Operation, n int) []*txn.Operation {
	if cap(pool) >= n {
		return pool[:n]
	}
	return make([]*txn.Operation, n)
}

// Recycle returns a Graph previously produced by this builder's Finalize to
// the output pool: the next Finalize reuses the Ops slice, the Chains outer
// array and the edge backing arrays instead of reallocating them. The caller
// must guarantee the graph — and the operations' parent/child slices, which
// point into the pooled edge arrays — is no longer referenced; the engine
// calls it during per-punctuation cleanup after post-processing.
func (b *Builder) Recycle(g *Graph) {
	if g == nil {
		return
	}
	b.mu.Lock()
	b.poolOps = clearCap(g.Ops)
	b.poolChains = clearCap(g.Chains)
	b.poolChild = clearCap(g.childBuf)
	b.poolParent = clearCap(g.parentBuf)
	b.mu.Unlock()
	g.Txns, g.Ops, g.Chains, g.childBuf, g.parentBuf = nil, nil, nil, nil, nil
	g.NDOps = nil
}

// entryBefore orders key-list entries by the operations' (ts, id) order.
func entryBefore(a, b entry) int { return txn.CompareOps(a.op, b.op) }

// searchWrites returns the index of the first write with ts >= t.
func searchWrites(writes []writeAt, t uint64) int {
	i, j := 0, len(writes)
	for i < j {
		h := (i + j) / 2
		if writes[h].ts < t {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// writeAt is one real write in a key list, for PD derivation. A fused
// vertex contributes one writeAt per constituent, each carrying the
// constituent's timestamp and owning transaction (owner drives the window
// same-transaction exclusion) while op points at the vertex that is
// actually in the graph.
type writeAt struct {
	ts    uint64
	op    *txn.Operation
	owner *txn.Transaction
}

// deriveShard sorts every list of one shard and derives its TD/PD edges
// into the shard's edge buffer. Lists left empty by Reset are skipped.
func (b *Builder) deriveShard(s *listShard) shardStats {
	var st shardStats
	s.edges = s.edges[:0]
	// writes retains (ts, op) of every real write of the current list; the
	// buffer is reused across the shard's lists.
	writes := s.writes
	defer func() { s.writes = writes[:0] }()
	for _, l := range s.m {
		entries := l.entries
		if len(entries) == 0 {
			continue
		}
		if !l.sorted {
			slices.SortStableFunc(entries, entryBefore)
		}
		st.nLists++
		st.totList += len(entries)
		if len(entries) > st.maxList {
			st.maxList = len(entries)
		}

		var lastChain *txn.Operation // last TD-chain participant (real or ndvo)
		writes = writes[:0]

		for _, e := range entries {
			switch e.kind {
			case real, ndvo:
				if lastChain != nil && lastChain != e.op {
					s.edges = append(s.edges, edgePair{p: lastChain, c: e.op})
					if lastChain.Txn != e.op.Txn {
						st.td++
					}
				}
				lastChain = e.op
				if e.op.IsWrite() && e.kind == real {
					if fan := e.op.Fan; fan != nil {
						for _, c := range fan {
							writes = append(writes, writeAt{c.TS(), e.op, c.Txn})
						}
					} else {
						writes = append(writes, writeAt{e.op.TS(), e.op, e.op.Txn})
					}
				}
			case vo:
				if e.window > 0 {
					// A window source depends on every write inside
					// [ts-window, ts): any of them aborting must redo the
					// window operation.
					lo := uint64(0)
					if e.op.TS() > e.window {
						lo = e.op.TS() - e.window
					}
					for i := searchWrites(writes, lo); i < len(writes) && writes[i].ts < e.op.TS(); i++ {
						if writes[i].owner != e.op.Txn {
							s.edges = append(s.edges, edgePair{p: writes[i].op, c: e.op})
							st.pd++
						}
					}
				} else if i := searchWrites(writes, e.op.TS()); i > 0 {
					// Latest write strictly below the vo's timestamp; writes
					// of the same transaction share its timestamp, so they
					// are naturally excluded.
					s.edges = append(s.edges, edgePair{p: writes[i-1].op, c: e.op})
					st.pd++
				}
			}
		}
	}
	return st
}

// String summarises the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("tpg.Graph{txns: %d, ops: %d, TD: %d, PD: %d, LD: %d}",
		g.Props.NumTxns, g.Props.NumOps, g.Props.NumTD, g.Props.NumPD, g.Props.NumLD)
}
