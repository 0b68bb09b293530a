package exec

import (
	"sync"

	"morphstream/internal/sched"
	"morphstream/internal/store"
	"morphstream/internal/tpg"
)

// The executor is sharded by contiguous KeyID range: scheduling units are
// homed on the shard owning their first operation's key, and each shard owns
// its own bounded MPMC ready ring, its own slice of the unit table, and its
// own parking lot, so a worker's ns-explore hot loop touches only
// shard-local cache lines. Workers are pinned to a home shard (worker id
// modulo shard count) and steal from neighbouring shards only when their
// local ring drains. The steal path pops the victim's ring from inside the
// thief's execution epoch, so the PR 2 fence/quiesce protocol covers aborts
// during steals without any new locks: an abort coordinator fences every
// worker — thieves included — before rebuilding any ring. Cross-shard TPG
// edges need no locking either: under ns-explore the completing worker
// pushes the child onto the child shard's ring from inside the epoch; under
// structured exploration cross-shard edges resolve at stratum boundaries,
// where quiescence is already guaranteed by the barrier.

// nextPow2 returns the smallest power of two >= n (minimum 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NumShards resolves the effective shard count of a run: an explicit
// configuration wins, otherwise the smallest power of two covering the
// worker count. The engine uses it to align the state table's KeyID-range
// shards to the executor's before a batch runs.
func NumShards(cfgShards, threads int) int {
	if cfgShards > 0 {
		return cfgShards
	}
	if threads < 1 {
		threads = 1
	}
	return nextPow2(threads)
}

// AlignTable aligns the state table's KeyID-range shards to the shard map
// the executors of the given graphs will use: NumShards(cfgShards, threads)
// contiguous ranges over the widest graph's KeySpan (with several groups the
// table spans the widest group's key range; each group's executor still maps
// its own KeySpan, and alignment affects only locality, never correctness).
// Must be called at a quiescent point — no executor running against t — as
// the engine's and harness's per-punctuation call sites are by construction.
func AlignTable(t *store.Table, cfgShards, threads int, graphs ...*tpg.Graph) {
	span := store.KeyID(0)
	for _, g := range graphs {
		if g != nil && g.KeySpan > span {
			span = g.KeySpan
		}
	}
	t.Align(NumShards(cfgShards, threads), span)
}

// shardMap partitions the dense KeyID space [0, span) into num contiguous
// ranges of near-equal width. Mapping is a multiply-divide, not a modulo, so
// neighbouring keys — which the planner's chains and the workload generators
// keep adjacent — land on the same shard.
type shardMap struct {
	num  int
	span uint64
}

func newShardMap(num int, span store.KeyID) shardMap {
	if num < 1 {
		num = 1
	}
	s := uint64(span)
	if s == 0 {
		s = 1
	}
	return shardMap{num: num, span: s}
}

// of maps a KeyID to its shard. Keys interned after planning (ND writes
// create keys at execution time) clamp into the last range.
func (m shardMap) of(id store.KeyID) int {
	x := uint64(id)
	if x >= m.span {
		x = m.span - 1
	}
	return int(x * uint64(m.num) / m.span)
}

// parkLot is one shard's sleep site for the adaptive spin-then-park of
// ns-explore: a worker whose spin budget expires parks here until a push
// into a ring makes new work visible. All ring-state reads inside the
// waiters' predicate are atomics, so holding mu only orders parkers against
// wakers, never against the lock-free hot path.
type parkLot struct {
	mu      sync.Mutex
	cond    sync.Cond
	waiters int
}

// execShard is the per-shard execution state.
type execShard struct {
	// ring is the shard's bounded MPMC ready ring (the PR 2 workQueue).
	// Capacity is the number of units homed here: a unit enqueues at most
	// once per execution epoch (Unit.Claimed) and only onto its home ring,
	// so the ring never wraps.
	ring *workQueue
	// units are the scheduling units homed on this shard, in BuildUnits
	// order; DFS workers scan whole-shard runs of them.
	units []*sched.Unit
	lot   parkLot
	_     [cacheLineSize]byte
}

// setupShards partitions the batch's units across numShards KeyID ranges.
// Runs once per Run, before any worker starts.
func (ex *executor) setupShards() {
	n := NumShards(ex.cfg.Shards, ex.cfg.Threads)
	ex.smap = newShardMap(n, ex.g.KeySpan)
	n = ex.smap.num
	ex.shards = make([]execShard, n)
	ex.homeOf = make([]int32, len(ex.units))
	for i, u := range ex.units {
		s := ex.shardOfUnit(u)
		ex.homeOf[i] = int32(s)
		ex.shards[s].units = append(ex.shards[s].units, u)
	}
	ex.shardOrder = make([]*sched.Unit, 0, len(ex.units))
	// Nil registry, nil histogram: RecordW below is then a no-op.
	occupancy := ex.cfg.Telemetry.Histogram("morph_exec_shard_units",
		"Scheduling units homed per shard per batch (ready-ring depth at batch start).")
	for s := range ex.shards {
		sh := &ex.shards[s]
		sh.ring = newWorkQueue(len(sh.units))
		sh.lot.cond.L = &sh.lot.mu
		ex.shardOrder = append(ex.shardOrder, sh.units...)
		occupancy.RecordW(s, int64(len(sh.units)))
	}
}

// shardOfUnit homes a unit on the shard of its first keyed operation; units
// with only unresolved keys (ND singletons) spread round-robin by ID.
func (ex *executor) shardOfUnit(u *sched.Unit) int {
	for _, op := range u.Ops {
		if op.KeyID != store.NoKeyID {
			return ex.smap.of(op.KeyID)
		}
	}
	return u.ID % ex.smap.num
}

// hasVisibleWork reports whether a parked worker has any reason to wake:
// the batch finished, or some shard's ring holds a claimable unit. Reads
// only atomics; called under the parker's lot mutex.
func (ex *executor) hasVisibleWork() bool {
	if ex.nsDone.v.Load() != 0 {
		return true
	}
	for i := range ex.shards {
		q := ex.shards[i].ring
		if q.head.v.Load() < q.tail.v.Load() {
			return true
		}
	}
	return false
}

// parkAt blocks the worker on its home shard's lot until work becomes
// visible. The caller must be outside the execution epoch (parked workers
// count as quiescent, so abort fences never wait on them).
func (ex *executor) parkAt(home int) {
	lot := &ex.shards[home].lot
	lot.mu.Lock()
	if ex.hasVisibleWork() {
		lot.mu.Unlock()
		return
	}
	lot.waiters++
	ex.parked.Add(1)
	ex.parks.Add(1)
	for !ex.hasVisibleWork() {
		lot.cond.Wait()
	}
	lot.waiters--
	ex.parked.Add(-1)
	lot.mu.Unlock()
}

// wakeShard wakes workers parked on shard si after a push into its ring.
// When nobody is homed there (shard count can exceed worker count), any
// parked worker is woken instead so the pushed unit gets stolen. The
// parked fast path keeps the common no-sleeper case to one atomic load.
//
// No wake-up is ever lost: a push (atomic tail bump) is sequenced before
// this wake, and a parker re-checks every ring under its lot mutex after
// registering in parked — so either the parker sees the push and stays
// awake, or the waker sees the parker and broadcasts.
func (ex *executor) wakeShard(si int) {
	if ex.parked.Load() == 0 {
		return
	}
	for d := 0; d < len(ex.shards); d++ {
		lot := &ex.shards[(si+d)%len(ex.shards)].lot
		lot.mu.Lock()
		n := lot.waiters
		if n > 0 {
			lot.cond.Broadcast()
		}
		lot.mu.Unlock()
		if n > 0 {
			return
		}
	}
}

// wakeAll wakes every parked worker (batch completion, abort rebuild).
// The parked fast path is safe against a concurrently parking worker for
// the same reason wakeShard's is: a worker registers in parked before its
// final ring re-check, so missing it here means it will see the state this
// caller just published.
func (ex *executor) wakeAll() {
	if ex.parked.Load() == 0 {
		return
	}
	for i := range ex.shards {
		lot := &ex.shards[i].lot
		lot.mu.Lock()
		if lot.waiters > 0 {
			lot.cond.Broadcast()
		}
		lot.mu.Unlock()
	}
}
