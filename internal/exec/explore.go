package exec

import (
	"runtime"
	"sync"
	"sync/atomic"

	"morphstream/internal/metrics"
	"morphstream/internal/sched"
	"morphstream/internal/txn"
)

// runBFS is structured exploration with breadth-first traversal (paper
// Section 5.1 A): threads concurrently process the units of one stratum and
// synchronise on a barrier before advancing. Under e-abort, failures are
// handled at the stratum boundary ("layered fashion", Section 5.3) and
// execution restarts from the outermost stratum containing reset work.
func (ex *executor) runBFS() {
	r := 0
	for r < len(ex.strata) {
		stratum := ex.strata[r]
		if stratumSettled(stratum) {
			r++
			continue
		}
		ex.parallelStratum(stratum)

		if ex.cfg.Decision.Abort == sched.EAbort {
			failed := ex.takeFailed()
			if len(failed) > 0 {
				// The stratum barrier already joined every worker, so the
				// world is quiescent without a fence.
				ex.abortMu.Lock()
				sw := metrics.Start()
				ex.flushResults()
				ex.handleAborts(failed)
				sw.Stop(ex.cfg.Breakdown, metrics.Abort)
				ex.abortMu.Unlock()
				// Restart from the outermost stratum with unsettled work.
				r = ex.lowestUnsettledRank()
				if r < 0 {
					return
				}
				continue
			}
		}
		r++
	}
}

func stratumSettled(stratum []*sched.Unit) bool {
	for _, u := range stratum {
		if !u.Done() {
			return false
		}
	}
	return true
}

func (ex *executor) lowestUnsettledRank() int {
	for r, stratum := range ex.strata {
		if !stratumSettled(stratum) {
			return r
		}
	}
	return -1
}

// parallelStratum fans the units of one stratum out to the executor
// threads via an atomic index, then waits on the barrier and merges the
// workers' breakdown scratch into the shared counters.
func (ex *executor) parallelStratum(stratum []*sched.Unit) {
	threads := ex.cfg.Threads
	if threads > len(stratum) {
		threads = len(stratum)
	}
	if threads <= 1 {
		sc := &ex.scratches[0]
		for _, u := range stratum {
			ex.runUnitOps(u, sc)
		}
		ex.mergeBreakdowns()
		return
	}
	var idx atomic.Int64
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			sc := &ex.scratches[t]
			for {
				i := int(idx.Add(1)) - 1
				if i >= len(stratum) {
					return
				}
				ex.runUnitOps(stratum[i], sc)
			}
		}(t)
	}
	sw := metrics.Start()
	wg.Wait()
	sw.Stop(ex.cfg.Breakdown, metrics.Sync)
	ex.mergeBreakdowns()
}

// runUnitOps executes every unsettled operation of a unit in (ts, id)
// order, outside the epoch protocol: BFS mutates scheduling state only at
// stratum barriers, so no fence coordination is needed while a stratum
// runs.
func (ex *executor) runUnitOps(u *sched.Unit, sc *scratch) {
	for _, op := range u.Ops {
		if settledOp(op) {
			continue
		}
		var sw metrics.Stopwatch
		if ex.timed {
			sw = metrics.Start()
		}
		ex.runOp(op, sc) // failures are recorded; BFS drains them at barriers
		if ex.timed {
			sw.StopLocal(&sc.bd, metrics.Useful)
		}
	}
}

// runStatus reports the outcome of an epoch-guarded execution attempt.
type runStatus int8

const (
	// runDone: the operation executed (or was already settled).
	runDone runStatus = iota
	// runNotReady: dependencies are unresolved; revisit later (DFS).
	runNotReady
	// runAbandon: an abort round rebuilt the runtime state; the caller
	// must abandon its current unit (ns-explore re-queues it).
	runAbandon
)

// epochRun executes one operation inside the execution epoch. myEpoch >= 0
// enables stale-unit abandonment (ns-explore). Edge lists may be rewritten
// by the abort handler, so the dependency check happens inside the epoch
// too; the abort handler can only run while no worker is inside.
func (ex *executor) epochRun(op *txn.Operation, myEpoch int64, wid int) runStatus {
	sc := &ex.scratches[wid]
	ex.enterExec(wid)
	if myEpoch >= 0 && ex.epoch.Load() != myEpoch {
		ex.exitExec(wid)
		return runAbandon
	}
	if settledOp(op) {
		ex.exitExec(wid)
		return runDone
	}
	if !parentsSettled(op) {
		ex.exitExec(wid)
		if myEpoch >= 0 {
			return runAbandon
		}
		return runNotReady
	}
	var sw metrics.Stopwatch
	if ex.timed {
		sw = metrics.Start()
	}
	ok := ex.runOp(op, sc)
	if ex.timed {
		sw.StopLocal(&sc.bd, metrics.Useful)
	}
	ex.exitExec(wid)
	if !ok && ex.cfg.Decision.Abort == sched.EAbort {
		ex.eagerAbort()
	}
	return runDone
}

// eagerAbort is the coordinator path of e-abort under non-structured and
// DFS exploration: the detecting thread drains the failure set and performs
// rollback while all other threads are held out by the epoch fence. The
// drain happens under the fence too, so a worker inside the epoch never
// sees the failure set emptied before the rollback it implies has reset
// the affected operations (dfsFinished would otherwise let it exit with
// work about to reappear in its chunk). Reports whether a rollback ran. The
// caller must not be inside the epoch.
func (ex *executor) eagerAbort() bool {
	ex.abortMu.Lock()
	defer ex.abortMu.Unlock()
	ex.failedMu.Lock()
	pending := len(ex.failed) > 0
	ex.failedMu.Unlock()
	if pending {
		ex.quiesce(func() {
			sw := metrics.Start()
			ex.flushResults()
			ex.handleAborts(ex.takeFailed())
			sw.Stop(ex.cfg.Breakdown, metrics.Abort)
		})
	}
	return pending
}

// runDFS is structured exploration with depth-first traversal (paper
// Section 5.1 B): units are pre-assigned round-robin; each thread advances
// through its own units, waiting per-operation until dependencies resolve
// (speculative scheduling, T3: an operation may be picked while formally
// BLK and waits for its dependency versions instead of a stratum barrier).
func (ex *executor) runDFS() {
	threads := ex.cfg.Threads
	if threads > len(ex.units) {
		threads = len(ex.units)
	}
	if threads < 1 {
		threads = 1
	}
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			ex.dfsWorker(t, threads)
		}(t)
	}
	wg.Wait()
}

func (ex *executor) dfsWorker(id, threads int) {
	sc := &ex.scratches[id]
	// Each worker owns a contiguous chunk of the shard-ordered unit list,
	// so its repeated scan walks whole shard runs (shard-local cache lines)
	// instead of striding across every shard. Chunks are disjoint and cover
	// all units: every operation still has exactly one owner.
	lo := id * len(ex.shardOrder) / threads
	hi := (id + 1) * len(ex.shardOrder) / threads
	for {
		progressed := false
		for _, u := range ex.shardOrder[lo:hi] {
			for _, op := range u.Ops {
				if settledOp(op) {
					continue
				}
				if ex.epochRun(op, -1, id) == runDone {
					progressed = true
				}
			}
		}
		// Worker 0 doubles as the eager-abort coordinator so failures do
		// not linger while other threads spin.
		if id == 0 && ex.cfg.Decision.Abort == sched.EAbort && ex.eagerAbort() {
			progressed = true
		}
		if ex.dfsFinished(id) {
			return
		}
		if !progressed {
			var sw metrics.Stopwatch
			if ex.timed {
				sw = metrics.Start()
			}
			runtime.Gosched()
			if ex.timed {
				sw.StopLocal(&sc.bd, metrics.Explore)
			}
		}
	}
}

// dfsFinished checks, inside the epoch, that every unit is settled and —
// under e-abort — that no failure is pending (a pending failure may reset
// settled units).
func (ex *executor) dfsFinished(wid int) bool {
	ex.enterExec(wid)
	defer ex.exitExec(wid)
	for _, u := range ex.units {
		if !u.Done() {
			return false
		}
	}
	if ex.cfg.Decision.Abort == sched.EAbort {
		ex.failedMu.Lock()
		pending := len(ex.failed) > 0
		ex.failedMu.Unlock()
		return !pending
	}
	return true
}

// runNS is non-structured exploration (paper Section 5.1): per-shard ready
// rings hold units whose dependencies are resolved; finishing a unit
// signals its dependents by pushing them onto their home shard's ring.
// Workers drain their home ring first and steal from neighbours only when
// it runs dry, maximising available parallelism while keeping the hot loop
// on shard-local cache lines.
func (ex *executor) runNS() {
	// No worker is running yet (first call) or all have joined (resume
	// after a lazy abort round), so seeding needs no fence.
	ex.rebuild() // seeds the rings, computes pending and settled counts

	threads := ex.cfg.Threads
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			ex.nsWorker(t, t%len(ex.shards))
		}(t)
	}
	wg.Wait()
}

// nsSpinLimit bounds the empty-ring spin of an ns-explore worker before it
// parks on its home shard's lot: wide strata never reach it, narrow strata
// (fewer ready units than workers) stop burning CPU after a short grace
// period instead of Gosched-spinning until the batch ends.
const nsSpinLimit = 128

// nsNext claims the next ready unit: home ring first, then a steal sweep
// over the other shards. Claims (pop plus epoch read) happen inside one
// epoch section, so a concurrent abort rebuild either ran entirely before
// the claim — and the epoch tag is current — or is fenced out until the
// claim returns; this covers steals from any victim shard too. ok=false
// means the batch is complete.
func (ex *executor) nsNext(wid, home int) (u *sched.Unit, myEpoch int64, ok bool) {
	sc := &ex.scratches[wid]
	var sw metrics.Stopwatch
	if ex.timed {
		sw = metrics.Start()
	}
	defer func() {
		if ex.timed {
			sw.StopLocal(&sc.bd, metrics.Explore)
		}
	}()
	spins := 0
	for {
		ex.enterExec(wid)
		if u := ex.shards[home].ring.tryPop(); u != nil {
			e := ex.epoch.Load()
			ex.exitExec(wid)
			return u, e, true
		}
		for d := 1; d < len(ex.shards); d++ {
			if u := ex.shards[(home+d)%len(ex.shards)].ring.tryPop(); u != nil {
				ex.steals.Add(1)
				e := ex.epoch.Load()
				ex.exitExec(wid)
				return u, e, true
			}
		}
		done := ex.nsDone.v.Load() != 0
		ex.exitExec(wid)
		if done {
			return nil, 0, false
		}
		if spins++; spins < nsSpinLimit {
			runtime.Gosched()
			continue
		}
		spins = 0
		ex.parkAt(home)
	}
}

func (ex *executor) nsWorker(wid, home int) {
	for {
		u, myEpoch, ok := ex.nsNext(wid, home)
		if !ok {
			return
		}
		abandoned := false
		for _, op := range u.Ops {
			if settledOp(op) {
				continue
			}
			if ex.epochRun(op, myEpoch, wid) == runAbandon {
				abandoned = true
				break
			}
		}
		if abandoned {
			continue
		}
		// Propagate completion inside the epoch so an abort rebuild cannot
		// interleave with pending-count decrements; children go to their
		// own home shard's ring (the only cross-shard write on this path).
		finished := false
		ex.enterExec(wid)
		if ex.epoch.Load() == myEpoch {
			if ex.completeUnit(u) {
				for _, c := range u.Children() {
					if c.Pending.Add(-1) == 0 && !ex.completed[c.ID].Load() &&
						c.Claimed.CompareAndSwap(false, true) {
						cs := int(ex.homeOf[c.ID])
						ex.shards[cs].ring.push(c)
						ex.wakeShard(cs)
					}
				}
			}
			if ex.settled.Load() == int64(len(ex.units)) {
				ex.nsDone.v.Store(1)
				finished = true
			}
		}
		ex.exitExec(wid)
		if finished {
			ex.wakeAll()
		}
	}
}
