// Package metrics provides the measurement instruments behind the paper's
// evaluation section: the six-way execution-time breakdown of Fig. 16a,
// end-to-end latency distributions (CDFs of Fig. 12b/13b), throughput
// accounting, and a heap/memory-footprint sampler (Fig. 16b/17b).
package metrics

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Category labels one bucket of the execution-time breakdown
// (paper Section 8.3.1).
type Category int

const (
	// Useful: accessing shared mutable state and running UDFs.
	Useful Category = iota
	// Sync: blocking on barriers and mode switches.
	Sync
	// Lock: waiting to insert/acquire locks (baselines).
	Lock
	// Construct: building auxiliary structures (TPG, operation chains).
	Construct
	// Explore: finding ready operations to process.
	Explore
	// Abort: wasted computation from aborts and redos.
	Abort
	numCategories
)

// String names the category as the paper's Fig. 16a does.
func (c Category) String() string {
	switch c {
	case Useful:
		return "Useful"
	case Sync:
		return "Sync"
	case Lock:
		return "Lock"
	case Construct:
		return "Construct"
	case Explore:
		return "Explore"
	case Abort:
		return "Abort"
	}
	return "?"
}

// Categories lists all breakdown buckets in display order.
func Categories() []Category {
	return []Category{Useful, Sync, Lock, Construct, Explore, Abort}
}

// Breakdown accumulates nanoseconds per category. All methods tolerate a
// nil receiver so instrumentation can be compiled in unconditionally and
// enabled per run.
type Breakdown struct {
	buckets [numCategories]atomic.Int64
}

// Add accumulates d into category c.
func (b *Breakdown) Add(c Category, d time.Duration) {
	if b == nil {
		return
	}
	b.buckets[c].Add(int64(d))
}

// Get returns the accumulated duration of category c.
func (b *Breakdown) Get(c Category) time.Duration {
	if b == nil {
		return 0
	}
	return time.Duration(b.buckets[c].Load())
}

// Total sums all categories.
func (b *Breakdown) Total() time.Duration {
	if b == nil {
		return 0
	}
	var t time.Duration
	for c := Category(0); c < numCategories; c++ {
		t += b.Get(c)
	}
	return t
}

// Reset zeroes all buckets.
func (b *Breakdown) Reset() {
	if b == nil {
		return
	}
	for c := range b.buckets {
		b.buckets[c].Store(0)
	}
}

// String renders the breakdown in display order.
func (b *Breakdown) String() string {
	if b == nil {
		return "Breakdown(nil)"
	}
	s := "Breakdown{"
	for i, c := range Categories() {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s: %v", c, b.Get(c))
	}
	return s + "}"
}

// Local is a per-worker breakdown scratchpad: plain (non-atomic) counters a
// single worker accumulates into during its hot loop, merged into the shared
// Breakdown at stratum boundaries or at the end of a batch. It keeps the
// ns-scale execution path free of shared-cacheline atomics.
type Local struct {
	buckets [numCategories]int64
}

// Add accumulates d into category c. Not safe for concurrent use; each
// worker owns its Local exclusively.
func (l *Local) Add(c Category, d time.Duration) {
	l.buckets[c] += int64(d)
}

// FlushTo merges the accumulated counters into b (which may be nil) and
// zeroes the scratchpad.
func (l *Local) FlushTo(b *Breakdown) {
	for c := range l.buckets {
		if v := l.buckets[c]; v != 0 {
			if b != nil {
				b.buckets[c].Add(v)
			}
			l.buckets[c] = 0
		}
	}
}

// Stopwatch measures one interval for a Breakdown bucket.
type Stopwatch struct{ start time.Time }

// Start begins a measurement.
func Start() Stopwatch { return Stopwatch{start: time.Now()} }

// Stop accumulates the elapsed time into b's category c; b may be nil.
func (s Stopwatch) Stop(b *Breakdown, c Category) {
	if b != nil {
		b.Add(c, time.Since(s.start))
	}
}

// StopLocal accumulates the elapsed time into a worker-local scratchpad.
func (s Stopwatch) StopLocal(l *Local, c Category) {
	l.Add(c, time.Since(s.start))
}

// OverlapMeter measures how much of the pipelined engine's wall-clock time
// the planning stage and the execution stage spend running simultaneously —
// the benefit of plan-while-execute punctuation overlap. Each stage flips
// its busy bit at burst granularity (a run of planned events, one batch
// execution), so the meter costs two mutexed transitions per burst and
// nothing on the per-event hot path.
type OverlapMeter struct {
	// bits mirrors (planBusy | execBusy<<1) so an unchanged transition —
	// the planner re-asserting "busy" on every event of a burst — is one
	// atomic load, never the mutex.
	bits     atomic.Uint32
	mu       sync.Mutex
	started  bool
	planBusy bool
	execBusy bool
	epoch    time.Time // first transition; wall-clock origin
	since    time.Time // last transition
	stats    OverlapStats
}

// OverlapStats is one reading of an OverlapMeter.
type OverlapStats struct {
	// PlanBusy is the total time the planning stage was busy.
	PlanBusy time.Duration
	// ExecBusy is the total time the execution stage was busy.
	ExecBusy time.Duration
	// Overlap is the time both stages were busy simultaneously; it is the
	// wall-clock time a batch-synchronous front door would have added.
	Overlap time.Duration
	// Wall is the wall-clock span from the first transition to the reading.
	Wall time.Duration
}

// Ratio reports the overlap share of execution time — the fraction of
// execution during which planning ran concurrently (0 when execution never
// ran). This is the single "pipelining worked" number the harness tables
// and the telemetry /statusz snapshot both derive from.
func (s OverlapStats) Ratio() float64 {
	if s.ExecBusy <= 0 {
		return 0
	}
	return float64(s.Overlap) / float64(s.ExecBusy)
}

// SetPlan marks the planning stage busy or idle. No-op when unchanged.
func (m *OverlapMeter) SetPlan(busy bool) {
	if m == nil || busyBit(m.bits.Load()&1) == busy {
		return
	}
	m.transition(0, busy)
}

// SetExec marks the execution stage busy or idle. No-op when unchanged.
func (m *OverlapMeter) SetExec(busy bool) {
	if m == nil || busyBit(m.bits.Load()&2) == busy {
		return
	}
	m.transition(1, busy)
}

func busyBit(v uint32) bool { return v != 0 }

func (m *OverlapMeter) transition(stage uint, busy bool) {
	m.mu.Lock()
	bit := &m.planBusy
	if stage == 1 {
		bit = &m.execBusy
	}
	if *bit != busy {
		m.advance(time.Now())
		*bit = busy
		if busy {
			m.bits.Or(1 << stage)
		} else {
			m.bits.And(^uint32(1 << stage))
		}
	}
	m.mu.Unlock()
}

// advance accrues the interval since the last transition under m.mu.
func (m *OverlapMeter) advance(now time.Time) {
	if !m.started {
		m.started = true
		m.epoch = now
		m.since = now
		return
	}
	dt := now.Sub(m.since)
	m.since = now
	if m.planBusy {
		m.stats.PlanBusy += dt
	}
	if m.execBusy {
		m.stats.ExecBusy += dt
	}
	if m.planBusy && m.execBusy {
		m.stats.Overlap += dt
	}
}

// Stats returns the accumulated reading, including any in-progress busy
// interval up to now.
func (m *OverlapMeter) Stats() OverlapStats {
	if m == nil {
		return OverlapStats{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	m.advance(now)
	s := m.stats
	if m.started {
		s.Wall = now.Sub(m.epoch)
	}
	return s
}

// Reset zeroes the meter.
func (m *OverlapMeter) Reset() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.started, m.planBusy, m.execBusy = false, false, false
	m.bits.Store(0)
	m.epoch, m.since = time.Time{}, time.Time{}
	m.stats = OverlapStats{}
	m.mu.Unlock()
}

// LatencyRecorder keeps every latency sample and reports exact percentiles:
// the experiment harness's measuring tool (latency tables, CDF points of
// Fig. 12b/13b). It grows without bound, so long-running engines record
// into a bounded telemetry histogram instead (engine.Engine.Latency).
type LatencyRecorder struct {
	mu      sync.Mutex
	samples []time.Duration
}

// NewLatencyRecorder returns an empty recorder.
func NewLatencyRecorder() *LatencyRecorder { return &LatencyRecorder{} }

// Record appends one latency sample; safe for concurrent use.
func (l *LatencyRecorder) Record(d time.Duration) {
	l.mu.Lock()
	l.samples = append(l.samples, d)
	l.mu.Unlock()
}

// RecordN appends the same latency for n events (batch completion). The
// backing array grows once, so a large batch completion holds the mutex for
// one allocation instead of O(n) incremental appends.
func (l *LatencyRecorder) RecordN(d time.Duration, n int) {
	if n <= 0 {
		return
	}
	l.mu.Lock()
	l.samples = slices.Grow(l.samples, n)
	for i := 0; i < n; i++ {
		l.samples = append(l.samples, d)
	}
	l.mu.Unlock()
}

// Count returns the number of samples.
func (l *LatencyRecorder) Count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.samples)
}

// percentileIndex maps percentile p onto an index of a sorted sample slice
// of length n > 0, clamping p outside [0, 100] (and NaN) into the valid
// sample range instead of indexing out of bounds.
func percentileIndex(p float64, n int) int {
	if !(p > 0) { // p <= 0, or NaN
		return 0
	}
	if p > 100 {
		p = 100
	}
	return int(p / 100 * float64(n-1))
}

// Percentile returns the p-th percentile latency; p is clamped to [0, 100].
func (l *LatencyRecorder) Percentile(p float64) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.samples) == 0 {
		return 0
	}
	s := make([]time.Duration, len(l.samples))
	copy(s, l.samples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[percentileIndex(p, len(s))]
}

// Percentiles returns the latencies at each requested percentile (each p
// clamped to [0, 100]), sorting the samples once — the bulk-read counterpart
// of Percentile for reports that need several quantiles of a large recording.
func (l *LatencyRecorder) Percentiles(ps ...float64) []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]time.Duration, len(ps))
	if len(l.samples) == 0 {
		return out
	}
	s := make([]time.Duration, len(l.samples))
	copy(s, l.samples)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	for i, p := range ps {
		out[i] = s[percentileIndex(p, len(s))]
	}
	return out
}

// MemSampler periodically samples heap usage and table version counts; it
// backs the memory-footprint figures.
type MemSampler struct {
	mu      sync.Mutex
	samples []MemSample
	stop    chan struct{}
	done    chan struct{}
}

// MemSample is one point of the footprint curve.
type MemSample struct {
	Elapsed   time.Duration
	HeapBytes uint64
}

// StartMemSampler begins sampling every interval until Stop is called.
func StartMemSampler(interval time.Duration) *MemSampler {
	m := &MemSampler{stop: make(chan struct{}), done: make(chan struct{})}
	start := time.Now()
	go func() {
		defer close(m.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				m.mu.Lock()
				m.samples = append(m.samples, MemSample{
					Elapsed:   time.Since(start),
					HeapBytes: ms.HeapAlloc,
				})
				m.mu.Unlock()
			}
		}
	}()
	return m
}

// Stop ends sampling and returns the collected curve.
func (m *MemSampler) Stop() []MemSample {
	close(m.stop)
	<-m.done
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.samples
}

// Throughput converts an event count and elapsed time into k events/sec,
// the unit of every throughput figure in the paper.
func Throughput(events int, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(events) / elapsed.Seconds() / 1000
}

// CPUTicksProxy reports process CPU time and allocation statistics: the
// substitute for the paper's VTune micro-architectural counters (Fig. 21a).
type CPUTicksProxy struct {
	AllocBytes uint64
	Mallocs    uint64
	GCCycles   uint32
	PauseTotal time.Duration
}

// ReadCPUTicksProxy samples the runtime counters.
func ReadCPUTicksProxy() CPUTicksProxy {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return CPUTicksProxy{
		AllocBytes: ms.TotalAlloc,
		Mallocs:    ms.Mallocs,
		GCCycles:   ms.NumGC,
		PauseTotal: time.Duration(ms.PauseTotalNs),
	}
}

// Delta subtracts an earlier sample.
func (c CPUTicksProxy) Delta(earlier CPUTicksProxy) CPUTicksProxy {
	return CPUTicksProxy{
		AllocBytes: c.AllocBytes - earlier.AllocBytes,
		Mallocs:    c.Mallocs - earlier.Mallocs,
		GCCycles:   c.GCCycles - earlier.GCCycles,
		PauseTotal: c.PauseTotal - earlier.PauseTotal,
	}
}
