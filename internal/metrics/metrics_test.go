package metrics

import (
	"slices"
	"sync"
	"testing"
	"time"
)

func TestBreakdownAccumulates(t *testing.T) {
	b := &Breakdown{}
	b.Add(Useful, 2*time.Millisecond)
	b.Add(Useful, 3*time.Millisecond)
	b.Add(Abort, time.Millisecond)
	if got := b.Get(Useful); got != 5*time.Millisecond {
		t.Fatalf("Useful = %v", got)
	}
	if got := b.Total(); got != 6*time.Millisecond {
		t.Fatalf("Total = %v", got)
	}
	b.Reset()
	if b.Total() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestBreakdownNilSafe(t *testing.T) {
	var b *Breakdown
	b.Add(Useful, time.Second) // must not panic
	if b.Get(Useful) != 0 || b.Total() != 0 {
		t.Fatal("nil breakdown returned non-zero")
	}
	b.Reset()
	if b.String() != "Breakdown(nil)" {
		t.Fatalf("String = %q", b.String())
	}
	Start().Stop(b, Useful)
}

func TestBreakdownConcurrent(t *testing.T) {
	b := &Breakdown{}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				b.Add(Sync, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := b.Get(Sync); got != 1600*time.Microsecond {
		t.Fatalf("Sync = %v; want 1.6ms", got)
	}
}

func TestCategoryStrings(t *testing.T) {
	want := []string{"Useful", "Sync", "Lock", "Construct", "Explore", "Abort"}
	for i, c := range Categories() {
		if c.String() != want[i] {
			t.Errorf("category %d = %q; want %q", i, c.String(), want[i])
		}
	}
	if Category(99).String() != "?" {
		t.Error("unknown category stringer")
	}
}

func TestLatencyPercentiles(t *testing.T) {
	l := NewLatencyRecorder()
	if l.Percentile(50) != 0 {
		t.Fatal("empty recorder percentile != 0")
	}
	for i := 1; i <= 100; i++ {
		l.Record(time.Duration(i) * time.Millisecond)
	}
	if got := l.Percentile(0); got != time.Millisecond {
		t.Fatalf("p0 = %v", got)
	}
	if got := l.Percentile(100); got != 100*time.Millisecond {
		t.Fatalf("p100 = %v", got)
	}
	p50 := l.Percentile(50)
	if p50 < 49*time.Millisecond || p50 > 51*time.Millisecond {
		t.Fatalf("p50 = %v", p50)
	}
	if l.Count() != 100 {
		t.Fatalf("count = %d", l.Count())
	}
	l.RecordN(time.Second, 5)
	if l.Count() != 105 {
		t.Fatalf("count after RecordN = %d", l.Count())
	}
}

// TestPercentileClamped pins the out-of-range fix: percentiles outside
// [0, 100] clamp to the extreme samples instead of indexing out of bounds,
// on both the single-quantile and the sort-once bulk paths, and the empty
// recorder stays zero for any p.
func TestPercentileClamped(t *testing.T) {
	empty := NewLatencyRecorder()
	for _, p := range []float64{-1, 0, 100, 110} {
		if got := empty.Percentile(p); got != 0 {
			t.Errorf("empty recorder p%v = %v; want 0", p, got)
		}
	}
	if got := empty.Percentiles(-1, 0, 100, 110); !slices.Equal(got, make([]time.Duration, 4)) {
		t.Errorf("empty recorder Percentiles = %v; want zeros", got)
	}

	l := NewLatencyRecorder()
	for i := 1; i <= 10; i++ {
		l.Record(time.Duration(i) * time.Millisecond)
	}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{-1, time.Millisecond},
		{0, time.Millisecond},
		{100, 10 * time.Millisecond},
		{110, 10 * time.Millisecond},
	}
	ps := make([]float64, 0, len(cases))
	for _, c := range cases {
		if got := l.Percentile(c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v; want %v", c.p, got, c.want)
		}
		ps = append(ps, c.p)
	}
	bulk := l.Percentiles(ps...)
	for i, c := range cases {
		if bulk[i] != c.want {
			t.Errorf("Percentiles(...)[%d] (p=%v) = %v; want %v", i, c.p, bulk[i], c.want)
		}
	}
}

// TestRecordNGrowsOnce checks RecordN's bulk fill: correct count and values,
// and non-positive n is a no-op.
func TestRecordNGrowsOnce(t *testing.T) {
	l := NewLatencyRecorder()
	l.RecordN(time.Second, 0)
	l.RecordN(time.Second, -3)
	if l.Count() != 0 {
		t.Fatalf("count after no-op RecordN = %d", l.Count())
	}
	l.Record(time.Millisecond)
	l.RecordN(2*time.Millisecond, 10000)
	if l.Count() != 10001 {
		t.Fatalf("count = %d; want 10001", l.Count())
	}
	if got := l.Percentile(100); got != 2*time.Millisecond {
		t.Fatalf("p100 = %v; want 2ms", got)
	}
	// The bulk append allocates at most once for the grow (plus the lock's
	// bookkeeping-free fast path): amortised allocs/op must be far below one
	// per recorded sample.
	allocs := testing.AllocsPerRun(10, func() {
		l.RecordN(time.Millisecond, 1000)
	})
	if allocs > 2 {
		t.Fatalf("RecordN(1000) allocates %.0f times per call; want <= 2 (grow once)", allocs)
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(10000, time.Second); got != 10 {
		t.Fatalf("Throughput = %v; want 10 k/sec", got)
	}
	if got := Throughput(100, 0); got != 0 {
		t.Fatalf("zero elapsed = %v", got)
	}
}

func TestMemSampler(t *testing.T) {
	m := StartMemSampler(time.Millisecond)
	time.Sleep(20 * time.Millisecond)
	samples := m.Stop()
	if len(samples) == 0 {
		t.Fatal("no samples collected")
	}
	for _, s := range samples {
		if s.HeapBytes == 0 {
			t.Fatal("zero heap sample")
		}
	}
}

func TestCPUTicksProxyDelta(t *testing.T) {
	before := ReadCPUTicksProxy()
	waste := make([][]byte, 0, 1000)
	for i := 0; i < 1000; i++ {
		waste = append(waste, make([]byte, 1024))
	}
	_ = waste
	after := ReadCPUTicksProxy()
	d := after.Delta(before)
	if d.AllocBytes < 1000*1024 {
		t.Fatalf("alloc delta = %d; want >= 1MB", d.AllocBytes)
	}
}

func TestOverlapMeter(t *testing.T) {
	var m OverlapMeter
	// plan alone, then both, then exec alone: overlap is the middle span.
	m.SetPlan(true)
	time.Sleep(5 * time.Millisecond)
	m.SetExec(true)
	time.Sleep(5 * time.Millisecond)
	m.SetPlan(false)
	time.Sleep(5 * time.Millisecond)
	m.SetExec(false)
	s := m.Stats()
	if s.PlanBusy <= 0 || s.ExecBusy <= 0 || s.Overlap <= 0 {
		t.Fatalf("stats = %+v; want all positive", s)
	}
	if s.Overlap > s.PlanBusy || s.Overlap > s.ExecBusy {
		t.Fatalf("overlap %v exceeds a stage's busy time (%+v)", s.Overlap, s)
	}
	if s.Wall < s.PlanBusy || s.Wall < s.ExecBusy {
		t.Fatalf("wall %v below a stage's busy time (%+v)", s.Wall, s)
	}
	// Idempotent transitions accrue nothing new while idle.
	before := m.Stats()
	m.SetPlan(false)
	m.SetExec(false)
	after := m.Stats()
	if after.PlanBusy != before.PlanBusy || after.ExecBusy != before.ExecBusy || after.Overlap != before.Overlap {
		t.Fatalf("idle transitions changed busy time: %+v -> %+v", before, after)
	}
	m.Reset()
	if s := m.Stats(); s.PlanBusy != 0 || s.Overlap != 0 {
		t.Fatalf("after Reset: %+v", s)
	}
	// Nil receivers are no-ops, like the Breakdown.
	var nilMeter *OverlapMeter
	nilMeter.SetPlan(true)
	nilMeter.SetExec(true)
	if s := nilMeter.Stats(); s != (OverlapStats{}) {
		t.Fatalf("nil meter stats = %+v", s)
	}
}
