package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"morphstream"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{1000, 99, true}, // 10 samples beyond p99; p99.9 would leave 1
		{999, 95, true},  // 9 beyond p99
		{100, 90, true},  // 10 beyond p90
		{99, 50, true},   // 9 beyond p90
		{19, 0, false},   // 9 beyond p50
	} {
		got, ok := highestSupported(c.n, 50, 90, 95, 99, 99.9)
		if got != c.want || ok != c.ok {
			t.Errorf("highestSupported(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	sorted := make([]float64, 1000)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if v, ok := percentile(sorted, 99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if _, ok := percentile(sorted[:500], 99); ok {
		t.Error("p99 of 500 samples reported as supported")
	}
}

func TestWindowedPercentileIsMedianOverWholeWindows(t *testing.T) {
	// Three windows of 1000 whose p99 (the 990th by nearest rank) are
	// 990, 10990 and 100990; the trailing partial window is ignored.
	var lat []float64
	for _, base := range []float64{0, 10000, 100000} {
		for i := 1000; i >= 1; i-- {
			lat = append(lat, base+float64(i))
		}
	}
	lat = append(lat, 1e9)
	v, n, ok := windowedPercentile(lat, 1000, 99)
	if !ok || n != 3 || v != 10990 {
		t.Errorf("windowed p99 = %v over %d windows (%v); want 10990 over 3", v, n, ok)
	}
	if _, _, ok := windowedPercentile(lat, 500, 99); ok {
		t.Error("windows of 500 reported as supporting p99")
	}
}

func TestStalledConsumerRaisesLaterLatency(t *testing.T) {
	const n = 10
	m := newLatencyMatcher(0, n, 1000, 1, 0, make([]float64, n)) // due every 1 ms
	start := time.Now()
	m.begin(start)
	// Events 0-4 complete 1 ms after they were due.
	for i := 0; i < 5; i++ {
		m.complete(1, m.due(i).Add(time.Millisecond))
	}
	// Then the consumer stalls: events 5-9 all complete 50 ms after event
	// 5 was due, however early they were sent.
	m.complete(5, m.due(5).Add(50*time.Millisecond))
	for i := 0; i < 5; i++ {
		if !near(m.lat[i], 1) {
			t.Errorf("event %d latency %.3f ms, want 1", i, m.lat[i])
		}
	}
	for i := 5; i < n; i++ {
		if want := float64(50 - (i - 5)); !near(m.lat[i], want) {
			t.Errorf("event %d latency %.3f ms, want %v (from its due time)", i, m.lat[i], want)
		}
	}
}

func TestResultsMatchDueTimesFIFO(t *testing.T) {
	// Three warm-up events precede a six-event open loop at 1000/s; each
	// result covers Events+Dropped consecutive stream events.
	m := newLatencyMatcher(3, 6, 1000, 1, 0, make([]float64, 6))
	start := time.Now()
	m.begin(start)
	results := []*morphstream.BatchResult{
		{Events: 2, Dropped: 1}, // warm-up 0-2: not open-loop
		{Events: 3, Dropped: 1}, // open-loop slots 0-3
		{Events: 2},             // open-loop slots 4-5
	}
	at := []time.Time{start, start.Add(10 * time.Millisecond), start.Add(20 * time.Millisecond)}
	for i, r := range results {
		m.complete(resultEvents(r), at[i])
	}
	want := []float64{10, 9, 8, 7, 16, 15} // completion - (start + slot ms)
	for i, w := range want {
		if !near(m.lat[i], w) {
			t.Errorf("slot %d latency %.3f ms, want %v", i, m.lat[i], w)
		}
	}
	// Interleaved connections share one schedule: connection 1 of 2 owns
	// the odd slots.
	lat := make([]float64, 4)
	c1 := newLatencyMatcher(0, 2, 1000, 2, 1, lat)
	c1.begin(start)
	c1.complete(1, start.Add(5*time.Millisecond))
	c1.complete(1, start.Add(5*time.Millisecond))
	if lat[0] != 0 || lat[2] != 0 || !near(lat[1], 4) || !near(lat[3], 2) {
		t.Errorf("connection 1 slots = %v, want [0 4 0 2]", lat)
	}
}

func TestBacklogProbe(t *testing.T) {
	sustained := &backlogProbe{n: 100}
	growing := &backlogProbe{n: 100}
	for k := 0; k < 100; k++ {
		sustained.observe(k, k%7*50) // drains back to 0 between batches
		growing.observe(k, k*40)
	}
	if sustained.grew(100) {
		t.Errorf("sustained backlog reported growing by %v", sustained.growth())
	}
	if !growing.grew(100) {
		t.Errorf("growing backlog not reported (growth %v)", growing.growth())
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "batch", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 30},
		{Name: "b", Parent: 0, Start: 20, End: 50},  // overlaps a
		{Name: "c", Parent: 0, Start: 90, End: 120}, // runs past the parent
		{Name: "a.1", Parent: 1, Start: 12, End: 18},
	}
	got := selfTimes(spans)
	// batch: 100 - |[10,50] ∪ [90,100]| = 50; a: 20 - 6.
	want := []int64{50, 14, 30, 30, 6}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

// TestMetricListsMatchBenchmarkJSON keeps spec.json, the end-to-end table
// and the repository's BENCHMARK.json naming the same metrics.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []layerSpec             `json:"end_to_end"`
		PerLayer  []layerSpec             `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []layerSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, BENCHMARK.json has %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d] = %+v, BENCHMARK.json has %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", spec.PerLayer, b.PerLayer)
	if len(b.Workloads) != len(spec.Workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, spec.json %d", len(b.Workloads), len(spec.Workloads))
	}
	for _, w := range b.Workloads {
		if spec.Workloads[w.Name] == nil {
			t.Errorf("workload %q missing from spec.json", w.Name)
		}
	}
}

func near(got, want float64) bool { return math.Abs(got-want) < 1e-6 }
