// Command perfbench is the engine's benchmark: it runs one workload — the
// in-process GrepSum engine core (gs-inproc), the large-state ledger with the
// WAL on (ledger-wal), or the ledger served by a morphserve child process
// over loopback TCP (ledger-rpc) — checks every outcome against a serial
// oracle, and prints its metrics, the last stdout line being one JSON object.
//
//	perfbench --workload gs-inproc --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics: a fixed-rate open-loop phase
// (latency) then a backpressured flood (throughput, CPU, allocations).
// --trace 1 is the separate traced run giving the per-layer metrics. Usually
// started through perfbench/run.py, which builds this program and morphserve
// from the checkout first. Workload parameters live in spec.json.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

//go:embed spec.json
var specJSON []byte

type wlSpec struct {
	Kind        string  `json:"kind"`
	StateSize   int     `json:"state_size"`
	Theta       float64 `json:"theta"`
	AbortShare  float64 `json:"abort_share"`
	Balance     int64   `json:"balance"`
	AmountMax   int64   `json:"amount_max"`
	Threads     int     `json:"threads"`
	Punctuation struct {
		Count      int     `json:"count"`
		IntervalMS float64 `json:"interval_ms"`
	} `json:"punctuation"`
	RatePerS     float64 `json:"rate_per_s"`
	Connections  int     `json:"connections"`
	Window       int     `json:"window"`
	WindowEvents int     `json:"window_events"`
	WarmupEvents int     `json:"warmup_events"`
	SetupRepeats int     `json:"setup_repeats"`
	WAL          *struct {
		SnapshotEvery int `json:"snapshot_every"`
		MaxDiffs      int `json:"max_diffs"`
	} `json:"wal"`
}

type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type specFile struct {
	Seeds struct {
		Default int64 `json:"default"`
	} `json:"seeds"`
	Phases struct {
		OpenLoopShare float64 `json:"open_loop_share"`
		FloodShare    float64 `json:"flood_share"`
	} `json:"phases"`
	Workloads map[string]*wlSpec `json:"workloads"`
	PerLayer  []layerSpec        `json:"per_layer"`
}

func loadSpec() (*specFile, error) {
	var s specFile
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return nil, fmt.Errorf("spec.json: %w", err)
	}
	return &s, nil
}

// endToEnd lists the end-to-end metrics and their units, as BENCHMARK.json
// declares them.
var endToEnd = []layerSpec{
	{"events_per_s", "1/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"cpu_us_per_event", "us", "lower"},
	{"allocs_per_event", "count", "lower"},
	{"rss_peak_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// runArgs is one invocation.
type runArgs struct {
	spec     *specFile
	ws       *wlSpec
	name     string
	seed     int64
	seconds  float64
	workdir  string
	serveBin string
	// spansWritten is set once the traced run has started its span file.
	spansWritten bool
}

func (a *runArgs) floodDuration() time.Duration {
	return time.Duration(a.seconds * a.spec.Phases.FloodShare * float64(time.Second))
}

func (a *runArgs) openLoopEvents() int {
	return int(a.ws.RatePerS * a.seconds * a.spec.Phases.OpenLoopShare)
}

// report accumulates one run's outcome.
type report struct {
	correct           bool
	attempted, failed int64
	values            map[string]float64
	notes             []string
}

func newReport() *report { return &report{correct: true, values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail marks the run incorrect, counting n more failed events.
func (r *report) fail(n int64, format string, args ...any) {
	r.correct = false
	r.failed += n
	r.note("FAIL: "+format, args...)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable lines and then the JSON result line with
// exactly the metrics in want (those missing are left out, which a correct
// run never does).
func (r *report) print(want []layerSpec) {
	out := map[string]metricOut{}
	for _, n := range r.notes {
		fmt.Println("# " + n)
	}
	for _, m := range want {
		v, ok := r.values[m.Name]
		if !ok {
			fmt.Printf("%-34s (not reported)\n", m.Name)
			continue
		}
		fmt.Printf("%-34s %14.6g %s\n", m.Name, v, m.Unit)
		out[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{r.correct, r.attempted, r.failed, out})
	fmt.Println(string(line))
}

func main() {
	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	var (
		name     = flag.String("workload", "", "workload name (see spec.json)")
		seed     = flag.Int64("seed", spec.Seeds.Default, "workload seed")
		seconds  = flag.Float64("seconds", 10, "measured seconds")
		trace    = flag.Int("trace", 0, "1 = traced run (per-layer metrics)")
		workdir  = flag.String("workdir", ".bench_build/run", "scratch directory for WAL files and spans")
		serveBin = flag.String("morphserve", ".bench_build/morphserve", "morphserve binary (ledger-rpc)")
	)
	flag.Parse()
	ws, ok := spec.Workloads[*name]
	if !ok {
		names := make([]string, 0, len(spec.Workloads))
		for n := range spec.Workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fatal(fmt.Errorf("unknown workload %q (have %v)", *name, names))
	}
	dir := filepath.Join(*workdir, fmt.Sprintf("%s-%d", *name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	a := &runArgs{spec: spec, ws: ws, name: *name, seed: *seed, seconds: *seconds, workdir: dir, serveBin: *serveBin}

	var rep *report
	want := endToEnd
	switch {
	case *trace != 0:
		want = spec.PerLayer
		if ws.Connections > 0 {
			rep, err = traceRPC(a)
		} else {
			rep, err = traceInproc(a)
		}
	case ws.Connections > 0:
		rep, err = runRPC(a)
	default:
		rep, err = runInproc(a)
	}
	if err != nil {
		os.RemoveAll(dir)
		fatal(err)
	}
	rep.print(want)
	if !rep.correct {
		os.RemoveAll(dir)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}
