// Package harness runs the paper's experiments: it adapts MorphStream to
// the common baseline.System interface, sweeps workload parameters, and
// renders each figure/table of the evaluation section (Section 8) as a
// textual report. One runner exists per figure; cmd/morphbench exposes
// them on the command line and bench_test.go wraps them in testing.B.
package harness

import (
	"fmt"
	"strings"
	"time"

	"morphstream/internal/baseline"
	"morphstream/internal/engine"
	"morphstream/internal/metrics"
	"morphstream/internal/sched"
	"morphstream/internal/workload"
)

// MorphSystem adapts the MorphStream engine to the baseline.System
// interface so it can be benchmarked side by side: every Run is one
// punctuation through engine.Engine's Submit/Punctuate facade. One engine
// serves every Run at a given thread count, so the decision model's
// cross-batch profile (abort ratio, measured UDF complexity) carries from
// batch to batch as in a long-running stream.
type MorphSystem struct {
	// Config configures the engine: Strategy pins a scheduling decision
	// (nil enables the adaptive decision model), GroupStrategies pins
	// per-group decisions (nested scheduling) and Cleanup truncates the
	// multi-version table after every punctuation. Run sets Threads and
	// GroupFn (each spec's Group); set Config before the first Run.
	Config engine.Config
	// Label overrides the reported name.
	Label string

	eng          *engine.Engine
	threads      int
	lastDecision sched.Decision
}

// NewMorph returns the adaptive MorphStream system with clean-up on.
func NewMorph() *MorphSystem {
	return &MorphSystem{Config: engine.Config{Cleanup: true}}
}

// NewMorphPinned returns MorphStream locked to one scheduling decision.
func NewMorphPinned(d sched.Decision, label string) *MorphSystem {
	return &MorphSystem{Config: engine.Config{Strategy: &d, Cleanup: true}, Label: label}
}

// Name implements baseline.System.
func (m *MorphSystem) Name() string {
	if m.Label != "" {
		return m.Label
	}
	if m.Config.Strategy != nil {
		return "MorphStream(" + m.Config.Strategy.String() + ")"
	}
	return "MorphStream"
}

// LastDecision reports the decision taken for the most recent batch (the
// lowest-numbered group's, when the batch has several).
func (m *MorphSystem) LastDecision() sched.Decision { return m.lastDecision }

// Run implements baseline.System: it preloads the batch's initial state,
// submits every transaction and punctuates once, so planning, the
// scheduling decision and execution all happen inside the engine.
func (m *MorphSystem) Run(b *workload.Batch, threads int, bd *metrics.Breakdown) baseline.Result {
	if threads < 1 {
		threads = 1
	}
	if m.eng == nil || m.threads != threads {
		cfg := m.Config
		cfg.Threads = threads
		cfg.GroupFn = func(data any) int { return data.(workload.TxnSpec).Group }
		m.eng, m.threads = engine.New(cfg), threads
	}
	e := m.eng
	preloadEngine(e, b)
	categories := metrics.Categories()
	before := make([]time.Duration, len(categories))
	for i, c := range categories {
		before[i] = e.Breakdown.Get(c)
	}

	op := specEngineOp()
	for _, s := range b.Specs {
		_ = e.Submit(op, &engine.Event{Data: s})
	}
	br := e.Punctuate()

	for i, c := range categories {
		bd.Add(c, e.Breakdown.Get(c)-before[i])
	}
	lowest := -1
	for id, d := range br.Decisions {
		if lowest < 0 || id < lowest {
			lowest, m.lastDecision = id, d
		}
	}
	res := baseline.Result{Committed: br.Committed, Aborted: br.Aborted, Attempts: 1}
	snap := e.Table().Snapshot()
	res.FinalState = make(map[workload.Key]int64, len(snap))
	for k, v := range snap {
		res.FinalState[k] = v.(int64)
	}
	return res
}

// Report is one figure/table rendered as rows of labelled cells.
type Report struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
			} else {
				sb.WriteString(c + "  ")
			}
		}
		sb.WriteString("\n")
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// timedRun measures one batch execution end to end.
func timedRun(sys baseline.System, b *workload.Batch, threads int, bd *metrics.Breakdown) (baseline.Result, time.Duration) {
	start := time.Now()
	res := sys.Run(b, threads, bd)
	return res, time.Since(start)
}

// warmup runs each system once on a small batch so allocator growth and
// code warm-up do not pollute the first measured row of a sweep.
func warmup(systems []baseline.System, threads int) {
	cfg := workload.Config{Txns: 256, StateSize: 64, Seed: 1, ComplexityUS: 0}
	b := workload.GS(cfg)
	for _, sys := range systems {
		sys.Run(b, threads, nil)
	}
}

// kps formats a throughput in k events/sec.
func kps(events int, elapsed time.Duration) string {
	return fmt.Sprintf("%.2f", metrics.Throughput(events, elapsed))
}
