package harness

import (
	"fmt"
	"time"

	"morphstream/internal/engine"
	"morphstream/internal/metrics"
	"morphstream/internal/tpg"
	"morphstream/internal/workload"
)

// This file benchmarks plan-time hot-key operation fusion under Zipf skew:
// the HK workload hammers a small hot set of keys, so without fusion the
// planner builds per-key dependency chains with one vertex per write. With
// fusion the same batches plan dramatically smaller TPGs, and the report
// quantifies both the planner-side reduction and the end-to-end effect on
// throughput and per-event latency percentiles.

// zipfWorkload builds the hot-key batch of the fusion experiments: receipt
// deposits with a small transfer mix, concentrated on a Zipf-distributed
// hot set.
func zipfWorkload(scale Scale, theta float64) *workload.Batch {
	return workload.HK(workload.Config{
		Txns:           scale.txns(40960),
		StateSize:      scale.states(4096),
		Theta:          theta,
		Length:         2,
		MultiRatio:     0.05,
		HotSetFraction: 0.25,
		Seed:           7,
	})
}

// RunZipf drives one HK batch through the engine with fusion off or on and
// reports committed transactions, wall time, the merged TPG properties, and
// the exact p50/p95/p99 per-event latencies, each measured from the event's
// Submit (its Arrival stamp) to the return of its batch's Punctuate.
func RunZipf(b *workload.Batch, batchSize, threads int, fusion bool) (committed int, elapsed time.Duration, props tpg.Props, pcts []time.Duration) {
	e := engine.New(engine.Config{Threads: threads, Cleanup: true},
		engine.WithFusion(fusion))
	preloadEngine(e, b)
	op := specEngineOp()
	lat := metrics.NewLatencyRecorder()
	var pending []*engine.Event
	start := time.Now()
	for i, s := range b.Specs {
		ev := &engine.Event{Data: s}
		_ = e.Submit(op, ev)
		pending = append(pending, ev)
		if (i+1)%batchSize == 0 || i == len(b.Specs)-1 {
			r := e.Punctuate()
			done := time.Now()
			for _, ev := range pending {
				lat.Record(done.Sub(ev.Arrival))
			}
			pending = pending[:0]
			committed += r.Committed
			props.NumOps += r.Props.NumOps
			props.FusedOps += r.Props.FusedOps
			props.FusedAway += r.Props.FusedAway
		}
	}
	elapsed = time.Since(start)
	pcts = lat.Percentiles(50, 95, 99)
	return committed, elapsed, props, pcts
}

// ZipfHotKey sweeps the Zipf skew factor with fusion off and on, reporting
// planned TPG vertex counts alongside throughput and latency percentiles.
func ZipfHotKey(scale Scale, threads int) *Report {
	r := &Report{
		Title:  "Zipf hot-key skew: plan-time operation fusion",
		Header: []string{"theta", "fusion", "events", "committed", "elapsed", "thr(k/s)", "tpg-nodes", "fused-away", "p50", "p95", "p99"},
	}
	batchSize := scale.txns(4096)
	for _, theta := range []float64{0.6, 0.9, 1.2} {
		b := zipfWorkload(scale, theta)
		for _, fusion := range []bool{false, true} {
			committed, elapsed, props, pcts := RunZipf(b, batchSize, threads, fusion)
			nodes := props.NumOps - props.FusedAway + props.FusedOps
			r.Rows = append(r.Rows, []string{
				fmt.Sprintf("%.1f", theta), fmt.Sprint(fusion),
				fmt.Sprint(len(b.Specs)), fmt.Sprint(committed),
				elapsed.Round(time.Millisecond).String(), kps(len(b.Specs), elapsed),
				fmt.Sprint(nodes), fmt.Sprint(props.FusedAway),
				pcts[0].Round(time.Microsecond).String(),
				pcts[1].Round(time.Microsecond).String(),
				pcts[2].Round(time.Microsecond).String(),
			})
		}
	}
	r.Notes = append(r.Notes,
		"tpg-nodes is the number of operation vertices actually planned (fused runs count once); fused-away is how many write operations were absorbed into fused vertices",
		"paper shape: higher skew means longer same-key runs, so the fusion-on node count shrinks and throughput grows with theta while fusion-off degrades",
		fmt.Sprintf("punctuation: every %d events; HK mix: Length=2 receipt deposits, 5%% transfers, hot set = 25%% of keys, no forced violations", batchSize),
		"fusion targets abort-light read-modify-write streams: an abort inside a fan redoes the vertex suffix and resets those constituents' transactions, so forced-abort-heavy workloads can lose the gain (MaxFuseRun bounds the blast radius)",
	)
	return r
}
