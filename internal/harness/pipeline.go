package harness

import (
	"context"
	"fmt"
	"time"

	"morphstream/internal/engine"
	"morphstream/internal/txn"
	"morphstream/internal/wal"
	"morphstream/internal/workload"
)

// This file drives canonical workload streams through the engine: the
// specEngineOp/preloadEngine adapters MorphSystem runs every figure on, and
// whole-stream runs over the batch-synchronous facade and the pipelined
// Start/Ingest/Drain lifecycle (with and without the punctuation-delta
// WAL), which bench_test.go's pipelined benchmarks time.

// specEngineOp adapts a canonical workload spec stream to the engine's
// three-step operator model (event payload = workload.TxnSpec).
func specEngineOp() engine.Operator {
	return engine.OperatorFuncs{
		Pre: func(ev *engine.Event) (*txn.EventBlotter, error) {
			eb := txn.NewEventBlotter()
			eb.Params["spec"] = ev.Data.(workload.TxnSpec)
			return eb, nil
		},
		Access: func(eb *txn.EventBlotter, b *txn.Builder) error {
			eb.Params["spec"].(workload.TxnSpec).Issue(b)
			return nil
		},
	}
}

func preloadEngine(e *engine.Engine, b *workload.Batch) {
	for k, v := range b.State {
		e.Table().Preload(k, v)
	}
}

// RunSynchronousBaseline drives the stream through Submit/Punctuate and
// reports committed transactions and wall time.
func RunSynchronousBaseline(b *workload.Batch, batchSize, threads int) (committed int, elapsed time.Duration) {
	e := engine.New(engine.Config{Threads: threads, Cleanup: true})
	preloadEngine(e, b)
	op := specEngineOp()
	start := time.Now()
	for i, s := range b.Specs {
		_ = e.Submit(op, &engine.Event{Data: s})
		if (i+1)%batchSize == 0 || i == len(b.Specs)-1 {
			r := e.Punctuate()
			committed += r.Committed
		}
	}
	return committed, time.Since(start)
}

// RunPipelined drives the stream through Start/Ingest/Drain/Close with a
// count-punctuation policy and reports committed transactions, wall time,
// and the full pipeline counters. Extra engine options (e.g.
// engine.WithTelemetry for the instrumentation-overhead benchmark) append
// after the punctuation policy.
func RunPipelined(b *workload.Batch, batchSize, threads int, opts ...engine.Option) (committed int, elapsed time.Duration, stats engine.PipelineStats) {
	e := engine.New(engine.Config{Threads: threads, Cleanup: true},
		append([]engine.Option{engine.WithPunctuationCount(batchSize)}, opts...)...)
	preloadEngine(e, b)
	if err := e.Start(context.Background()); err != nil {
		panic(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := range e.Results() {
			committed += r.Committed
		}
	}()
	op := specEngineOp()
	start := time.Now()
	for _, s := range b.Specs {
		_ = e.Ingest(op, &engine.Event{Data: s})
	}
	if err := e.Close(); err != nil {
		panic(err)
	}
	<-done
	return committed, time.Since(start), e.PipelineStats()
}

// RunPipelinedDurable is RunPipelined with the punctuation-delta WAL on: a
// file-backed sink under dir, the given fsync policy, and the default
// snapshot stride. It additionally reports how many delivered batches were
// durable.
func RunPipelinedDurable(b *workload.Batch, batchSize, threads int, dir string, sync wal.SyncPolicy) (committed int, elapsed time.Duration, stats engine.PipelineStats) {
	e := engine.New(engine.Config{Threads: threads, Cleanup: true,
		Durability: &engine.Durability{Dir: dir, Sync: sync}},
		engine.WithPunctuationCount(batchSize))
	preloadEngine(e, b)
	if err := e.Start(context.Background()); err != nil {
		panic(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for r := range e.Results() {
			committed += r.Committed
			if !r.Durable {
				panic(fmt.Sprintf("batch %d not durable", r.Seq))
			}
		}
	}()
	op := specEngineOp()
	start := time.Now()
	for _, s := range b.Specs {
		_ = e.Ingest(op, &engine.Event{Data: s})
	}
	if err := e.Close(); err != nil {
		panic(err)
	}
	<-done
	return committed, time.Since(start), e.PipelineStats()
}
