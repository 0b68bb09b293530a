package engine

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"morphstream/internal/sched"
	"morphstream/internal/txn"
)

// depositOp builds a deposit operator: data is [2]any{key, amount}.
func depositOp() Operator {
	return OperatorFuncs{
		Pre: func(ev *Event) (*txn.EventBlotter, error) {
			eb := txn.NewEventBlotter()
			d := ev.Data.([2]any)
			eb.Params["key"] = d[0]
			eb.Params["amount"] = d[1]
			return eb, nil
		},
		Access: func(eb *txn.EventBlotter, b *txn.Builder) error {
			k := eb.Params["key"].(txn.Key)
			amount := eb.Params["amount"].(int64)
			b.Write(k, []txn.Key{k}, func(_ *txn.Ctx, src []txn.Value) (txn.Value, error) {
				if amount < 0 {
					return nil, txn.ErrAbort
				}
				return src[0].(int64) + amount, nil
			})
			return nil
		},
	}
}

func TestEngineBasicBatch(t *testing.T) {
	e := New(Config{Threads: 2, Cleanup: true})
	e.Table().Preload("acct", int64(0))

	op := depositOp()
	for i := 0; i < 100; i++ {
		if err := e.Submit(op, &Event{Data: [2]any{txn.Key("acct"), int64(1)}}); err != nil {
			t.Fatal(err)
		}
	}
	res := e.Punctuate()
	if res.Committed != 100 || res.Aborted != 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.Events != 100 {
		t.Fatalf("events = %d; want 100", res.Events)
	}
	v, _ := e.Table().Latest("acct")
	if v.(int64) != 100 {
		t.Fatalf("acct = %v; want 100", v)
	}
	if e.Batches() != 1 {
		t.Fatalf("batches = %d", e.Batches())
	}
	// Cleanup truncates versions down to one per key.
	if n := e.Table().VersionCount("acct"); n != 1 {
		t.Fatalf("versions after cleanup = %d; want 1", n)
	}
}

// TestPunctuateAlignsTableToExecutorShards: every punctuation must leave the
// state table partitioned like the executor (exec.NumShards over the batch's
// KeySpan), so workers' state accesses stay inside shard-local table memory.
func TestPunctuateAlignsTableToExecutorShards(t *testing.T) {
	e := New(Config{Threads: 4, Shards: 8, Cleanup: true})
	for i := 0; i < 32; i++ {
		e.Table().Preload(txn.Key(fmt.Sprintf("align%d", i)), int64(0))
	}
	op := depositOp()
	for i := 0; i < 32; i++ {
		ev := &Event{Data: [2]any{txn.Key(fmt.Sprintf("align%d", i)), int64(1)}}
		if err := e.Submit(op, ev); err != nil {
			t.Fatal(err)
		}
	}
	res := e.Punctuate()
	if res.Committed != 32 {
		t.Fatalf("committed = %d; want 32", res.Committed)
	}
	num, span := e.Table().Shards()
	if num != 8 {
		t.Fatalf("table shards = %d; want Config.Shards = 8", num)
	}
	if span < 32 {
		t.Fatalf("table span = %d; want >= 32 (the batch's key range)", span)
	}
	// The executor hot loop must not have touched a single store lock; the
	// only acquisitions belong to engine-side whole-table maintenance
	// (Align/Truncate sweeps) and preloads, all at quiescent points.
	before := e.Table().SafetyLockAcquisitions()
	for i := 0; i < 32; i++ {
		ev := &Event{Data: [2]any{txn.Key(fmt.Sprintf("align%d", i)), int64(1)}}
		if err := e.Submit(op, ev); err != nil {
			t.Fatal(err)
		}
	}
	e.Punctuate()
	got := e.Table().SafetyLockAcquisitions() - before
	// Steady state: one sweep for the (no-op) Align and one for Truncate.
	if want := int64(2 * 64); got != want {
		t.Fatalf("safety-lock acquisitions per steady batch = %d; want %d (two whole-table sweeps)", got, want)
	}
}

func TestEngineAbortFlagsPostProcess(t *testing.T) {
	e := New(Config{Threads: 2})
	e.Table().Preload("acct", int64(0))

	var abortedEvents, okEvents atomic.Int64
	op := OperatorFuncs{
		Pre: depositOp().(OperatorFuncs).Pre,
		Access: func(eb *txn.EventBlotter, b *txn.Builder) error {
			k := eb.Params["key"].(txn.Key)
			amount := eb.Params["amount"].(int64)
			b.Write(k, []txn.Key{k}, func(_ *txn.Ctx, src []txn.Value) (txn.Value, error) {
				if amount < 0 {
					return nil, txn.ErrAbort
				}
				return src[0].(int64) + amount, nil
			})
			return nil
		},
		Post: func(_ *Event, _ *txn.EventBlotter, aborted bool) error {
			if aborted {
				abortedEvents.Add(1)
			} else {
				okEvents.Add(1)
			}
			return nil
		},
	}
	for i := 0; i < 10; i++ {
		amount := int64(1)
		if i%2 == 0 {
			amount = -1 // violates consistency -> abort
		}
		_ = e.Submit(op, &Event{Data: [2]any{txn.Key("acct"), amount}})
	}
	res := e.Punctuate()
	if res.Aborted != 5 || res.Committed != 5 {
		t.Fatalf("result = %+v", res)
	}
	if abortedEvents.Load() != 5 || okEvents.Load() != 5 {
		t.Fatalf("post-process flags: aborted=%d ok=%d", abortedEvents.Load(), okEvents.Load())
	}
	v, _ := e.Table().Latest("acct")
	if v.(int64) != 5 {
		t.Fatalf("acct = %v; want 5", v)
	}
	if e.Latency().Count != 10 {
		t.Fatalf("latency samples = %d; want 10", e.Latency().Count)
	}
}

func TestEngineAdaptiveDecisionRecorded(t *testing.T) {
	e := New(Config{Threads: 2}) // Strategy nil -> decision model
	for i := 0; i < 8; i++ {
		e.Table().Preload(txn.Key(fmt.Sprintf("k%d", i)), int64(0))
	}
	op := depositOp()
	for i := 0; i < 200; i++ {
		_ = e.Submit(op, &Event{Data: [2]any{txn.Key(fmt.Sprintf("k%d", i%8)), int64(1)}})
	}
	res := e.Punctuate()
	if len(res.Decisions) != 1 {
		t.Fatalf("decisions = %v", res.Decisions)
	}
	if res.Props.NumTxns != 200 {
		t.Fatalf("props = %+v", res.Props)
	}
	// A long TD chain per key with zero PDs should elect c-schedule.
	if d := res.Decisions[0]; d.Gran != sched.CSchedule {
		t.Errorf("decision = %v; want c-schedule for TD-heavy acyclic load", d)
	}
}

func TestEnginePinnedStrategy(t *testing.T) {
	pin := sched.Decision{Explore: sched.SExploreDFS, Gran: sched.FSchedule, Abort: sched.LAbort}
	e := New(Config{Threads: 2, Strategy: &pin})
	e.Table().Preload("k", int64(0))
	op := depositOp()
	for i := 0; i < 20; i++ {
		_ = e.Submit(op, &Event{Data: [2]any{txn.Key("k"), int64(2)}})
	}
	res := e.Punctuate()
	if d := res.Decisions[0]; d != pin {
		t.Fatalf("decision = %v; want pinned %v", d, pin)
	}
	v, _ := e.Table().Latest("k")
	if v.(int64) != 40 {
		t.Fatalf("k = %v; want 40", v)
	}
}

func TestEngineNestedGroups(t *testing.T) {
	e := New(Config{
		Threads: 2,
		GroupFn: func(data any) int { return int(data.([2]any)[1].(int64)) % 2 },
		GroupStrategies: map[int]sched.Decision{
			0: {Explore: sched.NSExplore, Gran: sched.CSchedule, Abort: sched.LAbort},
			1: {Explore: sched.SExploreBFS, Gran: sched.CSchedule, Abort: sched.EAbort},
		},
	})
	// Disjoint key spaces per group, as the paper's TP setup requires.
	e.Table().Preload("even", int64(0))
	e.Table().Preload("odd", int64(0))
	op := OperatorFuncs{
		Access: func(eb *txn.EventBlotter, b *txn.Builder) error {
			return nil
		},
	}
	_ = op
	dep := depositOp()
	for i := 0; i < 40; i++ {
		k := txn.Key("even")
		amount := int64(2)
		if i%2 == 1 {
			k = "odd"
			amount = int64(3)
		}
		_ = e.Submit(dep, &Event{Data: [2]any{k, amount}})
	}
	res := e.Punctuate()
	if len(res.Decisions) != 2 {
		t.Fatalf("decisions = %v; want 2 groups", res.Decisions)
	}
	if res.Decisions[0].Explore != sched.NSExplore || res.Decisions[1].Explore != sched.SExploreBFS {
		t.Fatalf("group strategies not applied: %v", res.Decisions)
	}
	even, _ := e.Table().Latest("even")
	odd, _ := e.Table().Latest("odd")
	if even.(int64) != 40 || odd.(int64) != 60 {
		t.Fatalf("even=%v odd=%v; want 40/60", even, odd)
	}
}

func TestEngineMultipleBatchesProfileAdapts(t *testing.T) {
	e := New(Config{Threads: 2, Cleanup: true})
	e.Table().Preload("k", int64(1000))
	op := depositOp()
	// Batch 1: no aborts.
	for i := 0; i < 50; i++ {
		_ = e.Submit(op, &Event{Data: [2]any{txn.Key("k"), int64(1)}})
	}
	e.Punctuate()
	if e.lastAbortRatio != 0 {
		t.Fatalf("abort ratio = %f; want 0", e.lastAbortRatio)
	}
	// Batch 2: half abort.
	for i := 0; i < 50; i++ {
		amount := int64(1)
		if i%2 == 0 {
			amount = -1
		}
		_ = e.Submit(op, &Event{Data: [2]any{txn.Key("k"), amount}})
	}
	e.Punctuate()
	if e.lastAbortRatio < 0.4 || e.lastAbortRatio > 0.6 {
		t.Fatalf("abort ratio = %f; want ~0.5", e.lastAbortRatio)
	}
	if e.Batches() != 2 {
		t.Fatalf("batches = %d", e.Batches())
	}
}

func TestEnginePreProcessErrorDropsEvent(t *testing.T) {
	e := New(Config{Threads: 1})
	op := OperatorFuncs{
		Pre: func(*Event) (*txn.EventBlotter, error) { return nil, errors.New("bad event") },
	}
	if err := e.Submit(op, &Event{}); err == nil {
		t.Fatal("expected error")
	}
	res := e.Punctuate()
	if res.Events != 0 {
		t.Fatalf("events = %d; want 0", res.Events)
	}
}

func TestEngineEmptyPunctuation(t *testing.T) {
	e := New(Config{Threads: 2})
	res := e.Punctuate()
	if res.Committed != 0 || res.Aborted != 0 || res.Events != 0 {
		t.Fatalf("empty punctuation result: %+v", res)
	}
}
