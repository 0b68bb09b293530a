package main

import (
	"fmt"
	"math/rand"

	"morphstream/internal/engine"
	"morphstream/internal/exec"
	"morphstream/internal/rpcserve"
	"morphstream/internal/store"
	"morphstream/internal/txn"
	"morphstream/internal/workload"
)

// source yields a workload's event payloads in stream order. Two sources
// built from the same seed yield the same stream, which is how the serial
// oracle sees exactly what the engine saw without the stream ever being
// held in memory.
type source interface{ next() any }

// gsChunk is how many GrepSum events are generated at a time.
const gsChunk = 4096

// gsSource generates a GrepSum stream chunk by chunk with workload.GS, each
// chunk from its own seed derived from the stream seed.
type gsSource struct {
	cfg  workload.Config
	seed int64
	k    int
	buf  []workload.TxnSpec
	i    int
}

func newGSSource(ws *wlSpec, seed int64) *gsSource {
	return &gsSource{
		seed: seed,
		cfg: workload.Config{
			StateSize:  ws.StateSize,
			Theta:      ws.Theta,
			AbortRatio: ws.AbortShare,
			Length:     1,
			MultiRatio: 1,
			Txns:       gsChunk,
		},
	}
}

func (s *gsSource) next() any {
	if s.i == len(s.buf) {
		c := s.cfg
		c.Seed = s.seed*1_000_003 + int64(s.k)
		c.FirstTS = uint64(s.k*gsChunk + 1)
		s.buf = workload.GS(c).Specs
		s.k++
		s.i = 0
	}
	sp := s.buf[s.i]
	s.i++
	return sp
}

// specOp runs canonical workload specs as an engine operator.
func specOp() engine.Operator {
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

// overdraft is an amount no account can hold, so a transfer of it always
// aborts: the ledger streams' abort share is set by the generator alone.
const overdraft = int64(1) << 40

// ledgerSource generates rpcserve ledger payloads over the accounts
// [lo, lo+n): with probability abort an overdraft transfer, otherwise a
// transfer (or, unless transfersOnly, with even odds a deposit) of 1..max.
type ledgerSource struct {
	rng           *rand.Rand
	lo, n         int
	abort         float64
	max           int64
	transfersOnly bool
}

func newLedgerSource(ws *wlSpec, seed int64, lo, n int, transfersOnly bool) *ledgerSource {
	return &ledgerSource{
		rng:           rand.New(rand.NewSource(seed)),
		lo:            lo,
		n:             n,
		abort:         ws.AbortShare,
		max:           ws.AmountMax,
		transfersOnly: transfersOnly,
	}
}

func (s *ledgerSource) next() any {
	overdrawn := s.rng.Float64() < s.abort
	if !overdrawn && !s.transfersOnly && s.rng.Intn(2) == 0 {
		return rpcserve.Deposit{To: rpcserve.AccountKey(s.lo + s.rng.Intn(s.n)), Amount: 1 + s.rng.Int63n(s.max)}
	}
	from := s.rng.Intn(s.n)
	to := s.rng.Intn(s.n - 1)
	if to >= from {
		to++ // a self-transfer would write one key twice at one timestamp
	}
	amount := 1 + s.rng.Int63n(s.max)
	if overdrawn {
		amount = overdraft
	}
	return rpcserve.Transfer{From: rpcserve.AccountKey(s.lo + from), To: rpcserve.AccountKey(s.lo + to), Amount: amount}
}

// serialChunk is how many events the oracle plans and executes at a time.
const serialChunk = 4096

// serialReplay is the oracle: it plans n events of src through op, in
// stream order, into transactions with increasing timestamps and executes
// them with exec.Serial on table, chunk by chunk, truncating old versions
// between chunks. outcome, when non-nil, sees each event's abort flag in
// stream order.
func serialReplay(op engine.Operator, src source, n int, table *store.Table, outcome func(aborted bool)) (committed, aborted int, err error) {
	txns := make([]*txn.Transaction, 0, serialChunk)
	var ts uint64
	for done := 0; done < n; {
		txns = txns[:0]
		for len(txns) < serialChunk && done < n {
			ev := &engine.Event{Data: src.next()}
			eb, err := op.PreProcess(ev)
			if err != nil {
				return committed, aborted, fmt.Errorf("oracle preprocess event %d: %w", done, err)
			}
			ts++
			t := txn.NewTransaction(int64(ts), ts)
			t.Blotter = eb
			if err := op.StateAccess(eb, txn.Build(t)); err != nil {
				return committed, aborted, fmt.Errorf("oracle state access event %d: %w", done, err)
			}
			txns = append(txns, t)
			done++
		}
		r := exec.Serial(txns, table)
		committed += r.Committed
		aborted += r.Aborted
		if outcome != nil {
			for _, t := range txns {
				outcome(t.Aborted())
			}
		}
		table.Truncate(^uint64(0))
	}
	return committed, aborted, nil
}

// tableDiffs counts keys whose latest value differs between two tables.
func tableDiffs(keys []txn.Key, a, b *store.Table) int {
	diffs := 0
	for _, k := range keys {
		va, oka := a.Latest(k)
		vb, okb := b.Latest(k)
		if oka != okb || va != vb {
			diffs++
		}
	}
	return diffs
}
