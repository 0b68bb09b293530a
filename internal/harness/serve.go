package harness

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"morphstream/internal/engine"
	"morphstream/internal/metrics"
	"morphstream/internal/rpcserve"
)

// This file benchmarks the framed RPC front door (internal/rpcserve): N
// concurrent client connections flood the demo ledger operator over
// loopback TCP and every event's receipt round-trip time is recorded.

// ServeFloodResult is one flood run's measurement.
type ServeFloodResult struct {
	// Events is the total number of events streamed (across connections).
	Events int
	// Committed and Aborted count the receipt outcomes.
	Committed, Aborted int
	// Elapsed is the wall time from first submit to last receipt.
	Elapsed time.Duration
	// RTT holds one receipt round-trip sample per event: submit to
	// receipt arrival, as seen by the client.
	RTT *metrics.LatencyRecorder
}

// serveFloodOps builds conns deterministic ledger streams over disjoint
// per-connection account ranges (disjointness makes the outcome independent
// of cross-connection interleaving).
func serveFloodOps(conns, events, span int, balance int64) [][]any {
	ops := make([][]any, conns)
	for c := range ops {
		rng := rand.New(rand.NewSource(int64(7700 + c)))
		list := make([]any, events)
		for i := range list {
			from := c*span + rng.Intn(span)
			to := c*span + rng.Intn(span)
			list[i] = rpcserve.Transfer{
				From:   rpcserve.AccountKey(from),
				To:     rpcserve.AccountKey(to),
				Amount: int64(1 + rng.Intn(int(balance))),
			}
		}
		ops[c] = list
	}
	return ops
}

// ServeFloodNetwork starts an rpcserve server on a loopback listener and
// floods it over conns concurrent client connections. Each client records
// per-event receipt RTTs; its submit side self-paces on a window of
// inflight receipts so RTT measures server latency, not client queueing.
func ServeFloodNetwork(conns, events, span int, balance int64, threads int) (*ServeFloodResult, error) {
	srv := rpcserve.New(rpcserve.Config{
		Engine: engine.Config{
			Threads:           threads,
			Cleanup:           true,
			PunctuateEvery:    4096,
			PunctuateInterval: 2 * time.Millisecond,
		},
	})
	srv.Register(rpcserve.LedgerOperatorName, rpcserve.LedgerOperator())
	rpcserve.PreloadAccounts(srv.Engine().Table(), conns*span, balance)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()

	ops := serveFloodOps(conns, events, span, balance)
	res := &ServeFloodResult{Events: conns * events, RTT: metrics.NewLatencyRecorder()}
	var mu sync.Mutex // guards the result during the fan-in
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if err := serveFloodClient(lis.Addr().String(), ops[c], res, &mu); err != nil {
				errs <- fmt.Errorf("conn %d: %w", c, err)
			}
		}(c)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return nil, err
	}
	if err := <-serveErr; err != nil {
		return nil, err
	}
	select {
	case err := <-errs:
		return nil, err
	default:
	}
	return res, nil
}

// serveFloodClient streams one connection's ops and folds its receipts into
// res. The submit window (how many receipts may be outstanding, enforced by
// the sem channel) is sized to cover a punctuation batch so the server
// pipeline stays fed without unbounded client-side queueing.
func serveFloodClient(addr string, ops []any, res *ServeFloodResult, mu *sync.Mutex) error {
	// With 4 connections this keeps one punctuation batch (4096 events)
	// in flight in aggregate: enough to saturate the pipeline, small
	// enough that RTT is not dominated by client-side queueing.
	const window = 1024
	cl, err := rpcserve.Dial(addr, rpcserve.ClientConfig{Operator: rpcserve.LedgerOperatorName})
	if err != nil {
		return err
	}
	defer cl.Abort()

	// smu guards the submit timestamps between the submitter and the
	// receipt consumer (the wire itself is not a Go happens-before edge).
	var smu sync.Mutex
	sent := make([]time.Time, len(ops)+1)
	sem := make(chan struct{}, window)
	done := make(chan struct{})
	var consumeErr error
	go func() {
		defer close(done)
		committed, aborted := 0, 0
		for r := range cl.Receipts() {
			now := time.Now()
			switch r.Status {
			case rpcserve.StatusCommitted:
				committed++
			case rpcserve.StatusAborted:
				aborted++
			default:
				consumeErr = fmt.Errorf("txn %d: unexpected status %v", r.TxnID, r.Status)
				return
			}
			smu.Lock()
			t := sent[r.TxnID]
			smu.Unlock()
			res.RTT.Record(now.Sub(t)) // the recorder is internally locked
			select {                   // release one window slot
			case <-sem:
			default:
			}
		}
		consumeErr = cl.Err()
		mu.Lock()
		res.Committed += committed
		res.Aborted += aborted
		mu.Unlock()
	}()
	for i, o := range ops {
		select {
		case sem <- struct{}{}:
		case <-done:
			return fmt.Errorf("receipt stream ended early: %w", consumeErr)
		}
		smu.Lock()
		sent[i+1] = time.Now()
		smu.Unlock()
		if _, err := cl.Submit(o); err != nil {
			return err
		}
		if (i+1)%512 == 0 {
			if err := cl.Flush(); err != nil {
				return err
			}
		}
	}
	if err := cl.Drain(); err != nil {
		return err
	}
	if err := cl.Close(); err != nil {
		return err
	}
	<-done
	return consumeErr
}
