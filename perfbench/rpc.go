package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"morphstream/internal/rpcserve"
	"morphstream/internal/store"
	"morphstream/internal/txn"
)

// server is one morphserve child process.
type server struct {
	cmd         *exec.Cmd
	addr, admin string
	exited      chan struct{}
	waitErr     error
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// bootServer starts morphserve with the workload's ledger and waits until
// its /healthz answers SERVING.
func bootServer(a *runArgs, logPath string) (*server, error) {
	ws := a.ws
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	admin, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(a.serveBin,
		"-addr", addr, "-admin", admin, "-quiet",
		"-threads", strconv.Itoa(ws.Threads),
		"-accounts", strconv.Itoa(ws.StateSize),
		"-balance", strconv.FormatInt(ws.Balance, 10),
		"-punctuate", strconv.Itoa(ws.Punctuation.Count),
		"-interval", time.Duration(ws.Punctuation.IntervalMS*float64(time.Millisecond)).String())
	cmd.Stdout, cmd.Stderr = logf, logf
	// If this process dies, the server must not outlive it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start morphserve: %w", err)
	}
	s := &server{cmd: cmd, addr: addr, admin: admin, exited: make(chan struct{})}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	deadline := time.Now().Add(60 * time.Second)
	for {
		body, err := httpGet("http://" + admin + "/healthz")
		if err == nil && strings.TrimSpace(body) == "SERVING" {
			return s, nil
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("morphserve exited during boot: %v (log %s)", s.waitErr, logPath)
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("morphserve did not answer /healthz within 60s")
		}
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop drains the server with SIGTERM and waits for it to exit, killing it
// if the drain overruns.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
		return s.waitErr
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
		return errors.New("morphserve drain overran 30s; killed")
	}
}

// collectGarbage runs a garbage collection in both processes (the heap
// profile handler collects first when asked to).
func (s *server) collectGarbage() error {
	runtime.GC()
	_, err := httpGet("http://" + s.admin + "/debug/pprof/heap?gc=1")
	return err
}

// usage reads the run's counters: both processes' CPU and allocations.
func (s *server) usage(events int64) (usage, error) {
	cpu, err := pidCPU(s.pid())
	if err != nil {
		return usage{}, err
	}
	mallocs, err := remoteMallocs(s.admin)
	if err != nil {
		return usage{}, err
	}
	rss, err := takePeakRSSMB(strconv.Itoa(s.pid()))
	if err != nil {
		return usage{}, err
	}
	return usage{at: time.Now(), events: events, cpu: selfCPU() + cpu, allocs: heapAllocs() + mallocs, rssMB: rss}, nil
}

// wireConn is one client connection with its own disjoint stream.
type wireConn struct {
	cl        *rpcserve.Client
	src       source
	sent      int
	unflushed int
	recv      atomic.Int64
	// Consumer-owned until the receipt stream ends.
	statuses []rpcserve.Status
	disorder int
	match    *latencyMatcher
}

// wireRun drives the connections from one submitter goroutine (the caller)
// and one receipt consumer.
type wireRun struct {
	conns    []*wireConn
	window   int
	progress chan struct{} // signalled by the consumer after each receipt
	done     chan struct{}
	meter    floodMeter
	// Traced runs only: the submitter's call intervals, and receipt
	// arrival times (ns since the Unix epoch) collected by the consumer
	// while non-nil.
	onSubmit, onFlush, onWait func(start, end time.Time)
	arrivals                  atomic.Pointer[[]int64]
	// settle starts a phase at the same point of both processes' GC cycles.
	settle func() error
}

// streamSeed derives connection c's stream seed.
func streamSeed(seed int64, c int) int64 { return seed*7919 + int64(c) }

// connRange is connection c's account range.
func connRange(ws *wlSpec, c int) (lo, n int) {
	n = ws.StateSize / ws.Connections
	return c * n, n
}

func connSource(ws *wlSpec, seed int64, c int) source {
	lo, n := connRange(ws, c)
	return newLedgerSource(ws, streamSeed(seed, c), lo, n, true)
}

func dialAll(a *runArgs, s *server) ([]*wireConn, error) {
	var conns []*wireConn
	for c := 0; c < a.ws.Connections; c++ {
		cl, err := rpcserve.Dial(s.addr, rpcserve.ClientConfig{Operator: rpcserve.LedgerOperatorName})
		if err != nil {
			for _, wc := range conns {
				wc.cl.Abort()
			}
			return nil, fmt.Errorf("dial conn %d: %w", c, err)
		}
		conns = append(conns, &wireConn{cl: cl, src: connSource(a.ws, a.seed, c)})
	}
	return conns, nil
}

// bootRepeated boots server + clients setup_repeats times, keeping the
// last, and returns the median boot time.
func bootRepeated(a *runArgs) (*server, []*wireConn, float64, error) {
	var times []float64
	var s *server
	var conns []*wireConn
	for i := 0; i < max(a.ws.SetupRepeats, 1); i++ {
		if s != nil {
			for _, wc := range conns {
				wc.cl.Abort()
			}
			if err := s.stop(); err != nil {
				return nil, nil, 0, fmt.Errorf("stop set-up server %d: %w", i-1, err)
			}
		}
		start := time.Now()
		var err error
		if s, err = bootServer(a, filepath.Join(a.workdir, fmt.Sprintf("morphserve-%d.log", i))); err != nil {
			return nil, nil, 0, err
		}
		if conns, err = dialAll(a, s); err != nil {
			s.stop()
			return nil, nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return s, conns, median(times), nil
}

func startWireRun(s *server, conns []*wireConn, ws *wlSpec) *wireRun {
	if len(conns) != 2 {
		panic("wire run drives exactly two connections")
	}
	r := &wireRun{conns: conns, window: ws.Window, progress: make(chan struct{}, 1), done: make(chan struct{})}
	r.meter = floodMeter{window: int64(ws.WindowEvents), read: s.usage}
	r.settle = s.collectGarbage
	go r.consume()
	return r
}

// consume folds both connections' receipts until both streams end.
func (r *wireRun) consume() {
	defer close(r.done)
	ch := [2]<-chan rpcserve.Receipt{r.conns[0].cl.Receipts(), r.conns[1].cl.Receipts()}
	for ch[0] != nil || ch[1] != nil {
		var rc rpcserve.Receipt
		var ok bool
		c := 0
		select {
		case rc, ok = <-ch[0]:
		case rc, ok = <-ch[1]:
			c = 1
		}
		if !ok {
			ch[c] = nil
			continue
		}
		at := time.Now()
		wc := r.conns[c]
		if int(rc.TxnID) != len(wc.statuses)+1 || !rc.Final() {
			wc.disorder++
		}
		wc.statuses = append(wc.statuses, rc.Status)
		if wc.match != nil {
			wc.match.complete(1, at)
		}
		if p := r.arrivals.Load(); p != nil {
			*p = append(*p, at.UnixNano())
		}
		wc.recv.Add(1)
		r.meter.observe(r.received())
		select {
		case r.progress <- struct{}{}:
		default:
		}
	}
}

func (r *wireRun) outstanding() int {
	n := 0
	for _, wc := range r.conns {
		n += wc.sent - int(wc.recv.Load())
	}
	return n
}

func (r *wireRun) received() int64 {
	var n int64
	for _, wc := range r.conns {
		n += wc.recv.Load()
	}
	return n
}

// submit sends connection wc's next event, waiting while the connection
// has window receipts outstanding.
func (r *wireRun) submit(wc *wireConn) error {
	for wc.sent-int(wc.recv.Load()) >= r.window {
		if err := r.flush(wc); err != nil {
			return err
		}
		start := time.Now()
		select {
		case <-r.progress:
		case <-r.done:
			return errors.New("receipt stream ended early")
		}
		if r.onWait != nil {
			r.onWait(start, time.Now())
		}
	}
	payload := wc.src.next()
	start := time.Now()
	_, err := wc.cl.Submit(payload)
	if r.onSubmit != nil {
		r.onSubmit(start, time.Now())
	}
	wc.sent++
	wc.unflushed++
	return err
}

func (r *wireRun) flush(wc *wireConn) error {
	if wc.unflushed == 0 {
		return nil
	}
	wc.unflushed = 0
	start := time.Now()
	err := wc.cl.Flush()
	if r.onFlush != nil {
		r.onFlush(start, time.Now())
	}
	return err
}

// drain flushes every connection and round-trips a barrier on each.
func (r *wireRun) drain() error {
	for _, wc := range r.conns {
		wc.unflushed = 0
		if err := wc.cl.Drain(); err != nil {
			return err
		}
	}
	return nil
}

// flushEvery bounds how many submits a connection buffers in a flood.
const flushEvery = 256

// warmup floods n events (split over the connections) and drains.
func (r *wireRun) warmup(n int) error {
	for i := 0; i < n; i++ {
		wc := r.conns[i%len(r.conns)]
		if err := r.submit(wc); err != nil {
			return err
		}
		if wc.unflushed >= flushEvery {
			if err := r.flush(wc); err != nil {
				return err
			}
		}
	}
	return r.drain()
}

// openLoop sends n events on a fixed schedule of rate per second, event k
// on connection k mod 2, flushing whenever the schedule lets the submitter
// sleep. It returns the send lags (ms) and the backlog probe.
func (r *wireRun) openLoop(n int, rate float64) ([]float64, *backlogProbe, error) {
	if err := r.settle(); err != nil {
		return nil, nil, err
	}
	probe := &backlogProbe{n: n}
	lags := make([]float64, 0, n)
	start := time.Now()
	period := time.Duration(float64(time.Second) / rate)
	for _, wc := range r.conns {
		wc.match.begin(start)
	}
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(k) * period)
		if d := time.Until(due); d > 0 {
			for _, wc := range r.conns {
				if err := r.flush(wc); err != nil {
					return nil, nil, err
				}
			}
			if d = time.Until(due); d > 0 {
				time.Sleep(d)
			}
		}
		lags = append(lags, float64(time.Since(due))/1e6)
		probe.observe(k, r.outstanding())
		if err := r.submit(r.conns[k%len(r.conns)]); err != nil {
			return nil, nil, err
		}
	}
	return lags, probe, r.drain()
}

// flood submits as fast as the receipt window allows for d while the
// consumer meters whole windows of receipts.
func (r *wireRun) flood(d time.Duration) error {
	if err := r.settle(); err != nil {
		return err
	}
	r.meter.arm(r.received())
	defer r.meter.disarm()
	deadline := time.Now().Add(d)
	for i := 0; i%64 != 0 || time.Now().Before(deadline); i++ {
		wc := r.conns[i%len(r.conns)]
		if err := r.submit(wc); err != nil {
			return err
		}
		if wc.unflushed >= flushEvery {
			if err := r.flush(wc); err != nil {
				return err
			}
		}
	}
	return nil
}

// close ends every session with the Goodbye handshake and waits for the
// consumer to see both receipt streams end.
func (r *wireRun) close() error {
	var first error
	for _, wc := range r.conns {
		if err := wc.cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	<-r.done
	return first
}

// runRPC is the end-to-end run of the wire workload.
func runRPC(a *runArgs) (rep *report, err error) {
	ws := a.ws
	rep = newReport()
	s, conns, setupS, err := bootRepeated(a)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			for _, wc := range conns {
				wc.cl.Abort()
			}
			s.stop()
		}
	}()
	rep.set("setup_s", setupS)

	olN := a.openLoopEvents()
	perConn := ws.WarmupEvents / len(conns)
	olN -= olN % len(conns)
	lat := make([]float64, olN)
	for c, wc := range conns {
		wc.match = newLatencyMatcher(perConn, olN/len(conns), ws.RatePerS, len(conns), c, lat)
	}
	r := startWireRun(s, conns, ws)
	if err := r.warmup(perConn * len(conns)); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	lags, probe, err := r.openLoop(olN, ws.RatePerS)
	if err != nil {
		return nil, fmt.Errorf("open loop: %w", err)
	}
	if err := r.flood(a.floodDuration()); err != nil {
		return nil, fmt.Errorf("flood: %w", err)
	}
	if err := r.drain(); err != nil {
		return nil, fmt.Errorf("final drain: %w", err)
	}
	if err := r.close(); err != nil {
		rep.fail(0, "client close: %v", err)
	}
	stopped = true
	if err := s.stop(); err != nil {
		rep.fail(0, "morphserve exit: %v", err)
	}

	fl, rss, err := r.meter.result()
	if err != nil {
		return nil, err
	}
	fl.report(rep)
	rep.set("rss_peak_mb", rss)
	reportOpenLoop(rep, lat, lags, probe, ws)

	// Oracle: each connection's statuses against a serial replay of its own
	// stream over its own account range.
	for c, wc := range conns {
		rep.attempted += int64(wc.sent)
		if missing := wc.sent - len(wc.statuses); missing != 0 {
			rep.fail(int64(abs(missing)), "conn %d: %d submits, %d receipts", c, wc.sent, len(wc.statuses))
		}
		if wc.disorder > 0 {
			rep.fail(int64(wc.disorder), "conn %d: %d receipts out of order or not final", c, wc.disorder)
		}
		lo, n := connRange(ws, c)
		table := store.NewTable()
		for i := lo; i < lo+n; i++ {
			table.Preload(txn.Key(rpcserve.AccountKey(i)), ws.Balance)
		}
		i, wrong, aborted := 0, 0, 0
		_, _, err := serialReplay(rpcserve.LedgerOperator(), connSource(ws, a.seed, c), wc.sent, table, func(ab bool) {
			want := rpcserve.StatusCommitted
			if ab {
				want = rpcserve.StatusAborted
				aborted++
			}
			if i >= len(wc.statuses) || wc.statuses[i] != want {
				wrong++
			}
			i++
		})
		if err != nil {
			return nil, err
		}
		if wrong > 0 {
			rep.fail(int64(wrong), "conn %d: %d receipt statuses differ from the serial oracle", c, wrong)
		}
		rep.note("conn %d: %d events, %d aborted", c, wc.sent, aborted)
	}
	return rep, nil
}
