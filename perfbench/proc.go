package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// clkTck is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU times
// (100 on every Linux ABI Go supports).
const clkTck = 100

// selfCPU is this process's user+sys CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pidCPU is another process's user+sys CPU time from /proc/<pid>/stat.
func pidCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := b[bytes.LastIndexByte(b, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// peakRSSMB reads VmHWM (peak resident set) of a process ("self" or a pid).
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// takePeakRSSMB reads a process's peak RSS since the last take (or its
// start) and restarts the peak at the current RSS.
func takePeakRSSMB(pid string) (float64, error) {
	mb, err := peakRSSMB(pid)
	if err != nil {
		return 0, err
	}
	return mb, os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}

// releaseSetupMemory returns set-up garbage to the OS before measuring.
func releaseSetupMemory() { debug.FreeOSMemory() }

var allocSample = []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// heapAllocs is this process's cumulative count of heap allocations.
func heapAllocs() uint64 {
	rtmetrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// remoteMallocs reads a Go process's cumulative Mallocs from the MemStats
// dump of its /debug/pprof/heap?debug=1 endpoint.
func remoteMallocs(admin string) (uint64, error) {
	body, err := httpGet("http://" + admin + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, "# Mallocs = "); ok {
			return strconv.ParseUint(strings.TrimSpace(rest), 10, 64)
		}
	}
	return 0, fmt.Errorf("no Mallocs in %s heap profile", admin)
}

var httpClient = &http.Client{Timeout: 10 * time.Second}

func httpGet(url string) (string, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return string(b), fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return string(b), nil
}

// usage is one reading of the counters a flood window is measured by.
type usage struct {
	at     time.Time
	events int64
	cpu    time.Duration
	allocs uint64
	// rssMB is the engine process's peak RSS since the previous reading.
	rssMB float64
}

// floodMeter takes a usage reading each time the completed-event count
// crosses a multiple of window while armed. Windows are whole numbers of
// batches (or receipts) rather than wall-clock slices, so periodic work such
// as WAL snapshots falls into every window alike.
type floodMeter struct {
	window int64
	read   func(events int64) (usage, error)
	armed  atomic.Bool
	// next, marks and err belong to the consumer while armed; arm writes
	// them before publishing armed, the reader takes them after the
	// consumer has finished.
	next  int64
	marks []usage
	err   error
}

// arm starts metering from events completed so far.
func (f *floodMeter) arm(events int64) {
	f.next, f.marks, f.err = events, nil, nil
	f.armed.Store(true)
}

func (f *floodMeter) disarm() { f.armed.Store(false) }

// observe is called by the consumer with the completed-event count.
func (f *floodMeter) observe(events int64) {
	if !f.armed.Load() || f.err != nil {
		return
	}
	if events >= f.next {
		u, err := f.read(events)
		if err != nil {
			f.err = err
			return
		}
		f.marks = append(f.marks, u)
		for f.next <= events {
			f.next += f.window
		}
	}
}

// flood is one metered flood: its readings at whole-window boundaries.
type flood struct{ first, last usage }

// result returns the metered flood; at least one whole window is required.
// Throughput, CPU and allocations are totals over the whole windows rather
// than medians of per-window rates: periodic costs (garbage collection of a
// large heap, WAL snapshots) make window rates bimodal, and a median of a
// bimodal sample jumps between modes. Peak RSS, which only ratchets within
// a window, is the median of the windows' peaks.
func (f *floodMeter) result() (flood, float64, error) {
	if f.err != nil {
		return flood{}, 0, f.err
	}
	if len(f.marks) < 2 {
		return flood{}, 0, fmt.Errorf("flood completed no whole window of %d events", f.window)
	}
	var peaks []float64
	for _, m := range f.marks[1:] {
		peaks = append(peaks, m.rssMB)
	}
	return flood{f.marks[0], f.marks[len(f.marks)-1]}, median(peaks), nil
}

func (f flood) events() float64 { return float64(f.last.events - f.first.events) }

func (f flood) eventsPerS() float64 { return f.events() / f.last.at.Sub(f.first.at).Seconds() }

func (f flood) cpuUSPerEvent() float64 { return float64(f.last.cpu-f.first.cpu) / 1e3 / f.events() }

func (f flood) allocsPerEvent() float64 { return float64(f.last.allocs-f.first.allocs) / f.events() }

// report sets the flood's end-to-end metrics.
func (f flood) report(rep *report) {
	rep.set("events_per_s", f.eventsPerS())
	rep.set("cpu_us_per_event", f.cpuUSPerEvent())
	rep.set("allocs_per_event", f.allocsPerEvent())
	rep.note("flood: %.0f events in %.2f s of whole windows", f.events(), f.last.at.Sub(f.first.at).Seconds())
}
