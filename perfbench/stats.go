package main

import (
	"math"
	"slices"
	"sort"
	"sync/atomic"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// percentile for it to mean anything.
const minTail = 10

// rankIndex is the nearest-rank index of percentile p in n sorted samples.
func rankIndex(p float64, n int) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	return min(max(i, 0), n-1)
}

// beyond counts the samples strictly above percentile p's rank.
func beyond(p float64, n int) int { return n - 1 - rankIndex(p, n) }

// percentile reads percentile p of sorted samples; ok is false when fewer
// than minTail samples lie beyond it.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	if len(sorted) == 0 {
		return 0, false
	}
	return sorted[rankIndex(p, len(sorted))], beyond(p, len(sorted)) >= minTail
}

// highestSupported returns the highest of the candidate percentiles that
// leaves at least minTail samples beyond it, or false when none does.
func highestSupported(n int, candidates ...float64) (float64, bool) {
	best, found := 0.0, false
	for _, p := range candidates {
		if n > 0 && beyond(p, n) >= minTail && (!found || p > best) {
			best, found = p, true
		}
	}
	return best, found
}

// median of values (not modified).
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := slices.Clone(values)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latencyMatcher pairs open-loop events with the batch results (or receipts)
// that report them. The phase's j-th event was due at start +
// (j*stride+offset)*period — stride and offset place one connection's events
// in a schedule shared by several — and results arrive in event order, each
// covering a run of consecutive events, so a cursor advanced by each
// result's event count (Events+Dropped in-process, one per receipt on the
// wire) names the events it completes. Latency runs from the due time, not
// the send time, so a stall anywhere — generator, engine, or result
// consumer — is charged to every event due during it.
type latencyMatcher struct {
	// epoch is fixed before any goroutine shares the matcher; startNS,
	// the phase start as an offset from it, is published atomically by
	// the sender because results may reach the consumer without a Go
	// synchronisation edge (over a socket).
	epoch   time.Time
	startNS atomic.Int64
	period  time.Duration
	stride  int
	offset  int
	// first is the stream index of the phase's first event and n the
	// phase's event count; results outside [first, first+n) are not
	// open-loop events and are skipped.
	first, n int
	cursor   int
	// lat holds each event's latency (ms) at its schedule slot; matchers
	// of one schedule share it.
	lat []float64
}

func newLatencyMatcher(first, n int, rate float64, stride, offset int, lat []float64) *latencyMatcher {
	return &latencyMatcher{
		epoch:  time.Now(),
		first:  first,
		n:      n,
		stride: stride,
		offset: offset,
		period: time.Duration(float64(time.Second) / rate),
		lat:    lat,
	}
}

func (m *latencyMatcher) slot(i int) int { return (i-m.first)*m.stride + m.offset }

// begin starts the phase's schedule at t.
func (m *latencyMatcher) begin(t time.Time) { m.startNS.Store(int64(t.Sub(m.epoch))) }

// due is stream event i's scheduled send time.
func (m *latencyMatcher) due(i int) time.Time {
	return m.epoch.Add(time.Duration(m.startNS.Load()) + time.Duration(m.slot(i))*m.period)
}

// complete records that the next count events of the stream completed at at.
func (m *latencyMatcher) complete(count int, at time.Time) {
	for k := 0; k < count; k++ {
		i := m.cursor
		m.cursor++
		if i < m.first || i >= m.first+m.n {
			continue
		}
		m.lat[m.slot(i)] = float64(at.Sub(m.due(i))) / 1e6
	}
}

// windowedPercentiles splits per-slot latencies into consecutive windows of
// w slots (a trailing partial window is dropped), takes percentile p of
// each, and returns the median over windows. A batched engine completes
// events in groups, so a percentile over a whole phase of a few hundred
// batches is set by its one or two worst batches; within a window of w
// events and across many windows it is a steady figure. ok is false when no
// window has minTail samples beyond p.
func windowedPercentile(lat []float64, w int, p float64) (v float64, windows int, ok bool) {
	var per []float64
	buf := make([]float64, 0, w)
	for lo := 0; lo+w <= len(lat); lo += w {
		buf = append(buf[:0], lat[lo:lo+w]...)
		sort.Float64s(buf)
		if x, ok := percentile(buf, p); ok {
			per = append(per, x)
		}
	}
	if len(per) == 0 {
		return 0, 0, false
	}
	return median(per), len(per), true
}

// backlogProbe compares how many events are outstanding (sent but without
// an outcome) in the first and the last fifth of the open-loop phase. It
// takes the minimum of each fifth: a rate the system sustains drains the
// backlog between batches and after every stall, so both minima stay near
// zero, while a rate it cannot sustain raises the last minimum by the
// deficit times the phase length.
type backlogProbe struct {
	n          int
	head, tail []float64
}

// observe records the outstanding count seen when sending event k of n.
func (b *backlogProbe) observe(k, outstanding int) {
	edge := max(b.n/5, 1)
	switch {
	case k < edge:
		b.head = append(b.head, float64(outstanding))
	case k >= b.n-edge:
		b.tail = append(b.tail, float64(outstanding))
	}
}

// growth is the least outstanding count at the end minus that at the start.
func (b *backlogProbe) growth() float64 { return slices.Min(b.tail) - slices.Min(b.head) }

// grew reports a backlog that grew by more than limit events.
func (b *backlogProbe) grew(limit float64) bool { return b.growth() > limit }

// span is one timed call into a layer — or one loop of calls over a
// batch's events — with its batch sequence number and the index of the span
// it ran inside (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Seq    int64  `json:"seq"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTimes returns each span's duration minus the part of its interval its
// children cover. Children may overlap each other (concurrent calls); the
// union of their intervals, clipped to the parent, is what is subtracted.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		ivs := make([]iv, 0, len(kids[i]))
		for _, k := range kids[i] {
			lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi int64
		open := false
		for _, v := range ivs {
			if open && v.lo <= curHi {
				curHi = max(curHi, v.hi)
				continue
			}
			if open {
				covered += curHi - curLo
			}
			curLo, curHi, open = v.lo, v.hi, true
		}
		if open {
			covered += curHi - curLo
		}
		out[i] = s.dur() - covered
	}
	return out
}
