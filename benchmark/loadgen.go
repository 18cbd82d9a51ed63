package main

import (
	"time"
)

// clock is the run clock: durations since the run's start. The pacer is
// tested against a fake one.
type clock interface {
	Now() time.Duration
	SleepUntil(t time.Duration)
}

type realClock struct{ base time.Time }

func (c realClock) Now() time.Duration { return time.Since(c.base) }
func (c realClock) SleepUntil(t time.Duration) {
	if d := t - c.Now(); d > 0 {
		time.Sleep(d)
	}
}

// segment is one stretch of an open-loop schedule at a constant rate.
type segment struct {
	rate   float64 // blocks per second
	length time.Duration
}

// schedule is an open-loop send plan: block i is due at a fixed instant
// that does not move when the system under test stalls.
type schedule struct {
	segs []segment
}

// ladderSchedule is a warm-up at the first rate followed by the rates, rung
// i lasting weights[i] parts of measure.
func ladderSchedule(rates []float64, weights []int, warmup, measure time.Duration) schedule {
	parts := sumInts(weights)
	s := schedule{segs: []segment{{rate: rates[0], length: warmup}}}
	for i, r := range rates {
		s.segs = append(s.segs, segment{rate: r, length: measure / time.Duration(parts) * time.Duration(weights[i])})
	}
	return s
}

func sumInts(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// bounds returns when segment i starts and ends.
func (s schedule) bounds(i int) (start, end time.Duration) {
	for k := 0; k < i; k++ {
		start += s.segs[k].length
	}
	return start, start + s.segs[i].length
}

// segmentAt returns the index of the segment that contains instant t
// (the last one for t past the end).
func (s schedule) segmentAt(t time.Duration) int {
	var end time.Duration
	for i, sg := range s.segs {
		end += sg.length
		if t < end {
			return i
		}
	}
	return len(s.segs) - 1
}

// lateThreshold is how far behind its due instant a send may start before
// the generator counts as having run late for that block.
const lateThreshold = time.Millisecond

// pacer walks a schedule: wait blocks until the next block is due and
// reports the due instant, which is what latency is timed from. When the
// caller falls behind (a send blocked), later blocks go out back to back
// with their original due instants, so the stall's cost lands on them.
type pacer struct {
	sched schedule
	clk   clock

	seg      int           // current segment
	segStart time.Duration // its start
	k        int           // blocks already issued in it

	// lagMs holds, per segment, how late each send started.
	lagMs [][]float64
	late  []int
}

func newPacer(s schedule, clk clock) *pacer {
	return &pacer{sched: s, clk: clk, lagMs: make([][]float64, len(s.segs)), late: make([]int, len(s.segs))}
}

// wait returns the next block's due instant and segment, or ok=false once
// the schedule is exhausted.
func (p *pacer) wait() (due time.Duration, seg int, ok bool) {
	for p.seg < len(p.sched.segs) {
		sg := p.sched.segs[p.seg]
		due = p.segStart + time.Duration(float64(p.k)*float64(time.Second)/sg.rate)
		if due < p.segStart+sg.length {
			break
		}
		p.segStart += sg.length
		p.seg++
		p.k = 0
	}
	if p.seg >= len(p.sched.segs) {
		return 0, 0, false
	}
	p.k++
	p.clk.SleepUntil(due)
	lag := p.clk.Now() - due
	if lag < 0 {
		lag = 0
	}
	p.lagMs[p.seg] = append(p.lagMs[p.seg], float64(lag)/float64(time.Millisecond))
	if lag > lateThreshold {
		p.late[p.seg]++
	}
	return due, p.seg, true
}

// lateShare is the share of segment seg's blocks whose send started late.
func (p *pacer) lateShare(seg int) float64 {
	if len(p.lagMs[seg]) == 0 {
		return 0
	}
	return float64(p.late[seg]) / float64(len(p.lagMs[seg]))
}
