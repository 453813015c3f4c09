package main

import (
	"math"
	"math/bits"
	"sort"
	"time"
)

// hist is a log-linear histogram of durations in nanoseconds: 32
// sub-buckets per power of two, so any quantile it reports is within
// 1.6% of the exact sample. It is not safe for concurrent use; every
// recording goroutine owns one and they are merged after the run.
type hist struct {
	counts [64 * 32]uint64
	n      uint64
}

func histIndex(ns int64) int {
	if ns < 32 {
		if ns < 0 {
			ns = 0
		}
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 1
	return (e-4)*32 + int((uint64(ns)>>(e-5))&31)
}

// histLow is the smallest value that maps to bucket i.
func histLow(i int) float64 {
	if i < 32 {
		return float64(i)
	}
	e := i/32 + 4
	sub := uint64(i % 32)
	return float64((32 + sub) << (e - 5))
}

func (h *hist) add(d time.Duration) {
	h.counts[histIndex(int64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0..1) in nanoseconds, placing the
// samples of the bucket holding it evenly across the bucket.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		if seen+c >= rank {
			lo, hi := histLow(i), histLow(i+1)
			return lo + (hi-lo)*(float64(rank-seen)-0.5)/float64(c)
		}
		seen += c
	}
	return histLow(len(h.counts) - 1)
}

// windowed keeps one histogram per quarter second of a repeat, keyed by
// each sample's due time, so a timing can be reported over per-window
// values (see overWindows): a stall then moves a few windows, not the
// run. The first half second of traffic is warm-up (connections are
// dialled on first use) and is left out.
type windowed struct {
	wins []*hist
}

const (
	windowNs      = int64(250 * time.Millisecond)
	warmupWindows = 2
)

func (w *windowed) add(due int64, d time.Duration) {
	i := int(max(due, 0) / windowNs)
	for i >= len(w.wins) {
		w.wins = append(w.wins, nil)
	}
	if w.wins[i] == nil {
		w.wins[i] = new(hist)
	}
	w.wins[i].add(d)
}

func (w *windowed) merge(o *windowed) {
	for len(w.wins) < len(o.wins) {
		w.wins = append(w.wins, nil)
	}
	for i, h := range o.wins {
		if h == nil {
			continue
		}
		if w.wins[i] == nil {
			w.wins[i] = new(hist)
		}
		w.wins[i].merge(h)
	}
}

func (w *windowed) total() *hist {
	var all hist
	for _, h := range w.wins {
		if h != nil {
			all.merge(h)
		}
	}
	return &all
}

// windowQuantiles returns the q-quantile of every window past warm-up
// that holds at least 10 samples beyond it.
func (w *windowed) windowQuantiles(q float64) []float64 {
	need := uint64(math.Ceil(10 / (1 - q)))
	var per []float64
	for i, h := range w.wins {
		if i >= warmupWindows && h != nil && h.n >= need {
			per = append(per, h.quantile(q))
		}
	}
	return per
}

// overWindows is a per-message timing of a run: the over-th percentile,
// across the windows of every repeat, of each window's q-quantile, and
// the number of windows. With fewer than three windows it is the
// q-quantile of all samples.
func overWindows(ws []*windowed, q, over float64) (float64, int) {
	var per []float64
	var all hist
	for _, w := range ws {
		per = append(per, w.windowQuantiles(q)...)
		all.merge(w.total())
	}
	if len(per) < 3 {
		return all.quantile(q), len(per)
	}
	return percentile(per, over), len(per)
}

// groupMin is the fewest membership cycles a group holds: enough for its
// tail to be p75, with 10 samples beyond it.
const groupMin = 40

// sampleGroups joins the samples of consecutive repeats into groups of at
// least groupMin (a remainder joins the last group), so a timing can be
// the median over groups: a repeat the host disturbed then moves one
// group, not the run.
func sampleGroups(per [][]float64) [][]float64 {
	var out [][]float64
	var cur []float64
	for _, xs := range per {
		cur = append(cur, xs...)
		if len(cur) >= groupMin {
			out = append(out, cur)
			cur = nil
		}
	}
	switch {
	case len(out) == 0:
		out = append(out, cur)
	case len(cur) > 0:
		out[len(out)-1] = append(out[len(out)-1], cur...)
	}
	return out
}

// overGroups is the median over groups of each group's percentile, at
// the fixed p or, when p is 0, at the group's tail percentile. It also
// returns the tail percentile of the smallest group.
func overGroups(gs [][]float64, p float64) (v, tail float64) {
	var per []float64
	tail = 100
	for _, g := range gs {
		gp := p
		if gp == 0 {
			gp = tailPercentile(len(g))
		}
		tail = min(tail, tailPercentile(len(g)))
		per = append(per, percentile(append([]float64(nil), g...), gp))
	}
	return median(per), tail
}

// tailLadder is the set of percentiles a tail is reported at.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile of the ladder that has
// at least 10 of n samples beyond it. Below 20 samples no percentile
// qualifies and the tail is the maximum (100).
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p
		}
	}
	return 100
}

// percentile returns the p-th percentile (0..100) of xs by the
// nearest-rank rule; xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(ns float64) float64 { return ns / 1e6 }
func us(ns float64) float64 { return ns / 1e3 }
