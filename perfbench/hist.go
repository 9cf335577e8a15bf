package main

import (
	"math/bits"
	"sort"
)

// histSub is log2 of the sub-buckets per power of two: 32 sub-buckets
// bound a quantile's error to 1/64 of its value, well inside the
// benchmark's bounds (power-of-two buckets would be off by up to 2x).
const histSub = 5

// hist is a single-writer log-linear latency histogram in nanoseconds.
type hist struct {
	n int64
	b [(64 - histSub + 1) << histSub]uint32
}

func histBucket(v uint64) int {
	if v < 1<<histSub {
		return int(v)
	}
	e := bits.Len64(v) - histSub - 1
	return (e+1)<<histSub | int((v>>e)&(1<<histSub-1))
}

// histBounds returns bucket i's lower bound and width.
func histBounds(i int) (lo, width float64) {
	if i < 1<<histSub {
		return float64(i), 1
	}
	e := i>>histSub - 1
	return float64(uint64(1<<histSub|i&(1<<histSub-1)) << e), float64(uint64(1) << e)
}

func (h *hist) observe(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.b[histBucket(uint64(ns))]++
	h.n++
}

func (h *hist) add(o *hist) {
	h.n += o.n
	for i, c := range o.b {
		h.b[i] += c
	}
}

// quantile returns the q-quantile in ns (0 when empty), interpolated
// linearly inside its bucket so that it moves smoothly with the data
// instead of snapping to bucket bounds.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.b {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, width := histBounds(i)
			return lo + width*(rank-cum)/float64(c)
		}
		cum += float64(c)
	}
	lo, width := histBounds(len(h.b) - 1)
	return lo + width
}

// windowHists is one recorder's latency histograms, one per second of
// the timed window, indexed by the second the task was offered in.
type windowHists []hist

func newWindowHists(seconds int) windowHists { return make(windowHists, seconds) }

// observe files a latency under the window second of offered, the offer
// time in ns since the window start; offers outside the window are not
// measured.
func (w windowHists) observe(offered, ns int64) {
	if offered < 0 {
		return
	}
	if s := offered / 1e9; s < int64(len(w)) {
		w[s].observe(ns)
	}
}

// latencySummary merges recorders' window histograms.
type latencySummary struct {
	pooled  hist
	windows []hist
}

func summarize(seconds int, recs ...windowHists) *latencySummary {
	s := &latencySummary{windows: make([]hist, seconds)}
	for _, r := range recs {
		for i := range r {
			s.windows[i].add(&r[i])
			s.pooled.add(&r[i])
		}
	}
	return s
}

// windowMedian is the median, over the given seconds of the window, of
// each second's q-quantile: one stalled second moves it by one rank, not
// by the stall's length.
func (s *latencySummary) windowMedian(q float64, seconds []int) float64 {
	var vs []float64
	for _, i := range seconds {
		if s.windows[i].n > 0 {
			vs = append(vs, s.windows[i].quantile(q))
		}
	}
	return median(vs)
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	vs = append([]float64(nil), vs...)
	sort.Float64s(vs)
	m := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[m]
	}
	return (vs[m-1] + vs[m]) / 2
}
