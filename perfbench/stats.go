package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail percentile is only as trustworthy as the samples that exceed it.
const minBeyond = 10

// tailQ clamps a requested quantile q toward the median until at least
// minBeyond of n samples lie beyond it: below it for a low quantile, above
// it for a high one. With fewer than 2·minBeyond samples even the median
// does not qualify, and the clamp returns the median anyway (callers size
// their sample counts so that this does not happen).
func tailQ(n int, q float64) float64 {
	if n <= 0 {
		return q
	}
	hi := 1 - float64(minBeyond)/float64(n)
	lo := float64(minBeyond+1) / float64(n) // nearest rank minBeyond+1
	hi, lo = max(hi, 0.5), min(lo, 0.5)
	return min(max(q, lo), hi)
}

// quantile returns the nearest-rank q-quantile of xs after clamping q by the
// ten-samples-beyond rule. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q = tailQ(len(s), q)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// median is the plain nearest-rank median.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean returns the geometric mean of strictly positive values, or 0 when
// xs is empty or holds a non-positive value.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// interval is a half-open span of monotonic nanoseconds.
type interval struct{ lo, hi int64 }

// unionWithin returns how much of [lo, hi) the intervals cover, counting
// overlapping parts once. Child spans of one parent may overlap when the
// parent fans work out (a net-bert wave runs tasks side by side), so summing
// their lengths would subtract the same wall time twice.
func unionWithin(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.lo < lo {
			iv.lo = lo
		}
		if iv.hi > hi {
			iv.hi = hi
		}
		if iv.hi > iv.lo {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	for _, iv := range clipped {
		if iv.lo > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = iv.lo, iv.hi
			continue
		}
		if iv.hi > curHi {
			curHi = iv.hi
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}
