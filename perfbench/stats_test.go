package main

import (
	"testing"
	"time"
)

func TestTailQuantileKeepsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	// p99 of 100 samples would leave one sample beyond it; the rule clamps
	// to p90, the highest percentile with ten samples above.
	if got := quantile(xs, 0.99); got != 90 {
		t.Fatalf("p99 of 100 samples = %v, want 90 (ten beyond)", got)
	}
	big := make([]float64, 2000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if got := quantile(big, 0.99); got != 1980 {
		t.Fatalf("p99 of 2000 samples = %v, want 1980", got)
	}
	beyond := 0
	for _, x := range big {
		if x > quantile(big, 0.99) {
			beyond++
		}
	}
	if beyond < minBeyond {
		t.Fatalf("%d samples beyond p99, want >= %d", beyond, minBeyond)
	}
	if got := median(xs); got != 50 {
		t.Fatalf("median = %v, want 50", got)
	}
	if got := tailQ(15, 0.99); got != 0.5 {
		t.Fatalf("tailQ(15, .99) = %v, want the median floor 0.5", got)
	}
	// The low tail keeps ten samples below: p10 of 200 is the 20th value,
	// p1 of 100 is clamped up to the 11th, and of 15 samples to the median.
	if got := quantile(big[:200], 0.1); got != 20 {
		t.Fatalf("p10 of 200 samples = %v, want 20", got)
	}
	if got := quantile(xs, 0.01); got != 11 {
		t.Fatalf("p1 of 100 samples = %v, want 11 (ten below)", got)
	}
	if got := tailQ(15, 0.01); got != 0.5 {
		t.Fatalf("tailQ(15, .01) = %v, want the median 0.5", got)
	}
}

func TestUnionWithinCountsOverlapOnce(t *testing.T) {
	// Parent [0,100). Children overlap: [10,40) and [30,60) cover 50, not
	// 60; [90,120) is clipped to 10; [200,300) lies outside.
	ivs := []interval{{30, 60}, {10, 40}, {90, 120}, {200, 300}}
	if got := unionWithin(0, 100, ivs); got != 60 {
		t.Fatalf("union = %d, want 60", got)
	}
	// Nested and identical children.
	if got := unionWithin(0, 100, []interval{{0, 100}, {20, 30}, {0, 100}}); got != 100 {
		t.Fatalf("union = %d, want 100", got)
	}
	if got := unionWithin(0, 100, nil); got != 0 {
		t.Fatalf("empty union = %d", got)
	}
}

func TestSelfTimeSubtractsUnion(t *testing.T) {
	tr := newTracer()
	// One round [0,100ms) with two overlapping cost-model children and one
	// measure child inside the overlap: self time is 100 - 70 = 30 ms.
	tr.spans = []span{
		{kind: kRound, round: 1, lo: 0, hi: int64(100 * time.Millisecond)},
		{kind: kRefit, round: 1, lo: int64(10 * time.Millisecond), hi: int64(50 * time.Millisecond)},
		{kind: kPredict, round: 1, lo: int64(40 * time.Millisecond), hi: int64(80 * time.Millisecond)},
		{kind: kMeasure, round: 1, lo: int64(45 * time.Millisecond), hi: int64(55 * time.Millisecond)},
	}
	m := tr.searchMetrics()
	if got := m["search.self_s"]; got < 0.0299 || got > 0.0301 {
		t.Fatalf("self = %v s, want 0.030", got)
	}
	if got := m["search.round_s"]; got < 0.0999 || got > 0.1001 {
		t.Fatalf("round = %v s, want 0.100", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{1, 100}); got < 9.999 || got > 10.001 {
		t.Fatalf("geomean = %v", got)
	}
	if geomean([]float64{1, 0}) != 0 || geomean(nil) != 0 {
		t.Fatal("geomean of a non-positive set must be 0")
	}
}
