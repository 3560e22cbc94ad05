package main

import (
	"testing"
	"time"
)

// A stall on the first request must show in the latency of the requests
// due behind it: latency runs from the due time, not the send time.
func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	const rate = 1000.0 // one request per millisecond
	stall := 60 * time.Millisecond
	s := openLoop(rate, 40, 1, nil, func(i int) bool {
		if i == 0 {
			time.Sleep(stall)
		}
		return true
	})
	if len(s.hitLat) != 40 {
		t.Fatalf("%d latencies, want 40", len(s.hitLat))
	}
	// Request 10 was due at 10 ms but could only be sent after the stall
	// ended at 60 ms: its latency from due time is about 50 ms, although
	// the request itself took no time.
	if s.hitLat[10] < 0.045 {
		t.Fatalf("request 10 latency %.4fs, want >= 0.045s (waited behind the stall)", s.hitLat[10])
	}
	if s.late[10] < 0.045 {
		t.Fatalf("request 10 sent %.4fs late, want >= 0.045s", s.late[10])
	}
	// The generator caught up after the stall: no growing backlog.
	if g := s.backlogGrowth(); g > 0.001 {
		t.Fatalf("backlog growth %.4fs after a recovered stall, want ~0", g)
	}
}

// A server slower than the offered rate builds a backlog that grows over
// the segment.
func TestOpenLoopBacklogGrowth(t *testing.T) {
	s := openLoop(1000, 50, 1, nil, func(int) bool {
		time.Sleep(2 * time.Millisecond)
		return true
	})
	if g := s.backlogGrowth(); g < 0.02 {
		t.Fatalf("backlog growth %.4fs at twice the capacity, want >= 0.02s", g)
	}
}

func TestMaxRateFindsKnee(t *testing.T) {
	rates := ladderRates()
	// A fake server that meets the limit up to 4000/s.
	got := maxRate(rates, 0.005, 0.005, func(rate float64) loopStats {
		lat := 0.001
		if rate > 4000 {
			lat = 0.050
		}
		return loopStats{allLat: []float64{lat, lat}}
	})
	if got > 4000 || got < 4000/1.05 {
		t.Fatalf("max rate %v, want the highest rung <= 4000", got)
	}
}
