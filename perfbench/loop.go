package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// loopStats is what one open-loop segment observed. Latencies run from each
// request's due time, so a stall also charges the requests queued behind it.
type loopStats struct {
	hitLat []float64 // seconds, due time to response, for requests op counted as hits
	allLat []float64 // seconds, due time to response, every request
	late   []float64 // seconds the generator sent each request after its due time
	hit    []bool    // per request, in due order: whether op counted it as a hit
}

// backlogGrowth is how much later the generator sent the last fifth of the
// requests than the first fifth (medians): a backlog that grows over the
// segment shows here, while one stall, which the generator recovers from,
// does not.
func (s loopStats) backlogGrowth() float64 {
	k := len(s.late) / 5
	if k == 0 {
		return 0
	}
	return median(s.late[len(s.late)-k:]) - median(s.late[:k])
}

// openLoop sends up to n requests due at a fixed rate (request i is due
// i/rate seconds after the start) from `workers` senders, each holding at
// most one request in flight. A sender that falls behind sends the next due
// request at once; the time it waited counts in that request's latency. op
// performs request i and reports whether it was a hit. Closing stop (which
// may be nil) ends the loop early: the statistics then cover the requests
// sent before it closed.
func openLoop(rate float64, n, workers int, stop <-chan struct{}, op func(i int) bool) loopStats {
	start := time.Now().Add(time.Millisecond)
	lat := make([]float64, n)
	late := make([]float64, n)
	hit := make([]bool, n)
	sent := make([]bool, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * 1e9))
				if d := time.Until(due); d > 0 {
					select {
					case <-time.After(d):
					case <-stop:
						return
					}
				}
				select {
				case <-stop:
					return
				default:
				}
				late[i] = time.Since(due).Seconds()
				hit[i] = op(i)
				lat[i] = time.Since(due).Seconds()
				sent[i] = true
			}
		}()
	}
	wg.Wait()
	// Keep the contiguous prefix of sent requests: a sender that saw stop
	// may leave a gap just before another sender's last request.
	m := 0
	for m < n && sent[m] {
		m++
	}
	lat, late, hit = lat[:m], late[:m], hit[:m]
	s := loopStats{allLat: lat, late: late, hit: hit}
	for i, h := range hit {
		if h {
			s.hitLat = append(s.hitLat, lat[i])
		}
	}
	return s
}

// ladderRates is the fixed rate ladder lookup_max_rps is read from: 5%
// steps from 250 requests per second.
func ladderRates() []float64 {
	rates := make([]float64, 0, 120)
	r := 250.0
	for i := 0; i < 120; i++ {
		rates = append(rates, r)
		r *= 1.05
	}
	return rates
}

// maxRate binary-searches the ladder for the highest rate whose segment keeps
// p99 latency (every request, from due time) within limit and whose backlog
// grows by no more than backlog. A failing rung is tried once more before it
// counts as failed, so one stray stall does not end the search below the
// knee. The bottom rung is assumed to pass. segment runs one step at a rate
// and returns its statistics.
func maxRate(rates []float64, limit, backlog float64, segment func(rate float64) loopStats) float64 {
	passes := func(rate float64) bool {
		s := segment(rate)
		return quantile(s.allLat, 0.99) <= limit && s.backlogGrowth() <= backlog
	}
	lo, hi := 0, len(rates) // rates[lo] passes; rates[hi] fails (or is past the end)
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if passes(rates[mid]) || passes(rates[mid]) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return rates[lo]
}
