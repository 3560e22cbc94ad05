package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"harl"
)

// lookupKey is one published registry key and the noise-free execution time
// the tuning session reported for it.
type lookupKey struct {
	reg   *harl.Registry
	w     harl.Workload
	sched string
	exec  float64
}

// lookupStats collects closed-loop lookup batches. A run takes its batches
// whenever no tuning session is running: after each session, or after each
// round of sessions on op-harl. The batches spread over the whole run.
type lookupStats struct {
	mu              sync.Mutex
	p50, p99, rates []float64 // per batch
	lookups         int
}

// gap runs batches lookup batches of n hits back to back.
func (ls *lookupStats) gap(keys []lookupKey, batches, n int, ck *checker, tr *tracer) {
	for range batches {
		ls.batch(keys, n, ck, tr)
	}
}

// batch replays n registry hits round-robin over keys from one caller in a
// closed loop: it sends its next lookup when the previous one returns. The
// registry is a library here, not a server, so the loop's completed lookups
// per second is its capacity. Every hit must return the session's time.
func (ls *lookupStats) batch(keys []lookupKey, n int, ck *checker, tr *tracer) {
	cpu := harl.CPU()
	lat := make([]float64, 0, n)
	runtime.GC() // every batch starts from a collected heap
	t0 := time.Now()
	for i := 0; i < n; i++ {
		k := keys[i%len(keys)]
		ck.op()
		lo := time.Now()
		hit, ok, err := k.reg.Lookup(k.w, cpu, k.sched)
		hi := time.Now()
		lat = append(lat, hi.Sub(lo).Seconds())
		if tr != nil {
			tr.shared.add(span{kind: kLookup, lo: int64(lo.Sub(tr.origin)), hi: int64(hi.Sub(tr.origin))})
			if ok {
				tr.hits.Add(1)
			} else {
				tr.misses.Add(1)
			}
		}
		ck.check(err == nil && ok && hit.ExecSeconds == k.exec,
			"lookup %s: ok=%v err=%v exec=%g want %g", k.w.Name(), ok, err, hit.ExecSeconds, k.exec)
	}
	rate := float64(n) / time.Since(t0).Seconds()
	ls.mu.Lock()
	ls.p50 = append(ls.p50, quantile(lat, 0.5))
	ls.p99 = append(ls.p99, quantile(lat, 0.99))
	ls.rates = append(ls.rates, rate)
	ls.lookups += n
	ls.mu.Unlock()
}

// lookupQuiet is the share of batches, the fastest ones, that the lookup
// metrics describe. On a shared host the same lookups run about 1.5 times
// slower in the phases when a neighbour loads the machine, and those phases
// come and go over seconds. The share of slow batches in a run then decides
// the median of its batches, whereas the fast decile is the lookup's cost on
// a quiet machine, which a change to the lookup path moves and the
// neighbours do not.
const lookupQuiet = 0.1

// report sets the lookup metrics over the batches: the fast decile of the
// batches' p50s and of their completed lookups per second. The ten-beyond
// rule keeps at least ten batches faster than the reported one. It returns
// a log line that adds the median p50 and p99 of the batches.
func (ls *lookupStats) report(m map[string]float64) string {
	m["lookup_p50_ms"] = quantile(ls.p50, lookupQuiet) * 1e3
	m["lookup_max_rps"] = quantile(ls.rates, 1-lookupQuiet)
	return fmt.Sprintf("lookups: %d in-process Registry.Lookup hits in %d closed-loop batches between sessions; median batch p50 %.4f ms, p99 %.4f ms",
		ls.lookups, len(ls.rates), median(ls.p50)*1e3, median(ls.p99)*1e3)
}
