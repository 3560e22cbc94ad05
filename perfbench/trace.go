package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"harl/internal/costmodel"
	"harl/internal/hardware"
	"harl/internal/schedule"
	"harl/internal/search"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	kRound    spanKind = iota // search.Engine.RunRound
	kRefit                    // costmodel.CostModel.Refit
	kPredict                  // costmodel Predict/PredictBatch/PredictBatchInto/Throughput
	kMeasure                  // search.BatchEvaluator.EvalBatch (hardware.NoisyExecSeeded)
	kAppend                   // tunelog.Journal.Append
	kSketch                   // search.NewTask / search.NewTaskSet (sketch.Generate)
	kWave                     // one search.MultiTuner wave, barrier to barrier
	kResolve                  // registry Resolve
	kPublish                  // registry Publish
	kLookup                   // harl.Registry.Lookup
	kSchedule                 // service GET /v1/schedule
	kTune                     // service POST /v1/tune
	kFleet                    // fleet worker POST /v1/measure
	nKinds
)

var kindNames = [nKinds]string{"search.round", "costmodel.refit", "costmodel.predict", "hardware.measure",
	"tunelog.append", "sketch.generate", "core.wave", "registry.resolve", "registry.publish",
	"registry.lookup", "service.schedule", "service.tune", "fleet.measure"}

// span is one timed call across a layer boundary. round is the id of the
// search round the call happened inside (0 when outside any round), which is
// how a round's self time finds its children.
type span struct {
	kind   spanKind
	round  int32
	lo, hi int64 // nanoseconds since the tracer's origin
}

// spanBuf is an append-only span list. A task's buffer has one writer at a
// time (a task is never advanced by two goroutines at once), so its mutex is
// uncontended; the tracer's shared buffer takes appends from many.
type spanBuf struct {
	mu    sync.Mutex
	spans []span
}

func (b *spanBuf) add(s span) {
	b.mu.Lock()
	b.spans = append(b.spans, s)
	b.mu.Unlock()
}

// tracer keeps every span in memory; collect merges them once the traced
// work has finished, and write dumps them when the benchmark ends.
type tracer struct {
	origin time.Time
	shared spanBuf
	mu     sync.Mutex
	tasks  []*taskTrace
	spans  []span // merged by collect

	nextRound atomic.Int32
	requested atomic.Int64 // measureK asked of RunRound
	fresh     atomic.Int64 // measurements RunRound reported
	fallbacks atomic.Int64 // rounds that measured nothing (random exploration follows)
	rlUpdates atomic.Int64
	refits    atomic.Int64
	predicted atomic.Int64
	measured  atomic.Int64
	records   atomic.Int64
	bytes     atomic.Int64
	samples   atomic.Int64
	hits      atomic.Int64
	misses    atomic.Int64
	requests  atomic.Int64
	errors    atomic.Int64
	appends   atomic.Int64
	locks     atomic.Int64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// timed records a span of kind around fn outside any round.
func (t *tracer) timed(k spanKind, fn func()) {
	lo := t.now()
	fn()
	t.shared.add(span{kind: k, lo: lo, hi: t.now()})
}

// taskTrace binds one tuning task to the tracer: the wrappers of that task's
// cost model, evaluator and journal read the task's current round from it.
type taskTrace struct {
	tr          *tracer
	buf         spanBuf
	round       atomic.Int32
	lastUpdates int
}

func (t *tracer) task() *taskTrace {
	tt := &taskTrace{tr: t}
	t.mu.Lock()
	t.tasks = append(t.tasks, tt)
	t.mu.Unlock()
	return tt
}

func (tt *taskTrace) begin() int64 { return tt.tr.now() }

func (tt *taskTrace) end(k spanKind, lo int64) {
	tt.buf.add(span{kind: k, round: tt.round.Load(), lo: lo, hi: tt.tr.now()})
}

// tracedEngine times search.Engine.RunRound and reads the HARL agent's
// update counter after each round. tasks maps every task the engine may be
// handed to its trace; it is filled before tuning starts and only read after.
type tracedEngine struct {
	inner search.Engine
	tasks map[*search.Task]*taskTrace
}

func (e *tracedEngine) Name() string { return e.inner.Name() }

func (e *tracedEngine) RunRound(t *search.Task, measureK int) int {
	tt := e.tasks[t]
	tr := tt.tr
	id := tr.nextRound.Add(1)
	tt.round.Store(id)
	lo := tr.now()
	n := e.inner.RunRound(t, measureK)
	hi := tr.now()
	tt.round.Store(0)
	tt.buf.add(span{kind: kRound, round: id, lo: lo, hi: hi})
	tr.requested.Add(int64(measureK))
	tr.fresh.Add(int64(n))
	if n == 0 {
		tr.fallbacks.Add(1)
	}
	if h, ok := e.inner.(*search.HARL); ok {
		if a := h.Agent(t); a != nil {
			u := a.Updates()
			tr.rlUpdates.Add(int64(u - tt.lastUpdates))
			tt.lastUpdates = u
		}
	}
	return n
}

// tracedCost wraps a task's cost model. It forwards the optional
// costmodel.ParallelRefitter and costmodel.BatchInto interfaces, which
// search.Task type-asserts: hiding them would time a slower path than the
// untraced program runs.
type tracedCost struct {
	inner costmodel.CostModel
	tt    *taskTrace
}

func (c *tracedCost) Add(x []float64, y float64) { c.inner.Add(x, y) }

func (c *tracedCost) Refit() {
	lo := c.tt.begin()
	c.inner.Refit()
	c.tt.end(kRefit, lo)
	c.tt.tr.refits.Add(1)
}

func (c *tracedCost) Predict(x []float64) float64 {
	lo := c.tt.begin()
	p := c.inner.Predict(x)
	c.tt.end(kPredict, lo)
	c.tt.tr.predicted.Add(1)
	return p
}

func (c *tracedCost) PredictBatch(xs [][]float64) []float64 {
	lo := c.tt.begin()
	p := c.inner.PredictBatch(xs)
	c.tt.end(kPredict, lo)
	c.tt.tr.predicted.Add(int64(len(xs)))
	return p
}

func (c *tracedCost) PredictBatchInto(xs [][]float64, out []float64) {
	lo := c.tt.begin()
	if bi, ok := c.inner.(costmodel.BatchInto); ok {
		bi.PredictBatchInto(xs, out)
	} else {
		copy(out, c.inner.PredictBatch(xs))
	}
	c.tt.end(kPredict, lo)
	c.tt.tr.predicted.Add(int64(len(xs)))
}

func (c *tracedCost) Throughput(x []float64) float64 {
	lo := c.tt.begin()
	p := c.inner.Throughput(x)
	c.tt.end(kPredict, lo)
	c.tt.tr.predicted.Add(1)
	return p
}

func (c *tracedCost) SetRunner(r costmodel.Runner) {
	if pr, ok := c.inner.(costmodel.ParallelRefitter); ok {
		pr.SetRunner(r)
	}
}

func (c *tracedCost) Trained() bool { return c.inner.Trained() }
func (c *tracedCost) Len() int      { return c.inner.Len() }

// tracedEval measures a batch in-process with hardware.NoisyExecSeeded — the
// function every measurement path must reproduce bit for bit — so it can sit
// in the task's BatchEvaluator seam and time measurement from outside.
type tracedEval struct {
	sim  *hardware.Simulator
	seed uint64
	tt   *taskTrace
}

func (e *tracedEval) EvalBatch(scheds []*schedule.Schedule, seqs []uint64) ([]float64, error) {
	lo := e.tt.begin()
	out := make([]float64, len(scheds))
	for i, s := range scheds {
		out[i] = hardware.NoisyExecSeeded(e.sim, s, e.seed, seqs[i])
	}
	e.tt.end(kMeasure, lo)
	e.tt.tr.measured.Add(int64(len(scheds)))
	return out, nil
}

// instrument puts the traced cost model and evaluator on a task.
func (t *tracer) instrument(task *search.Task) *taskTrace {
	tt := t.task()
	task.Cost = &tracedCost{inner: task.Cost, tt: tt}
	task.Remote = &tracedEval{sim: task.Meas.Sim, seed: task.Meas.NoiseSeed(), tt: tt}
	return tt
}

// countingWriter counts the bytes a journal writes through it.
type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// tracedHandler times an http.Handler per request while on is set,
// classifying each request into a span kind; status codes of 500 and above
// count as errors.
type tracedHandler struct {
	inner    http.Handler
	tr       *tracer
	classify func(*http.Request) (spanKind, bool)
	on       *atomic.Bool
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	k, ok := h.classify(r)
	if !ok || !h.on.Load() {
		h.inner.ServeHTTP(w, r)
		return
	}
	sw := &statusWriter{ResponseWriter: w}
	lo := h.tr.now()
	h.inner.ServeHTTP(sw, r)
	h.tr.shared.add(span{kind: k, lo: lo, hi: h.tr.now()})
	if k == kSchedule || k == kTune {
		h.tr.requests.Add(1)
		if sw.status >= 500 {
			h.tr.errors.Add(1)
		}
	}
}

// collect merges every span recorded so far.
func (t *tracer) collect() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.shared.mu.Lock()
	all := append([]span(nil), t.shared.spans...)
	t.shared.mu.Unlock()
	for _, tt := range t.tasks {
		tt.buf.mu.Lock()
		all = append(all, tt.buf.spans...)
		tt.buf.mu.Unlock()
	}
	t.spans = all
}

// write dumps the merged spans as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(bw, "{\"layer\":%q,\"round\":%d,\"start_ns\":%d,\"end_ns\":%d}\n", kindNames[s.kind], s.round, s.lo, s.hi)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (t *tracer) sum(k spanKind) (float64, []float64) {
	var total float64
	var ds []float64
	for _, s := range t.spans {
		if s.kind == k {
			d := float64(s.hi-s.lo) / 1e9
			total += d
			ds = append(ds, d)
		}
	}
	return total, ds
}

// searchMetrics derives the search-layer numbers: round time, and self time
// as each round's duration minus the union of its children's intervals.
func (t *tracer) searchMetrics() map[string]float64 {
	children := make(map[int32][]interval)
	var rounds []span
	for _, s := range t.spans {
		switch s.kind {
		case kRound:
			rounds = append(rounds, s)
		case kRefit, kPredict, kMeasure, kAppend:
			if s.round != 0 {
				children[s.round] = append(children[s.round], interval{s.lo, s.hi})
			}
		}
	}
	var total, self int64
	for _, r := range rounds {
		d := r.hi - r.lo
		total += d
		self += d - unionWithin(r.lo, r.hi, children[r.round])
	}
	return map[string]float64{
		"search.round_s": float64(total) / 1e9,
		"search.self_s":  float64(self) / 1e9,
		"search.rounds":  float64(len(rounds)),
	}
}

// layerMetrics returns every per-layer metric the tracer can derive; layers a
// workload does not pass through read 0.
func (t *tracer) layerMetrics(workers int) map[string]float64 {
	m := t.searchMetrics()
	if req := t.requested.Load(); req > 0 {
		m["search.fresh_ratio"] = float64(t.fresh.Load()) / float64(req)
	} else {
		m["search.fresh_ratio"] = 0
	}
	m["search.random_fallbacks"] = float64(t.fallbacks.Load())
	m["rl.updates"] = float64(t.rlUpdates.Load())
	m["costmodel.refit_s"], _ = t.sum(kRefit)
	m["costmodel.refits"] = float64(t.refits.Load())
	m["costmodel.predict_s"], _ = t.sum(kPredict)
	m["costmodel.predicted"] = float64(t.predicted.Load())
	m["costmodel.samples"] = float64(t.samples.Load())
	m["hardware.measure_s"], _ = t.sum(kMeasure)
	m["hardware.measured"] = float64(t.measured.Load())
	m["tunelog.append_s"], _ = t.sum(kAppend)
	m["tunelog.records"] = float64(t.records.Load())
	m["tunelog.bytes"] = float64(t.bytes.Load())
	waveS, waves := t.sum(kWave)
	m["core.wave_s"] = waveS
	m["core.waves"] = float64(len(waves))
	m["core.busy_ratio"] = 0
	if waveS > 0 && workers > 0 {
		m["core.busy_ratio"] = m["search.round_s"] / (waveS * float64(workers))
	}
	m["sketch.generate_s"], _ = t.sum(kSketch)
	for _, p := range []struct {
		k    spanKind
		name string
	}{{kLookup, "registry.lookup_s"}, {kResolve, "registry.resolve_s"}, {kPublish, "registry.publish_s"},
		{kSchedule, "service.schedule_s"}, {kTune, "service.tune_s"}} {
		_, ds := t.sum(p.k)
		m[p.name+".p50"] = quantile(ds, 0.5)
		m[p.name+".p99"] = quantile(ds, 0.99)
	}
	m["registry.hits"] = float64(t.hits.Load())
	m["registry.misses"] = float64(t.misses.Load())
	m["registry.appends"] = float64(t.appends.Load())
	m["registry.lock_acquisitions"] = float64(t.locks.Load())
	m["service.requests"] = float64(t.requests.Load())
	m["service.errors"] = float64(t.errors.Load())
	m["fleet.measure_s"], _ = t.sum(kFleet)
	m["fleet.batches"], m["fleet.retries"], m["fleet.fallbacks"] = 0, 0, 0
	return m
}
