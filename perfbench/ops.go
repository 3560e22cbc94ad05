package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"
	"time"

	"harl"
	"harl/internal/core"
	"harl/internal/hardware"
	"harl/internal/registry"
	"harl/internal/schedule"
	"harl/internal/search"
	"harl/internal/sketch"
	"harl/internal/texpr"
	"harl/internal/tunelog"
	"harl/internal/workload"
	"harl/internal/xrand"
)

// opPreset is one operator workload: a scheduler preset, its per-session
// trial budget, and whether sessions run one per core or one at a time.
type opPreset struct {
	sched   string
	budget  int
	perCore bool
}

var (
	// opHarl spends three HARL rounds per operator. PPO training dominates
	// every round; running one session per core keeps the whole grid within
	// a run.
	opHarl = opPreset{sched: "harl", budget: 48, perCore: true}
	// opAnsor runs long enough (50 refits per operator) that cost-model
	// refits dominate the session. Its sessions run one at a time: side by
	// side, repeated runs of one seed spread their trials per second about
	// six times wider (12% against 2% between quartiles).
	opAnsor = opPreset{sched: "ansor", budget: 800}
)

// measureK is the library's default measured candidates per round.
const measureK = 16

// opSetupBatch is how many set-ups one setup_s sample times: about 0.2 s
// worth at HEAD.
const opSetupBatch = 200

// opLookupBatches lookup batches of opLookupBatch run after each round, so
// that a run of seventeen rounds or more yields about a hundred batches for
// lookupStats.report. A batch is enough for a p99 with ten lookups beyond it.
const (
	opLookupBatches = 6
	opLookupBatch   = 1000
)

// opCase is one drawn operator session.
type opCase struct {
	idx  int
	w    harl.Workload
	sg   *texpr.Subgraph // the same workload, for the traced assembly
	seed uint64
}

// opDraw draws the run's operator sessions from the seed: every Table-6
// configuration, each with its own seeded tuning seed, in rounds of one
// seeded configuration per category, so that any prefix of the pass holds
// every category alike and a run cut at its deadline keeps the pass's mix.
// The whole grid is drawn every time because best GFLOPS differs up to 7×
// between configurations of one category, so a subset would move
// best_gflops more than any change to the tuner.
func opDraw(seed uint64) ([]opCase, error) {
	rng := rand.New(rand.NewPCG(seed, 0x6f70))
	cats := workload.OperatorCategories()
	perms := make([][]int, len(cats))
	for c, cat := range cats {
		perms[c] = rng.Perm(len(workload.SuiteFor(cat, 1)))
	}
	var out []opCase
	for j := range perms[0] {
		for c, cat := range cats {
			ws := harl.TableSixWorkloads(cat, 1)
			sgs := workload.SuiteFor(cat, 1)
			i := perms[c][j]
			if ws[i].Fingerprint() != sgs[i].Fingerprint() {
				return nil, fmt.Errorf("table-6 workload %s does not match its subgraph", ws[i].Name())
			}
			out = append(out, opCase{idx: len(out), w: ws[i], sg: sgs[i], seed: splitSeed(seed, len(out))})
		}
	}
	return out, nil
}

// opOutcome is what one operator session produced.
type opOutcome struct {
	res     harl.Result
	reg     *harl.Registry
	log     string
	journal []byte
	wall    time.Duration
}

// opRun is a run's operator-session state: the draw and its scratch dirs.
type opRun struct {
	cases []opCase
	dirs  []string
}

func runOps(c *config, ck *checker, p opPreset) (report, error) {
	var rep report
	rep.metrics = map[string]float64{}
	// Set-up draws the inputs and checks that every drawn operator is
	// tunable (it has sketches); each session makes its own directory.
	run, setup, err := timeSetup(opSetupBatch, func(int) (*opRun, error) {
		cases, err := opDraw(c.seed)
		if err != nil {
			return nil, err
		}
		r := &opRun{cases: cases}
		for _, cs := range cases {
			if len(sketch.Generate(cs.sg)) == 0 {
				return nil, fmt.Errorf("%s has no sketches", cs.w.Name())
			}
			r.dirs = append(r.dirs, filepath.Join(c.dir, fmt.Sprintf("op%02d", cs.idx)))
		}
		return r, nil
	}, func(*opRun) {})
	if err != nil {
		return rep, err
	}
	if c.trace {
		return traceOps(c, ck, p, run)
	}
	rep.metrics["setup_s"] = setup

	// Measured phase: pass over the draw until the run's seconds are spent
	// (always at least one full pass), a round of one session per caller at
	// a time. Quality comes from the first pass; later passes repeat the
	// same sessions and must reproduce their journals byte for byte. After
	// each round, with no session running, a lookup batch replays the keys
	// the first pass has published so far: the batches spread over the run
	// without competing with a session for a core.
	callers := 1
	if p.perCore {
		callers = c.workers
	}
	first := make([]opOutcome, len(run.cases))
	var trials int64
	var busy time.Duration // Σ session wall time over every caller
	var keys []lookupKey   // published by the first pass so far
	var ls lookupStats
	start := time.Now()
	sessions := 0
	for pass := 0; pass == 0 || !c.deadline(start); pass++ {
		for lo := 0; lo < len(run.cases); lo += callers {
			if pass > 0 && c.deadline(start) {
				break
			}
			round := run.cases[lo:min(lo+callers, len(run.cases))]
			outs := make([]opOutcome, len(round))
			errs := make([]error, len(round))
			var wg sync.WaitGroup
			for j, cs := range round {
				wg.Add(1)
				go func() {
					defer wg.Done()
					outs[j], errs[j] = opSession(cs, p, filepath.Join(run.dirs[cs.idx], fmt.Sprintf("pass%d", pass)))
				}()
			}
			wg.Wait()
			for j, cs := range round {
				out := outs[j]
				ck.op()
				if !ck.check(errs[j] == nil, "%s: %v", cs.w.Name(), errs[j]) {
					continue
				}
				checkOp(ck, cs, p, out)
				trials += int64(out.res.Trials)
				busy += out.wall
				sessions++
				if pass == 0 {
					first[cs.idx] = out
					keys = append(keys, lookupKey{reg: out.reg, w: cs.w, sched: p.sched, exec: out.res.ExecSeconds})
				} else {
					ck.check(bytes.Equal(out.journal, first[cs.idx].journal), "%s: pass %d journal differs from pass 0", cs.w.Name(), pass)
					out.reg.Close()
				}
			}
			if len(keys) > 0 {
				ls.gap(keys, opLookupBatches, opLookupBatch, ck, nil)
			}
		}
	}
	elapsed := time.Since(start).Seconds()
	for _, k := range keys {
		k.reg.Close()
	}
	if len(keys) == 0 {
		return rep, fmt.Errorf("no operator session succeeded")
	}

	var gflops, execMs []float64
	var wall, sim float64
	for _, o := range first {
		if o.reg == nil {
			continue
		}
		gflops = append(gflops, o.res.GFLOPS)
		execMs = append(execMs, o.res.ExecSeconds*1e3)
		wall += o.wall.Seconds()
		sim += o.res.SearchSeconds
	}
	// Trials per second of the callers' busy time: in a round the caller
	// whose session ends first waits for the others, and that wait is not
	// tuning speed.
	rep.metrics["trials_per_s"] = float64(trials) / (busy.Seconds() / float64(callers))
	rep.metrics["best_gflops"] = geomean(gflops)
	rep.metrics["net_est_ms"] = geomean(execMs)
	rep.metrics["search_sim_s"] = sim
	rep.metrics["job_s"] = wall / float64(len(keys))
	lookups := ls.report(rep.metrics)
	rep.lines = append(rep.lines,
		fmt.Sprintf("%d operator sessions (%s, %d trials each) in %.2fs, %d at a time", sessions, p.sched, p.budget, elapsed, callers),
		"search_sim_s is the paper's simulated search time, deterministic per seed; wall-clock metrics sit beside it and are never compared with it",
		lookups)
	return rep, nil
}

// opSession runs one operator tune through the public API with a fresh
// registry and a journal, and returns the journal bytes for comparison.
func opSession(cs opCase, p opPreset, dir string) (opOutcome, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return opOutcome{}, err
	}
	reg, err := harl.OpenRegistry(filepath.Join(dir, "registry"))
	if err != nil {
		return opOutcome{}, err
	}
	log := filepath.Join(dir, "journal.jsonl")
	t0 := time.Now()
	res, err := harl.TuneOperator(cs.w, harl.CPU(), harl.Options{
		Scheduler: p.sched, Trials: p.budget, Workers: 1, Seed: cs.seed, RecordLog: log, Registry: reg,
	})
	wall := time.Since(t0)
	if err != nil {
		reg.Close()
		return opOutcome{}, err
	}
	j, err := os.ReadFile(log)
	if err != nil {
		reg.Close()
		return opOutcome{}, err
	}
	return opOutcome{res: res, reg: reg, log: log, journal: j, wall: wall}, nil
}

// checkOp verifies one operator session's outputs against each other.
func checkOp(ck *checker, cs opCase, p opPreset, o opOutcome) {
	name := cs.w.Name()
	r := o.res
	ck.check(r.Trials == p.budget, "%s: %d trials, budget %d", name, r.Trials, p.budget)
	ck.check(!r.CacheHit && !r.Cancelled, "%s: cache hit or cancelled on a fresh registry", name)
	ck.check(bytes.Count(o.journal, []byte{'\n'}) == r.Measured, "%s: journal has %d records, result measured %d",
		name, bytes.Count(o.journal, []byte{'\n'}), r.Measured)
	ck.check(r.GFLOPS == cs.w.FLOPs()/r.ExecSeconds/1e9, "%s: GFLOPS %g != FLOPs/exec", name, r.GFLOPS)
	best, ok, err := harl.BestRecord(o.log, cs.w, harl.CPU())
	if !ck.check(err == nil && ok, "%s: journal best: ok=%v err=%v", name, ok, err) {
		return
	}
	hit, ok, err := o.reg.Lookup(cs.w, harl.CPU(), p.sched)
	if !ck.check(err == nil && ok, "%s: registry lookup after the session: ok=%v err=%v", name, ok, err) {
		return
	}
	ck.check(hit.Schedule == r.BestSchedule && hit.ExecSeconds == r.ExecSeconds,
		"%s: registry hit (%g s) differs from the result (%g s)", name, hit.ExecSeconds, r.ExecSeconds)
	ck.check(hit.Record.Steps == best.Steps && hit.Record.ExecSeconds == best.ExecSeconds,
		"%s: journal best differs from the published best", name)
}

// traceOps is the traced run of an operator workload. Each drawn session
// runs twice, alternating: once through the public API, as the untraced run
// does, and once assembled from the layers' constructors with every seam
// timed, following core.TuneOperatorSession. The two journals must be byte
// for byte equal, and the wall-time ratio of the pairs is the tracing
// overhead.
func traceOps(c *config, ck *checker, p opPreset, run *opRun) (report, error) {
	tr := newTracer()
	var plain, traced time.Duration
	var keys []lookupKey
	var ls lookupStats
	for i, cs := range run.cases {
		// Alternate which twin runs first, so warm-up favours neither.
		var out opOutcome
		var err error
		if i%2 == 0 {
			out, err = opSession(cs, p, filepath.Join(run.dirs[i], "plain"))
		}
		t0 := time.Now()
		j, exec, terr := tracedOpSession(tr, cs, p, filepath.Join(run.dirs[i], "traced"))
		wall := time.Since(t0)
		if i%2 == 1 {
			out, err = opSession(cs, p, filepath.Join(run.dirs[i], "plain"))
		}
		ck.op()
		if !ck.check(err == nil, "%s: %v", cs.w.Name(), err) {
			continue
		}
		checkOp(ck, cs, p, out)
		ck.op()
		if ck.check(terr == nil, "%s traced: %v", cs.w.Name(), terr) {
			ck.check(bytes.Equal(j, out.journal), "%s: traced journal differs from the untraced one", cs.w.Name())
			ck.check(exec == out.res.ExecSeconds, "%s: traced best %g differs from untraced %g", cs.w.Name(), exec, out.res.ExecSeconds)
		}
		plain += out.wall
		traced += wall
		keys = append(keys, lookupKey{reg: out.reg, w: cs.w, sched: p.sched, exec: out.res.ExecSeconds})
		ls.gap(keys, opLookupBatches, opLookupBatch, ck, tr)
	}
	for _, k := range keys {
		k.reg.Close()
	}
	if len(keys) == 0 {
		return report{}, fmt.Errorf("no operator session succeeded")
	}
	return traceReport(c, tr, traced.Seconds()/plain.Seconds()-1, 0)
}

// traceReport derives the per-layer metrics and writes the spans out.
func traceReport(c *config, tr *tracer, overhead, genLateP99 float64) (report, error) {
	tr.collect()
	m := tr.layerMetrics(c.workers)
	m["bench.trace_overhead"] = overhead
	m["bench.gen_late_p99_ms"] = genLateP99
	path := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-seed%d.jsonl", c.workload, c.seed))
	if err := tr.write(path); err != nil {
		return report{}, err
	}
	return report{metrics: m, lines: []string{fmt.Sprintf("%d spans written to %s", len(tr.spans), path)}}, nil
}

// tracedOpSession is harl.TuneOperator with a fresh registry and a journal,
// assembled from the layers' public constructors so every seam can be
// timed: registry resolve, sketch generation, the engine's rounds, the cost
// model, measurement, journal appends and the final publish. It returns the
// journal bytes and the noise-free best execution time.
func tracedOpSession(tr *tracer, cs opCase, p opPreset, dir string) ([]byte, float64, error) {
	plat := hardware.CPUXeon6226R()
	reg, err := registry.Open(filepath.Join(dir, "registry"))
	if err != nil {
		return nil, 0, err
	}
	defer reg.Close()
	fp := cs.sg.Fingerprint()
	var hit bool
	tr.timed(kResolve, func() { _, hit, err = reg.Resolve(fp, plat.Name, p.sched) })
	if err != nil || hit {
		return nil, 0, fmt.Errorf("fresh registry resolve: hit=%v err=%v", hit, err)
	}
	tr.misses.Add(1)
	sched, err := core.NewScheduler(p.sched)
	if err != nil {
		return nil, 0, err
	}
	log := filepath.Join(dir, "journal.jsonl")
	f, err := os.OpenFile(log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	jr := tunelog.NewJournal(countingWriter{w: f, n: &tr.bytes})

	rng := xrand.New(cs.seed)
	sim := hardware.NewSimulator(plat)
	meas := hardware.NewMeasurer(sim, rng.Split())
	var task *search.Task
	tr.timed(kSketch, func() { task = search.NewTask(cs.sg, plat, meas, rng.Split()) })
	tt := tr.instrument(task)
	task.OnMeasure = func(s *schedule.Schedule, exec float64, trial int) {
		lo := tt.begin()
		jr.Append(tunelog.NewRecordFP(fp, plat.Name, p.sched, s, exec, trial, cs.seed))
		tt.end(kAppend, lo)
		tr.records.Add(1)
	}
	eng := &tracedEngine{inner: sched.Engine, tasks: map[*search.Task]*taskTrace{task: tt}}
	search.TuneSession(context.Background(), eng, task, p.budget, measureK, nil)
	if err := jr.Err(); err != nil {
		f.Close()
		return nil, 0, err
	}
	if err := f.Close(); err != nil {
		return nil, 0, err
	}
	tr.samples.Add(int64(task.Cost.Len()))
	if task.Best == nil {
		return nil, 0, fmt.Errorf("no schedule measured")
	}
	rec := tunelog.NewRecord(cs.sg, plat.Name, p.sched, task.Best, task.BestExec, task.Trials, cs.seed)
	tr.timed(kPublish, func() { _, err = reg.Publish(rec) })
	if err != nil {
		return nil, 0, err
	}
	st := reg.Stats()
	tr.appends.Add(st.Appends)
	tr.locks.Add(st.LockAcquisitions)
	j, err := os.ReadFile(log)
	if err != nil {
		return nil, 0, err
	}
	exec := sim.Exec(task.Best)
	if math.IsInf(exec, 0) {
		return nil, 0, fmt.Errorf("best schedule has no finite time")
	}
	return j, exec, nil
}
