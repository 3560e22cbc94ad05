package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"harl"
	"harl/internal/core"
	"harl/internal/hardware"
	"harl/internal/registry"
	"harl/internal/search"
	"harl/internal/sketch"
	"harl/internal/tunelog"
	"harl/internal/workload"
)

const (
	// netBudget gives each BERT session three waves over its ten subgraphs:
	// every subgraph is measured in the first wave, so Σ w·g is finite.
	netBudget = 480
	// netSessions is how many BERT tunes, each with its own seed, make up
	// one pass; net_est_ms is their geometric mean.
	netSessions = 6
	// netSetupBatch is how many set-ups one setup_s sample times: about
	// 0.2 s worth at HEAD.
	netSetupBatch = 1500
	// netLookupBatches lookup batches of netLookupBatch run after each
	// session, about 0.4 s in all, so that a run of seven or eight sessions
	// yields over a hundred batches for lookupStats.report.
	netLookupBatches = 16
	netLookupBatch   = 2500
)

// netKeys lists a BERT session's published subgraph keys.
func netKeys(ws []harl.Workload, o netOutcome) []lookupKey {
	keys := make([]lookupKey, len(o.res.Breakdown))
	for i, b := range o.res.Breakdown {
		keys[i] = lookupKey{reg: o.reg, w: ws[i], sched: "harl", exec: b.ExecSeconds}
	}
	return keys
}

// netCase is one BERT session of the draw.
type netCase struct {
	idx  int
	seed uint64
	dir  string
}

// netOutcome is what one BERT session produced.
type netOutcome struct {
	res     harl.NetworkResult
	reg     *harl.Registry
	journal []byte
	wall    time.Duration
}

func runNet(c *config, ck *checker) (report, error) {
	rep := report{metrics: map[string]float64{}}
	type netSetup struct {
		ws    []harl.Workload
		cases []netCase
	}
	// Set-up builds the network and checks that every subgraph is tunable
	// (it has sketches); each session makes its own directory.
	su, setup, err := timeSetup(netSetupBatch, func(int) (*netSetup, error) {
		ws, err := harl.NetworkWorkloads("bert", 1)
		if err != nil {
			return nil, err
		}
		for i, sg := range workload.BERT(1).Subgraphs {
			if sg.Fingerprint() != ws[i].Fingerprint() || len(sketch.Generate(sg)) == 0 {
				return nil, fmt.Errorf("bert subgraph %s is not tunable", sg.Name)
			}
		}
		s := &netSetup{ws: ws}
		for i := 0; i < netSessions; i++ {
			s.cases = append(s.cases, netCase{idx: i, seed: splitSeed(c.seed, i), dir: filepath.Join(c.dir, fmt.Sprintf("bert%d", i))})
		}
		return s, nil
	}, func(*netSetup) {})
	if err != nil {
		return rep, err
	}
	if c.trace {
		return traceNet(c, ck, su.ws, su.cases)
	}
	rep.metrics["setup_s"] = setup

	// After each session, with no session running, a lookup batch replays
	// the subgraph keys the first pass has published so far.
	first := make([]netOutcome, len(su.cases))
	var trials int64
	var busy time.Duration // Σ session wall time
	var keys []lookupKey
	var ls lookupStats
	start := time.Now()
	sessions := 0
	for pass := 0; pass == 0 || !c.deadline(start); pass++ {
		for _, cs := range su.cases {
			if pass > 0 && c.deadline(start) {
				break
			}
			out, err := netSession(c, cs, filepath.Join(cs.dir, fmt.Sprintf("pass%d", pass)))
			ck.op()
			sessions++
			if !ck.check(err == nil, "bert seed %d: %v", cs.seed, err) {
				continue
			}
			checkNet(ck, su.ws, out)
			trials += int64(out.res.Trials)
			busy += out.wall
			if pass == 0 {
				first[cs.idx] = out
				keys = append(keys, netKeys(su.ws, out)...)
			} else {
				ck.check(bytes.Equal(out.journal, first[cs.idx].journal), "bert seed %d: pass %d journal differs from pass 0", cs.seed, pass)
				out.reg.Close()
			}
			if len(keys) > 0 {
				ls.gap(keys, netLookupBatches, netLookupBatch, ck, nil)
			}
		}
	}
	elapsed := time.Since(start).Seconds()
	for _, o := range first {
		if o.reg != nil {
			o.reg.Close()
		}
	}
	if len(keys) == 0 {
		return rep, fmt.Errorf("no BERT session succeeded")
	}

	var est, gflops []float64
	var wall, sim float64
	for _, o := range first {
		if o.reg == nil {
			continue
		}
		est = append(est, o.res.EstimatedSeconds*1e3)
		wall += o.wall.Seconds()
		sim += o.res.SearchSeconds
		for i, b := range o.res.Breakdown {
			gflops = append(gflops, su.ws[i].FLOPs()/b.ExecSeconds/1e9)
		}
	}
	rep.metrics["trials_per_s"] = float64(trials) / busy.Seconds()
	rep.metrics["best_gflops"] = geomean(gflops)
	rep.metrics["net_est_ms"] = geomean(est)
	rep.metrics["search_sim_s"] = sim
	rep.metrics["job_s"] = wall / float64(len(est))
	lookups := ls.report(rep.metrics)
	rep.lines = append(rep.lines,
		fmt.Sprintf("%d BERT sessions (%d trials, %d workers) in %.2fs", sessions, netBudget, c.workers, elapsed),
		"search_sim_s is the paper's simulated search time, deterministic per seed; wall-clock metrics sit beside it and are never compared with it",
		lookups)
	return rep, nil
}

// netSession tunes BERT batch 1 through the public API with the concurrent
// multi-task tuner, a fresh registry and a journal.
func netSession(c *config, cs netCase, dir string) (netOutcome, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return netOutcome{}, err
	}
	reg, err := harl.OpenRegistry(filepath.Join(dir, "registry"))
	if err != nil {
		return netOutcome{}, err
	}
	log := filepath.Join(dir, "journal.jsonl")
	t0 := time.Now()
	res, err := harl.TuneNetwork("bert", 1, harl.CPU(), harl.Options{
		Scheduler: "harl", Trials: netBudget, Workers: c.workers, Seed: cs.seed, RecordLog: log, Registry: reg,
	})
	wall := time.Since(t0)
	if err != nil {
		reg.Close()
		return netOutcome{}, err
	}
	j, err := os.ReadFile(log)
	if err != nil {
		reg.Close()
		return netOutcome{}, err
	}
	return netOutcome{res: res, reg: reg, journal: j, wall: wall}, nil
}

// checkNet verifies one BERT session: a finite Σ w·g that matches its
// breakdown, every subgraph measured and published, and a journal holding
// exactly the measured trials.
func checkNet(ck *checker, ws []harl.Workload, o netOutcome) {
	r := o.res
	ck.check(!math.IsInf(r.EstimatedSeconds, 0) && r.EstimatedSeconds > 0, "bert: estimated %g s is not finite", r.EstimatedSeconds)
	ck.check(r.Trials == netBudget, "bert: %d trials, budget %d", r.Trials, netBudget)
	ck.check(bytes.Count(o.journal, []byte{'\n'}) == r.Measured, "bert: journal has %d records, result measured %d",
		bytes.Count(o.journal, []byte{'\n'}), r.Measured)
	if !ck.check(len(r.Breakdown) == len(ws), "bert: %d subgraphs reported, want %d", len(r.Breakdown), len(ws)) {
		return
	}
	sum := 0.0
	for i, b := range r.Breakdown {
		sum += float64(b.Weight) * b.ExecSeconds
		ck.check(b.Trials > 0, "bert: subgraph %s was never measured", b.Name)
		hit, ok, err := o.reg.Lookup(ws[i], harl.CPU(), "harl")
		ck.check(err == nil && ok && hit.ExecSeconds == b.ExecSeconds, "bert: subgraph %s registry hit ok=%v err=%v exec %g want %g",
			b.Name, ok, err, hit.ExecSeconds, b.ExecSeconds)
	}
	ck.check(math.Abs(sum-r.EstimatedSeconds) <= 1e-9*r.EstimatedSeconds, "bert: Σ w·g = %g, estimate %g", sum, r.EstimatedSeconds)
}

// traceNet is the traced run of net-bert: each session runs through the
// public API and then assembled from constructors, as core.NewParallelNetworkTuner
// and harl.TuneNetwork wire it, with every seam timed.
func traceNet(c *config, ck *checker, ws []harl.Workload, cases []netCase) (report, error) {
	tr := newTracer()
	var plain, traced time.Duration
	var keys []lookupKey
	var ls lookupStats
	var regs []*harl.Registry
	for _, cs := range cases {
		// Alternate which twin runs first, so warm-up favours neither.
		var out netOutcome
		var err error
		if cs.idx%2 == 0 {
			out, err = netSession(c, cs, filepath.Join(cs.dir, "plain"))
		}
		t0 := time.Now()
		j, est, terr := tracedNetSession(c, tr, cs, filepath.Join(cs.dir, "traced"))
		wall := time.Since(t0)
		if cs.idx%2 == 1 {
			out, err = netSession(c, cs, filepath.Join(cs.dir, "plain"))
		}
		ck.op()
		if !ck.check(err == nil, "bert seed %d: %v", cs.seed, err) {
			continue
		}
		checkNet(ck, ws, out)
		regs = append(regs, out.reg)
		keys = append(keys, netKeys(ws, out)...)
		ck.op()
		if ck.check(terr == nil, "bert seed %d traced: %v", cs.seed, terr) {
			ck.check(bytes.Equal(j, out.journal), "bert seed %d: traced journal differs from the untraced one", cs.seed)
			ck.check(est == out.res.EstimatedSeconds, "bert seed %d: traced estimate %g differs from %g", cs.seed, est, out.res.EstimatedSeconds)
		}
		plain += out.wall
		traced += wall
		ls.gap(keys, netLookupBatches, netLookupBatch, ck, tr)
	}
	for _, r := range regs {
		r.Close()
	}
	if len(keys) == 0 {
		return report{}, fmt.Errorf("no BERT session succeeded")
	}
	return traceReport(c, tr, traced.Seconds()/plain.Seconds()-1, 0)
}

// tracedNetSession assembles one BERT session from constructors: registry
// resolves, search.NewTaskSet, a search.MultiTuner whose engine factory
// wraps each engine, the journal recorder, a progress callback that times
// waves, and the final publishes. It returns the journal and Σ w·g.
func tracedNetSession(c *config, tr *tracer, cs netCase, dir string) ([]byte, float64, error) {
	plat := hardware.CPUXeon6226R()
	net := workload.BERT(1)
	reg, err := registry.Open(filepath.Join(dir, "registry"))
	if err != nil {
		return nil, 0, err
	}
	defer reg.Close()
	for _, sg := range net.Subgraphs {
		var hit bool
		tr.timed(kResolve, func() { _, hit, err = reg.Resolve(sg.Fingerprint(), plat.Name, "harl") })
		if err != nil || hit {
			return nil, 0, fmt.Errorf("fresh registry resolve: hit=%v err=%v", hit, err)
		}
		tr.misses.Add(1)
	}
	mk, policy, err := core.EngineFactory("harl")
	if err != nil {
		return nil, 0, err
	}
	cfg := search.DefaultMultiTunerConfig()
	cfg.RoundTrials = measureK
	cfg.Workers = c.workers
	cfg.GradAlpha, cfg.GradBeta = core.GradAlpha, core.GradBeta
	if policy == core.PolicyRoundRobin {
		cfg.Policy = search.AllocRoundRobin
	}
	var tasks []*search.Task
	tr.timed(kSketch, func() { tasks = search.NewTaskSet(net.Subgraphs, plat, cs.seed) })
	traces := make(map[*search.Task]*taskTrace, len(tasks))
	for _, t := range tasks {
		traces[t] = tr.instrument(t)
	}
	mt := search.NewMultiTuner(tasks, func() search.Engine { return &tracedEngine{inner: mk(), tasks: traces} }, cfg)

	log := filepath.Join(dir, "journal.jsonl")
	f, err := os.OpenFile(log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	jr := tunelog.NewJournal(countingWriter{w: f, n: &tr.bytes})
	fps := make([]string, len(tasks))
	for i, t := range tasks {
		fps[i] = t.Graph.Fingerprint()
	}
	mt.SetRecorder(func(r search.TrialRecord) {
		lo := tr.now()
		jr.Append(tunelog.NewRecordFP(fps[r.Task], plat.Name, "harl", r.Sched, r.Exec, r.Trial, cs.seed))
		tr.shared.add(span{kind: kAppend, lo: lo, hi: tr.now()})
		tr.records.Add(1)
	})
	// The progress callback fires at each wave barrier, once per task the
	// wave advanced; the first event of a wave closes its span.
	waveStart, lastWave := tr.now(), -1
	mt.OnProgress = func(p search.Progress) {
		if p.Wave == lastWave {
			return
		}
		now := tr.now()
		tr.shared.add(span{kind: kWave, lo: waveStart, hi: now})
		waveStart, lastWave = now, p.Wave
	}
	mt.RunCtx(context.Background(), netBudget)
	if err := jr.Err(); err != nil {
		f.Close()
		return nil, 0, err
	}
	if err := f.Close(); err != nil {
		return nil, 0, err
	}
	for i, t := range tasks {
		tr.samples.Add(int64(t.Cost.Len()))
		if t.Best == nil {
			continue
		}
		rec := tunelog.NewRecordFP(fps[i], plat.Name, "harl", t.Best, t.BestExec, t.Trials, cs.seed)
		tr.timed(kPublish, func() { _, err = reg.Publish(rec) })
		if err != nil {
			return nil, 0, err
		}
	}
	st := reg.Stats()
	tr.appends.Add(st.Appends)
	tr.locks.Add(st.LockAcquisitions)
	j, err := os.ReadFile(log)
	return j, mt.EstimatedExec(), err
}
