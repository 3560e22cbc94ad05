package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"harl"
	"harl/internal/fleet"
	"harl/internal/registry"
	"harl/internal/service"
	"harl/internal/workload"
)

// The daemon's traffic. The repository fixes the operators and the tune
// jobs; the rest of the mix is an assumption of this benchmark, chosen to
// stand for one property each, and is not taken from a measured trace.
const (
	// serveRate is the open loop's lookup rate (assumed): a light load, a
	// few percent of the capacity the ladder finds, so that lookup latency
	// shows the read path rather than queueing.
	serveRate = 1000.0
	// serveMissShare is the share of lookups for a key nobody published
	// (assumed): most requests hit, and a few ask for an operator nobody
	// has tuned.
	serveMissShare = 0.1
	// serveSkew is the Zipf exponent of the hits over the stored keys
	// (assumed), standing for "skewed hits": a few hot keys take most reads.
	serveSkew = 1.1
	// serveJobScheduler and serveJobTrials shape each POST /v1/tune job:
	// 320 trials is the library's default budget and the budget of the CI
	// serve smoke test's tunes. The ansor preset keeps a job to a fraction
	// of a second, so every Table-6 operator is tuned within a run; the HARL
	// search is measured by op-harl and net-bert.
	serveJobScheduler = "ansor"
	serveJobTrials    = 320
	// mainShare of the run's seconds carries the lookups and the trickle of
	// tune jobs; the rest goes to the rate ladder.
	mainShare = 0.4
	// latencyLimit is the p99 bound a ladder step must meet and
	// backlogLimit how much the generator's lateness may grow over a step
	// (both assumed).
	latencyLimit = 0.025
	backlogLimit = 0.005
	// ladderSearches is how many times the ladder is searched; the median
	// result is lookup_max_rps.
	ladderSearches = 5
	// latencyWindows splits the main phase into windows; lookup_p50_ms is
	// the median of the windows' p50s, so one stall moves one window, not
	// the run's figure.
	latencyWindows = 8
)

// The three schedulers a key is asked under: set-up stores every operator
// under storedScheduler, the tune jobs publish under serveJobScheduler, and a
// lookup miss asks under missScheduler, which nothing publishes.
const (
	storedScheduler = "random"
	missScheduler   = "harl"
)

// serveKey is one operator the load asks for.
type serveKey struct {
	op, shape string
	w         harl.Workload
	steps     string  // the stored record's steps
	exec      float64 // the stored schedule's noise-free time
}

// serveStack is the daemon under test: a registry, one in-process fleet
// worker and the tuning service, each on its own loopback listener.
type serveStack struct {
	dir      string
	reg      *harl.Registry
	fleet    *harl.Fleet
	queue    *service.Queue
	srv      *service.Server
	api      *http.Server
	worker   *http.Server
	base     string
	keys     []serveKey
	jobs     []int // the tune jobs' order, as indices into keys
	traceOn  atomic.Bool
	serveErr chan error
}

// serveInputs lists the operators the daemon serves, every Table-6
// configuration at batch 1 as the service names it (op and shape), and the
// seeded order in which the tune jobs ask for them.
func serveInputs(seed uint64) ([]serveKey, []int, error) {
	var keys []serveKey
	for _, cfg := range workload.Table6() {
		op := strings.ToLower(cfg.Category)
		if strings.HasPrefix(cfg.Category, "GEMM") {
			op = "gemm"
		}
		shape := strings.Trim(strings.ReplaceAll(fmt.Sprint(cfg.Params), " ", ","), "[]")
		w, err := harl.OperatorWorkload(op, cfg.Params, 1)
		if err != nil {
			return nil, nil, err
		}
		if w.FLOPs() != cfg.Build(1).FLOPs() {
			return nil, nil, fmt.Errorf("%s %s does not name the Table-6 operator", op, shape)
		}
		keys = append(keys, serveKey{op: op, shape: shape, w: w})
	}
	return keys, rand.New(rand.NewPCG(seed, 0x7365)).Perm(len(keys)), nil
}

// startServe builds the stack: it fills a fresh registry through the public
// tuning API (every Table-6 operator, random preset, 8 trials), starts the
// fleet worker and the service, and waits until the fleet reports its worker
// healthy.
func startServe(c *config, dir string, trace *tracer) (*serveStack, error) {
	st := &serveStack{dir: dir, serveErr: make(chan error, 2)}
	var err error
	if st.keys, st.jobs, err = serveInputs(c.seed); err != nil {
		return nil, err
	}
	reg, err := harl.OpenRegistry(filepath.Join(dir, "registry"))
	if err != nil {
		return nil, err
	}
	st.reg = reg
	for i := range st.keys {
		k := &st.keys[i]
		if _, err := harl.TuneOperator(k.w, harl.CPU(), harl.Options{Scheduler: storedScheduler, Trials: 8, Workers: 1, Seed: splitSeed(c.seed, 1000+i), Registry: reg}); err != nil {
			st.close()
			return nil, err
		}
		hit, ok, err := reg.Lookup(k.w, harl.CPU(), storedScheduler)
		if err != nil || !ok {
			st.close()
			return nil, fmt.Errorf("set-up key %s not stored: ok=%v err=%v", k.w.Name(), ok, err)
		}
		k.steps, k.exec = hit.Record.Steps, hit.ExecSeconds
	}

	wk, err := fleet.NewWorker(nil, 1)
	if err != nil {
		st.close()
		return nil, err
	}
	var workerHandler http.Handler = wk.Handler()
	if trace != nil {
		workerHandler = &tracedHandler{inner: workerHandler, tr: trace, on: &st.traceOn, classify: func(r *http.Request) (spanKind, bool) {
			return kFleet, r.URL.Path == "/v1/measure"
		}}
	}
	workerAddr, err := st.listen(&st.worker, workerHandler)
	if err != nil {
		st.close()
		return nil, err
	}
	st.fleet, err = harl.DialFleet([]string{workerAddr})
	if err != nil {
		st.close()
		return nil, err
	}
	if fs := st.fleet.Stats(); fs.Healthy != 1 {
		st.close()
		return nil, fmt.Errorf("fleet worker not healthy after dial: %+v", fs)
	}
	st.queue = service.NewQueue(&service.HarlTuner{Registry: reg, Fleet: st.fleet}, 1)
	st.srv = service.NewServer(st.queue, reg)
	st.srv.SetFleet(st.fleet)
	var apiHandler http.Handler = st.srv
	if trace != nil {
		apiHandler = &tracedHandler{inner: st.srv, tr: trace, on: &st.traceOn, classify: func(r *http.Request) (spanKind, bool) {
			switch {
			case r.Method == http.MethodGet && r.URL.Path == "/v1/schedule":
				return kSchedule, true
			case r.Method == http.MethodPost && r.URL.Path == "/v1/tune":
				return kTune, true
			}
			return 0, false
		}}
	}
	apiAddr, err := st.listen(&st.api, apiHandler)
	if err != nil {
		st.close()
		return nil, err
	}
	st.base = "http://" + apiAddr
	return st, nil
}

// listen serves h on a fresh loopback port and returns the address.
func (st *serveStack) listen(slot **http.Server, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	s := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	*slot = s
	go func() {
		if err := s.Serve(ln); err != nil && err != http.ErrServerClosed {
			st.serveErr <- err
		}
	}()
	return ln.Addr().String(), nil
}

// close stops everything the stack started and waits for it.
func (st *serveStack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if st.api != nil {
		st.api.Shutdown(ctx)
	}
	if st.queue != nil {
		st.queue.Shutdown()
	}
	if st.fleet != nil {
		st.fleet.Close()
	}
	if st.worker != nil {
		st.worker.Shutdown(ctx)
	}
	if st.reg != nil {
		st.reg.Close()
	}
}

// client is the load's HTTP client: at most `workers` connections.
func newClient(workers int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     workers,
			MaxIdleConnsPerHost: workers,
			DisableCompression:  true,
		},
	}
}

// lookupMix is the sequence of keys a run's lookups ask for: a Zipf-skewed
// stored key, or with probability serveMissShare a key asked under
// missScheduler. The sequence is a pure function of the seed.
type lookupMix struct {
	keys []*serveKey
	miss []bool
}

func newLookupMix(seed uint64, st *serveStack, n int) lookupMix {
	rng := rand.New(rand.NewPCG(seed, 0x6d6978))
	zipf := rand.NewZipf(rng, serveSkew, 1, uint64(len(st.keys)-1))
	rank := rng.Perm(len(st.keys))
	mix := lookupMix{keys: make([]*serveKey, n), miss: make([]bool, n)}
	for i := 0; i < n; i++ {
		if rng.Float64() < serveMissShare {
			mix.keys[i] = &st.keys[rng.IntN(len(st.keys))]
			mix.miss[i] = true
			continue
		}
		mix.keys[i] = &st.keys[rank[zipf.Uint64()]]
	}
	return mix
}

// run sends the lookups of mix at rate from the load's connections.
func (st *serveStack) run(cl *http.Client, ck *checker, workers int, rate float64, mix lookupMix) loopStats {
	return openLoop(rate, len(mix.keys), workers, nil, func(i int) bool { return st.lookup(cl, ck, mix.keys[i], mix.miss[i]) })
}

// schedulePath is the GET /v1/schedule request for key k under a scheduler.
func schedulePath(k *serveKey, scheduler string) string {
	return "/v1/schedule?op=" + k.op + "&shape=" + url.QueryEscape(k.shape) + "&scheduler=" + scheduler
}

// lookup sends GET /v1/schedule for key k and checks the answer: a stored
// key must return the record stored during set-up, a miss a 404 in the v1
// error envelope. It reports whether the request was a checked hit.
func (st *serveStack) lookup(cl *http.Client, ck *checker, k *serveKey, miss bool) bool {
	ck.op()
	sched := storedScheduler
	if miss {
		sched = missScheduler
	}
	resp, err := cl.Get(st.base + schedulePath(k, sched))
	if !ck.check(err == nil, "GET %s: %v", k.shape, err) {
		return false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !ck.check(err == nil, "GET %s body: %v", k.shape, err) {
		return false
	}
	if miss {
		var eb service.ErrorBody
		ck.check(resp.StatusCode == http.StatusNotFound && json.Unmarshal(body, &eb) == nil && eb.Error.Code == service.CodeNotFound && eb.Error.Message != "",
			"miss %s: status %d body %.120s", k.shape, resp.StatusCode, body)
		return false
	}
	var sr service.ScheduleResponse
	return ck.check(resp.StatusCode == http.StatusOK && json.Unmarshal(body, &sr) == nil && sr.CacheHit &&
		sr.Steps == k.steps && sr.ExecSeconds == k.exec,
		"hit %s %s: status %d body %.120s", k.op, k.shape, resp.StatusCode, body)
}

// jobResult is one finished tune job as the client saw it.
type jobResult struct {
	submitted, done time.Time
	outcome         service.Outcome
	ok              bool
}

// submit posts one tune miss and follows the job to its terminal state
// through the service's event stream, then checks that the job's key has
// become a hit.
func (st *serveStack) submit(cl *http.Client, ck *checker, k *serveKey, seed uint64) jobResult {
	ck.op()
	body, _ := json.Marshal(service.Request{Op: k.op, Shape: k.shape, Batch: 1, Scheduler: serveJobScheduler, Trials: serveJobTrials, Seed: seed, Workers: 1})
	r := jobResult{submitted: time.Now()}
	resp, err := cl.Post(st.base+"/v1/tune", "application/json", bytes.NewReader(body))
	if !ck.check(err == nil, "POST tune %s: %v", k.shape, err) {
		return r
	}
	var acc service.TuneAccepted
	err = json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	if !ck.check(err == nil && resp.StatusCode == http.StatusAccepted && !acc.Coalesced, "POST tune %s: status %d err %v", k.shape, resp.StatusCode, err) {
		return r
	}
	// The event stream ends with the finished job; it is read in-process so
	// following a job takes none of the load's connections.
	rec := httptest.NewRecorder()
	st.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+acc.Job.ID+"/events", nil))
	r.done = time.Now()
	var job service.Job
	sc := bufio.NewScanner(rec.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	done := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: done" {
			done = true
			continue
		}
		if done && strings.HasPrefix(line, "data: ") {
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &job); err != nil {
				done = false
			}
			break
		}
	}
	if !ck.check(done && job.State == service.StateDone && job.Outcome != nil, "job %s (%s): state %q error %q", acc.Job.ID, k.shape, job.State, job.Error) {
		return r
	}
	r.outcome = *job.Outcome
	r.ok = ck.check(r.outcome.Trials == serveJobTrials && !r.outcome.CacheHit && r.outcome.GFLOPS > 0,
		"job %s: trials %d cache_hit %v", acc.Job.ID, r.outcome.Trials, r.outcome.CacheHit)
	// The finished job's key must now be a hit with the job's schedule.
	hrec := httptest.NewRecorder()
	st.srv.ServeHTTP(hrec, httptest.NewRequest(http.MethodGet, schedulePath(k, serveJobScheduler), nil))
	var sr service.ScheduleResponse
	r.ok = ck.check(hrec.Code == http.StatusOK && json.Unmarshal(hrec.Body.Bytes(), &sr) == nil && sr.CacheHit &&
		sr.ExecSeconds == r.outcome.ExecSeconds && sr.BestSchedule == r.outcome.BestSchedule,
		"job %s: key %s is not a hit afterwards (status %d)", acc.Job.ID, k.shape, hrec.Code) && r.ok
	return r
}

// servePhase is the main phase. An open loop sends lookups at serveRate for
// dur seconds. Beside it, a trickle of tune jobs, one per Table-6 operator,
// is submitted at evenly spaced due times over the same dur, each from its
// own goroutine, so a job never waits for the client. It returns the
// lookups' statistics and the jobs in submission order once every job is
// done.
func (st *serveStack) servePhase(c *config, ck *checker, cl *http.Client, dur float64) (loopStats, []jobResult) {
	mix := newLookupMix(c.seed, st, int(serveRate*dur))
	jobs := make([]jobResult, len(st.jobs))
	gap := time.Duration(dur / float64(len(st.jobs)) * 1e9)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		start := time.Now()
		for i, ki := range st.jobs {
			time.Sleep(time.Until(start.Add(time.Duration(i) * gap)))
			wg.Add(1)
			go func() {
				defer wg.Done()
				jobs[i] = st.submit(cl, ck, &st.keys[ki], splitSeed(c.seed, 2000+i))
			}()
		}
	}()
	s := st.run(cl, ck, c.workers, serveRate, mix)
	wg.Wait()
	return s, jobs
}

// jobFigures sums the finished jobs: the trials, the time from each
// submission to its job being done, and the time each job was running. The
// queue runs one job at a time in submission order, so a job starts when it
// is submitted or when the job before it is done, whichever is later.
func jobFigures(jobs []jobResult) (trials, waited, ran float64, n int) {
	var prev time.Time
	for _, j := range jobs {
		if !j.ok {
			continue
		}
		start := j.submitted
		if prev.After(start) {
			start = prev
		}
		trials += float64(j.outcome.Trials)
		waited += j.done.Sub(j.submitted).Seconds()
		ran += j.done.Sub(start).Seconds()
		prev = j.done
		n++
	}
	return trials, waited, ran, n
}

// ladder finds lookup_max_rps with the jobs finished, lookups only: the
// median of ladderSearches bisections of the rate ladder. Each step sends
// max(1500, 0.25 s worth of) requests.
func (st *serveStack) ladder(c *config, ck *checker, cl *http.Client) (float64, []string) {
	step := 0
	var found []float64
	var log []string
	for k := 0; k < ladderSearches; k++ {
		rps := maxRate(ladderRates(), latencyLimit, backlogLimit, func(rate float64) loopStats {
			step++
			// Let the previous step's garbage and connections settle, so an
			// overloaded step does not fail the next one.
			runtime.GC()
			time.Sleep(50 * time.Millisecond)
			mix := newLookupMix(splitSeed(c.seed, 3000+step), st, int(math.Max(1500, rate*0.25)))
			return st.run(cl, ck, c.workers, rate, mix)
		})
		found = append(found, rps)
		log = append(log, fmt.Sprintf("%.0f/s", rps))
	}
	return median(found), log
}

// windowed returns the median over latencyWindows equal windows of the
// q-quantile of each window's hit latencies.
func windowed(s loopStats, q float64) float64 {
	var per []float64
	n := len(s.allLat)
	for w := 0; w < latencyWindows; w++ {
		var lat []float64
		for i := w * n / latencyWindows; i < (w+1)*n/latencyWindows; i++ {
			if s.hit[i] {
				lat = append(lat, s.allLat[i])
			}
		}
		per = append(per, quantile(lat, q))
	}
	return median(per)
}

func runServe(c *config, ck *checker) (report, error) {
	rep := report{metrics: map[string]float64{}}
	var tr *tracer
	if c.trace {
		tr = newTracer()
	}
	st, setup, err := timeSetup(1, func(i int) (*serveStack, error) {
		return startServe(c, filepath.Join(c.dir, fmt.Sprintf("serve%d", i)), tr)
	}, func(st *serveStack) {
		st.close()
		os.RemoveAll(st.dir)
	})
	if err != nil {
		return rep, err
	}
	defer st.close()
	cl := newClient(c.workers)
	defer cl.CloseIdleConnections()
	if tr != nil {
		return traceServe(c, ck, st, cl, tr)
	}
	rep.metrics["setup_s"] = setup

	start := time.Now()
	main, jobs := st.servePhase(c, ck, cl, c.seconds*mainShare)
	rps, steps := st.ladder(c, ck, cl)
	elapsed := time.Since(start).Seconds()
	select {
	case err := <-st.serveErr:
		return rep, err
	default:
	}
	trials, waited, ran, n := jobFigures(jobs)
	if n == 0 {
		return rep, fmt.Errorf("no tune job finished")
	}
	fs := st.fleet.Stats()
	ck.op()
	ck.check(fs.BatchesDispatched > 0 && fs.Fallbacks == 0, "fleet: %d batches dispatched, %d fallbacks", fs.BatchesDispatched, fs.Fallbacks)

	var gflops, execMs []float64
	var sim float64
	for _, j := range jobs {
		if j.ok {
			gflops = append(gflops, j.outcome.GFLOPS)
			execMs = append(execMs, j.outcome.ExecSeconds*1e3)
			sim += j.outcome.SearchSeconds
		}
	}
	rep.metrics["trials_per_s"] = trials / ran
	rep.metrics["best_gflops"] = geomean(gflops)
	rep.metrics["net_est_ms"] = geomean(execMs)
	rep.metrics["search_sim_s"] = sim
	rep.metrics["job_s"] = waited / float64(n)
	rep.metrics["lookup_p50_ms"] = windowed(main, 0.5) * 1e3
	rep.metrics["lookup_max_rps"] = rps
	rep.lines = append(rep.lines,
		fmt.Sprintf("main phase: %d lookups at %.0f/s, %d hits, windowed hit p50 %.3f ms, p99 %.3f ms (timed from due time); generator p99 lateness %.3f ms",
			len(main.allLat), serveRate, len(main.hitLat), windowed(main, 0.5)*1e3, windowed(main, 0.99)*1e3, quantile(main.late, 0.99)*1e3),
		fmt.Sprintf("tune jobs: %d of %d done (%s, %d trials), %.3f s submit to done, %.3f s running (mean)",
			n, len(jobs), serveJobScheduler, serveJobTrials, waited/float64(n), ran/float64(n)),
		"ladder searches found: "+strings.Join(steps, ", "),
		fmt.Sprintf("ladder: highest rate with p99 <= %.0f ms and backlog growth <= %.0f ms: %.0f/s; %d connections; run %.1fs", latencyLimit*1e3, backlogLimit*1e3, rps, c.workers, elapsed),
		fmt.Sprintf("fleet: %d batches, %d trials, %d retries, %d fallbacks", fs.BatchesDispatched, fs.TrialsDispatched, fs.Retries, fs.Fallbacks),
		"search_sim_s is the paper's simulated search time, deterministic per seed; wall-clock metrics sit beside it and are never compared with it")
	return rep, nil
}

// traceServe is the traced run of serve-mixed: the main phase with the
// service and fleet handlers timed, a tracing-overhead comparison of
// lookup segments with the handler timing off and on, and a replay of the
// registry calls with the workload's key mix.
func traceServe(c *config, ck *checker, st *serveStack, cl *http.Client, tr *tracer) (report, error) {
	st.traceOn.Store(true)
	main, jobs := st.servePhase(c, ck, cl, c.seconds*mainShare)
	if _, _, _, n := jobFigures(jobs); n == 0 {
		return report{}, fmt.Errorf("no tune job finished")
	}
	// Overhead: alternate untimed and timed lookup segments at serveRate.
	var off, on []float64
	for i := 0; i < 4; i++ {
		for _, traced := range []bool{false, true} {
			st.traceOn.Store(traced)
			s := st.run(cl, ck, c.workers, serveRate, newLookupMix(splitSeed(c.seed, 4000+i), st, 1100))
			if traced {
				on = append(on, s.hitLat...)
			} else {
				off = append(off, s.hitLat...)
			}
		}
	}
	st.traceOn.Store(false)
	overhead := median(on)/median(off) - 1

	// Registry replay: the same public calls the service makes, with the
	// workload's key mix, against its registry.
	mix := newLookupMix(splitSeed(c.seed, 5000), st, 1100)
	for i, k := range mix.keys {
		var ok bool
		var err error
		sched := storedScheduler
		if mix.miss[i] {
			sched = missScheduler
		}
		tr.timed(kLookup, func() { _, ok, err = st.reg.Lookup(k.w, harl.CPU(), sched) })
		ck.op()
		ck.check(err == nil && ok != mix.miss[i], "replayed lookup %s: ok=%v err=%v", k.shape, ok, err)
		if ok {
			tr.hits.Add(1)
		} else {
			tr.misses.Add(1)
		}
		tr.timed(kResolve, func() { _, ok, err = st.reg.Resolve(k.w, harl.CPU(), sched) })
		ck.op()
		ck.check(err == nil && ok != mix.miss[i], "replayed resolve %s: ok=%v err=%v", k.shape, ok, err)
	}
	// Publishes: improve stored records through a second handle on the same
	// directory, as another process publishing into the daemon's registry would.
	pub, err := registry.Open(filepath.Join(st.dir, "registry"))
	if err != nil {
		return report{}, err
	}
	recs := pub.Records()
	for i := 0; i < 40 && i < len(recs); i++ {
		r := recs[i]
		r.ExecSec *= 0.999
		r.Trial++
		tr.timed(kPublish, func() { _, err = pub.Publish(r) })
		ck.op()
		ck.check(err == nil, "replayed publish: %v", err)
	}
	ps := pub.Stats()
	if err := pub.Close(); err != nil {
		return report{}, err
	}
	rs := st.reg.Stats()
	tr.appends.Store(rs.Appends + ps.Appends)
	tr.locks.Store(rs.LockAcquisitions + ps.LockAcquisitions)
	fs := st.fleet.Stats()
	rep, err := traceReport(c, tr, overhead, quantile(main.late, 0.99)*1e3)
	if err != nil {
		return rep, err
	}
	rep.metrics["fleet.batches"] = float64(fs.BatchesDispatched)
	rep.metrics["fleet.retries"] = float64(fs.Retries)
	rep.metrics["fleet.fallbacks"] = float64(fs.Fallbacks)
	return rep, nil
}
