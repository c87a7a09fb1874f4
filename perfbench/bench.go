package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"thermalscaffold/internal/experiments"
	"thermalscaffold/internal/telemetry"
)

// bench is one run of one workload.
type bench struct {
	wl      *workload
	seed    int64
	seconds float64
	log     io.Writer

	attempted, failed atomic.Int64
}

// env is one set-up: the system under load and the run's requests.
type env struct {
	sys   system
	serve *serveSys // nil for paper-quick
	st    streams
}

func (e *env) close() {
	if e.serve != nil {
		e.serve.close()
	}
}

// paperSys runs paper-quick's open-loop ops in process.
type paperSys struct {
	ops []*stackOp
	tel *telemetry.Collector
}

func (p *paperSys) do(j *job) bool {
	op := p.ops[j.op]
	v, err := op.solve(p.tel)
	return err == nil && math.Abs(v-op.ref) <= 1e-9*op.ref
}

// setup builds the system and warms it up: serve workloads post every
// warm-up request of st once (filling the hot caches); paper-quick
// solves its op pool once for the references. The requests themselves
// are built before set-up starts.
func (b *bench) setup(tel *telemetry.Collector, st streams) (*env, error) {
	if b.wl.nodes == 0 {
		ps := &paperSys{ops: newStackOps(b.seed, stackOpPool), tel: tel}
		for i, op := range ps.ops {
			ref, err := op.solve(nil)
			if err != nil {
				return nil, fmt.Errorf("stack op %d: %w", i, err)
			}
			op.ref = ref
		}
		return &env{sys: ps, st: st}, nil
	}
	ss, err := startServe(b.wl.nodes, tel)
	if err != nil {
		return nil, err
	}
	for i := range st.warm {
		if !ss.do(&st.warm[i]) {
			ss.close()
			return nil, fmt.Errorf("warm-up request %d (%s) failed", i, st.warm[i].mode)
		}
	}
	// The oracle samples timed traffic, not the warm-up.
	ss.mu.Lock()
	ss.samples, ss.sampled = map[string][]oracleSample{}, map[string]bool{}
	ss.mu.Unlock()
	return &env{sys: ss, serve: ss, st: st}, nil
}

// open runs one open-loop phase and counts its requests.
func (b *bench) open(e *env, jobs []job, rate float64, d time.Duration) openResult {
	r := openLoop(e.sys, jobs, max(b.wl.nodes, 1), nproc(), rate, d)
	b.attempted.Add(int64(len(r.samples)))
	b.failed.Add(int64(r.failed()))
	return r
}

// suitePass runs the 19 regenerations once, checking every headline.
// It returns the pass's wall time and each regeneration's.
func (b *bench) suitePass(tel *telemetry.Collector, rec *recorder) (time.Duration, map[string]time.Duration) {
	per := map[string]time.Duration{}
	var root int
	if rec != nil {
		root = rec.begin("experiments.pass", 0, 0)
	}
	start := time.Now()
	for _, rg := range regens {
		// As go test -bench does before each benchmark: collect the
		// previous regeneration's garbage, so each one starts from the
		// same heap and the heap's high-water mark reflects one
		// regeneration, not when the collector happened to run.
		runtime.GC()
		var id int
		if rec != nil {
			id = rec.begin("experiments."+rg.name, root, 0)
		}
		t := time.Now()
		got, err := rg.run(tel)
		per[rg.name] = time.Since(t)
		if rec != nil {
			rec.end(id)
		}
		if err == nil {
			err = checkHeadlines(rg, got)
		}
		b.attempted.Add(1)
		if err != nil {
			b.failed.Add(1)
			fmt.Fprintf(b.log, "perfbench: %s: %v\n", rg.name, err)
		}
	}
	d := time.Since(start)
	if rec != nil {
		rec.end(root)
	}
	return d, per
}

// verify runs the served-answer oracle; failures count as failed
// requests.
func (b *bench) verify(e *env) {
	if e.serve == nil {
		return
	}
	checked, fails := e.serve.verifySample()
	for _, err := range fails {
		fmt.Fprintf(b.log, "perfbench: oracle: %v\n", err)
	}
	b.failed.Add(int64(len(fails)))
	if checked == 0 {
		b.failed.Add(1)
		fmt.Fprintln(b.log, "perfbench: oracle: no answer sampled")
	}
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 9

// rssSegments is how many parts a serve workload's closed loop runs
// in, each with its own high-water RSS.
const rssSegments = 5

// untraced measures the end-to-end metrics: set-up, then a closed loop
// for the run's seconds, then the oracle.
func (b *bench) untraced() (map[string]float64, error) {
	wl := b.wl
	st := wl.buildStreams(b.seed, nil)
	var setups []float64
	var e *env
	for i := 0; i < setupReps; i++ {
		// Collect the garbage of the streams and of earlier set-ups
		// first, so that no set-up pays for it.
		runtime.GC()
		t := time.Now()
		ne, err := b.setup(nil, st)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		if i < setupReps-1 {
			ne.close()
		} else {
			e = ne
		}
	}
	defer e.close()
	m := map[string]float64{"setup_s": median(setups)}

	// The timed phase runs in rssSegments parts. Each part starts by
	// resetting the high-water RSS, so a part's peak counts the system,
	// its traffic and the streams, not the discarded set-ups, and
	// peak_rss_mb is the median part's peak.
	debug.FreeOSMemory()
	var peaks []float64
	segment := func(run func()) {
		if err := resetPeakRSS(); err != nil {
			fmt.Fprintf(b.log, "perfbench: peak RSS not reset, peak_rss_mb covers the whole process: %v\n", err)
		}
		run()
		peaks = append(peaks, peakRSSMB())
	}
	dur := time.Duration(b.seconds * float64(time.Second))
	if wl.nodes == 0 {
		// One caller: whole passes until the time is used, at least
		// two so suite_s is a median. A part is one pass.
		var passes []float64
		start := time.Now()
		for len(passes) < 2 || time.Since(start) < dur {
			segment(func() {
				d, _ := b.suitePass(nil, nil)
				passes = append(passes, d.Seconds())
			})
		}
		m["suite_s"] = median(passes)
		m["throughput_rps"] = float64(len(passes)*len(regens)) / time.Since(start).Seconds()
	} else {
		// nproc callers; each part goes on where the last one stopped.
		var chunks []float64
		sent := 0
		for i := 0; i < rssSegments; i++ {
			segment(func() {
				cr := closedLoop(e.sys, e.st.closed, nproc(), dur/rssSegments, sent)
				sent += cr.done
				b.attempted.Add(int64(cr.done))
				b.failed.Add(int64(cr.failed))
				chunks = append(chunks, cr.chunkSeconds(wl.suiteLen)...)
			})
		}
		if len(chunks) == 0 {
			return nil, fmt.Errorf("closed loop finished no %d-request suite", wl.suiteLen)
		}
		m["suite_s"] = median(chunks)
		// Completions per second of the median chunk: one stall slows
		// one chunk, not the reported rate.
		m["throughput_rps"] = float64(wl.suiteLen) / m["suite_s"]
	}
	m["peak_rss_mb"] = median(peaks)

	b.verify(e)
	m["success_ratio"] = 1 - float64(b.failed.Load())/float64(b.attempted.Load())
	return m, nil
}

// solverSnap is a snapshot of the collector's solver counters and
// solve traces.
type solverSnap struct {
	counters  map[string]int64
	wall      time.Duration
	byPrecond map[string]int64
}

func snapSolver(tel *telemetry.Collector) solverSnap {
	rep := tel.Report("perfbench", nil)
	s := solverSnap{counters: rep.Counters, byPrecond: map[string]int64{}}
	for _, t := range rep.Solves {
		s.wall += time.Duration(t.WallNS)
		s.byPrecond[t.Precond]++
	}
	return s
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// traced measures the per-layer metrics. It runs the low phase once
// untraced for gen.trace_overhead, then sets up again with a telemetry
// collector attached and runs the closed, low and high phases with
// spans recorded.
func (b *bench) traced(spanPath string) (map[string]float64, error) {
	wl, p := b.wl, b.wl.tracedPlan(b.seconds)
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	st := wl.buildStreams(b.seed, &p)

	e0, err := b.setup(nil, st)
	if err != nil {
		return nil, err
	}
	p50u, _, ok0 := b.open(e0, st.low, wl.lowRPS, p.untracedLow).quantiles(tailQ)
	e0.close()

	tel := telemetry.New()
	tel.SetMaxTraces(0)
	rec := newRecorder()
	if wl.nodes == 0 {
		experiments.Telemetry = tel
		defer func() { experiments.Telemetry = nil }()
	}
	e, err := b.setup(tel, st)
	if err != nil {
		return nil, err
	}
	defer e.close()

	// Solver metrics cover the timed phases; busy is the callers' time
	// spent waiting on them, the base of solver.solve_share.
	before := snapSolver(tel)
	var busy time.Duration
	if wl.nodes == 0 {
		d, per := b.suitePass(tel, rec)
		busy += d
		for name, t := range per {
			m["experiments."+name+"_s"] = t.Seconds()
		}
		for _, c := range []string{telemetry.CounterRCEvals, telemetry.CounterFullVerifies, telemetry.CounterBoundViolations} {
			m["pillar."+c] = float64(tel.Counter(c))
		}
	} else {
		cr := closedLoop(e.sys, e.st.closed, nproc(), p.closed, 0)
		busy += cr.busy
		b.attempted.Add(int64(cr.done))
		b.failed.Add(int64(cr.failed))
		e.serve.mu.Lock()
		e.serve.track = map[*job]servedInfo{}
		e.serve.mu.Unlock()
	}

	// Sample the queue depth sparsely while the open loop runs.
	stop := make(chan struct{})
	var qmax atomic.Int64
	var wg sync.WaitGroup
	if e.serve != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(250 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					if _, qd, err := e.serve.metrics(); err == nil && qd > qmax.Load() {
						qmax.Store(qd)
					}
				}
			}
		}()
	}
	low := b.open(e, e.st.low, wl.lowRPS, p.low)
	high := b.open(e, e.st.high, wl.highRPS, p.high)
	close(stop)
	wg.Wait()
	after := snapSolver(tel)

	for i, s := range low.samples {
		rec.add("gen.request", 0, i+1, s.due, s.end)
	}
	p50t, p90t, ok1 := low.quantiles(tailQ)
	p50h, p90h, ok2 := high.quantiles(tailQ)
	lateP90, ok3 := quantile(sortedMS(append(low.late, high.late...)), tailQ)
	if !ok0 || !ok1 || !ok2 || !ok3 {
		return nil, fmt.Errorf("traced open loop has too few samples")
	}
	m["gen.p50_ms.low"], m["gen.p90_ms.low"] = p50t, p90t
	m["gen.p50_ms.high"], m["gen.p90_ms.high"] = p50h, p90h
	m["gen.trace_overhead"] = p50t / p50u
	m["gen.late_ms.p90"] = lateP90
	m["gen.sent"] = float64(len(low.samples) + len(high.samples))

	for _, r := range []openResult{low, high} {
		for _, s := range r.samples {
			busy += s.end.Sub(s.start)
		}
	}
	for name, counter := range map[string]string{
		"solver.solves":      telemetry.CounterSolves,
		"solver.iterations":  telemetry.CounterIterations,
		"solver.fallbacks":   telemetry.CounterFallbacks,
		"solver.warm_starts": telemetry.CounterWarmStarts,
	} {
		m[name] = float64(after.counters[counter] - before.counters[counter])
	}
	m["solver.iters_per_solve"] = ratio(m["solver.iterations"], m["solver.solves"])
	for _, pc := range precondNames {
		m["solver.solves."+pc] = float64(after.byPrecond[pc] - before.byPrecond[pc])
	}
	m["solver.solve_s"] = (after.wall - before.wall).Seconds()
	m["solver.solve_share"] = ratio(m["solver.solve_s"], busy.Seconds())

	if e.serve != nil {
		if err := b.serveLayers(e, rec, m); err != nil {
			return nil, err
		}
		m["serve.queue_depth.max"] = float64(qmax.Load())
	}
	b.verify(e)
	if err := rec.write(spanPath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(b.log, "perfbench: spans written to %s\n", spanPath)
	return m, nil
}

// replaySize is how many generated requests the traced run replays
// through the layers' public functions.
func (wl *workload) replaySize() int {
	if wl.name == "serve-cold" {
		return 60
	}
	return 300
}

// serveLayers fills the service's per-layer metrics: the layer replay
// and the counters read from /metrics after the timed phases.
func (b *bench) serveLayers(e *env, rec *recorder, m map[string]float64) error {
	ss := e.serve
	var attributed, served time.Duration
	n := min(b.wl.replaySize(), len(e.st.low))
	for i := 0; i < n; i++ {
		j := &e.st.low[i]
		spent, err := replay(rec, i+1, j)
		if err != nil {
			return fmt.Errorf("replaying request %d: %w", i, err)
		}
		ss.mu.Lock()
		info, ok := ss.track[j]
		ss.mu.Unlock()
		if !ok {
			continue
		}
		served += info.latency
		for name, d := range spent {
			// A cache hit runs only decode, normalize and encode.
			if !info.cached || name == "specio.parse" || name == "specio.normalize" || name == "specio.encode" {
				attributed += d
			}
		}
	}
	m["serve.unattributed_share"] = 1 - ratio(attributed.Seconds(), served.Seconds())
	for _, l := range []struct {
		metric, span string
		unit         time.Duration
	}{
		{"specio.parse_us", "specio.parse", time.Microsecond},
		{"specio.normalize_us", "specio.normalize", time.Microsecond},
		{"specio.build_ms", "specio.build", time.Millisecond},
		{"specio.encode_us", "specio.encode", time.Microsecond},
		{"serve.keys_us", "serve.keys", time.Microsecond},
		{"solver.cold_solve_ms", "solver.cold_solve", time.Millisecond},
		{"rom.reduce_ms", "rom.reduce", time.Millisecond},
		{"rom.eval_ms", "rom.eval", time.Millisecond},
		{"solver.trace_ms", "solver.trace", time.Millisecond},
	} {
		var xs []float64
		for _, d := range rec.durations(l.span) {
			xs = append(xs, float64(d)/float64(l.unit))
		}
		if len(xs) > 0 {
			m[l.metric] = median(xs)
		}
	}

	c, _, err := ss.metrics()
	if err != nil {
		return err
	}
	f := func(k string) float64 { return float64(c[k]) }
	m["serve.cache_hit_ratio"] = ratio(f(telemetry.CounterCacheHits), f(telemetry.CounterCacheHits)+f(telemetry.CounterCacheMisses))
	m["solver.family_assembly_hit_ratio"] = ratio(f(telemetry.CounterFamilyAssemblyHits), f(telemetry.CounterFamilyAssemblyHits)+f(telemetry.CounterFamilyAssemblyMisses))
	m["serve.coalesced"] = f(telemetry.CounterCoalesced)
	m["serve.rejected"] = f(telemetry.CounterRejected)
	m["serve.key_answer_changes"] = float64(ss.keyAnswerChanges())
	m["cluster.peer_hit_ratio"] = ratio(f(telemetry.CounterPeerHits), f(telemetry.CounterPeerHits)+f(telemetry.CounterPeerMisses))
	m["cluster.peer_fallbacks"] = f(telemetry.CounterPeerFallbacks)
	m["cluster.peer_hedges"] = f(telemetry.CounterPeerHedges)
	m["cluster.peer_fills"] = f(telemetry.CounterPeerFills)
	m["cluster.peer_gossip"] = f(telemetry.CounterPeerGossip)
	return nil
}
