package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/run"
	"repro/internal/runtime"
	"repro/internal/simtime"
	"repro/internal/stream"
	"repro/internal/workload"
)

// The rt-wordcount workload: the runtime backend on the wall clock running a
// user topology — one source executor feeding one stateful counting bolt —
// in an open loop at a fixed rate near half of this topology's capacity on
// a 2-CPU machine. The bolt's handler keeps a per-key count through
// State.Get/Set and has zero modeled cost, so every nanosecond measured is
// the runtime's own hot path plus the handler.
//
// The topology is assembled from the same stream/engine types the facade's
// Builder wraps; the Builder does not hand out the runtime engine, and the
// conservation Ledger lives there.

const (
	rtRate    = 400_000 // offered tuples/s
	rtKeys    = 10_000
	rtSkew    = 0.8
	rtWarmup  = time.Second // excluded from the CPU and latency window
	rtKeyRing = 1 << 20     // pre-generated keys, replayed cyclically
	// rtStampEvery is the latency sampling stride: one tuple in this many
	// carries its creation time in the payload for the handler to read.
	rtStampEvery = 64
	// rtInFlight is each executor's queue credit in tuples. The engine's
	// default (2048) is 10–20 ms of the hottest executor's input at this
	// rate, and a shared VM now and then stalls a worker longer than that:
	// the source then refused a few to a thousand tuples in 4 of 10 runs,
	// a different number each run. 32768 rides out stalls of 200 ms or so;
	// a real overload still fills it and is refused.
	rtInFlight = 1 << 15
)

// wordCount is the bolt's user logic and the benchmark's own probes into it.
type wordCount struct {
	mu       sync.Mutex
	counters []*int64      // every per-key counter the handler created
	lat      []float64     // sampled emission→handler latencies, ms
	accessNS []float64     // sampled State.Get+Set costs, ns (traced runs)
	timed    atomic.Uint64 // handler calls seen, for the access-time stride
	probe    bool          // time State access (traced runs only)
	keys     []stream.Key  // pre-generated from the seed
	next     atomic.Uint64 // source cursor into keys
	start    time.Time     // payload stamps are offsets from here
}

// wordKeys pre-generates the source's key sequence from the seed, before
// any timing starts.
func wordKeys(seed uint64) []stream.Key {
	z := workload.NewZipf(rtKeys, rtSkew, simtime.NewRand(seed))
	keys := make([]stream.Key, rtKeyRing)
	for i := range keys {
		keys[i] = z.Sample()
	}
	return keys
}

// sample is the source: the next pre-generated key, and on every
// rtStampEvery-th tuple the creation time as payload.
func (w *wordCount) sample(simtime.Time) (stream.Key, int, interface{}) {
	i := w.next.Add(1)
	key := w.keys[i&(rtKeyRing-1)]
	if i%rtStampEvery == 0 {
		return key, 16, time.Since(w.start)
	}
	return key, 16, nil
}

// handle counts the tuple's key.
func (w *wordCount) handle(t stream.Tuple, s stream.StateAccessor) []stream.Tuple {
	var t0 time.Time
	probe := w.probe && w.timed.Add(1)%rtStampEvery == 0
	if probe {
		t0 = time.Now()
	}
	if p, ok := s.Get().(*int64); ok {
		*p += int64(t.Weight)
		s.Set(p)
	} else {
		p := new(int64)
		*p = int64(t.Weight)
		s.Set(p)
		w.mu.Lock()
		w.counters = append(w.counters, p)
		w.mu.Unlock()
	}
	if probe {
		d := time.Since(t0)
		w.mu.Lock()
		w.accessNS = append(w.accessNS, float64(d))
		w.mu.Unlock()
	}
	if born, ok := t.Payload.(time.Duration); ok {
		d := time.Since(w.start) - born
		w.mu.Lock()
		w.lat = append(w.lat, ms(d))
		w.mu.Unlock()
	}
	return nil
}

// latCount is the number of latency samples so far.
func (w *wordCount) latCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.lat)
}

// total sums every counter; call after the run has finished.
func (w *wordCount) total() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var n int64
	for _, p := range w.counters {
		n += *p
	}
	return n
}

func wordCountConfig(w *wordCount, seed uint64) (engine.Config, error) {
	pol, err := policy.ByName("elasticutor")
	if err != nil {
		return engine.Config{}, err
	}
	tp := stream.NewTopology("wordcount")
	src := tp.Add(&stream.Operator{Name: "words", Source: true})
	cnt := tp.Add(&stream.Operator{
		Name:          "count",
		Cost:          stream.CostModel(func(stream.Tuple) time.Duration { return 0 }),
		Handler:       w.handle,
		StatePerShard: 32 << 10,
	})
	tp.Connect(src.ID, cnt.ID)
	return engine.Config{
		Topology: tp,
		Cluster:  cluster.Default(1),
		Policy:   pol,
		Sources: map[stream.OperatorID]*engine.SourceDriver{
			src.ID: {Rate: func(simtime.Time) float64 { return rtRate }, Sample: w.sample},
		},
		SourceExecutors: 1,
		MaxInFlight:     rtInFlight,
		Y:               4,
		Z:               64,
		Seed:            seed,
		WarmUp:          rtWarmup,
	}, nil
}

// window is the measured stretch of a wall-clock run, from warm-up end to
// one second before the horizon, so start-up and the shutdown drain stay
// outside. It is cut into one-second intervals; CPU (this process plus
// every agent), processed tuples and heap allocation are summed over them.
// The reference pipeline (refpipe.go) runs beside the run, and its CPU share
// in an interval is how slow the machine was in that interval.
type window struct {
	wall      time.Duration
	cpu       time.Duration
	agentCPU  time.Duration
	processed int64
	offered   int64
	alloc     uint64
	gc        uint32
	gcCPU     float64
	// Per interval that processed tuples: CPU ns and heap bytes allocated
	// per tuple, the machine's slowness (the reference pipeline's CPU share
	// over refPipeNominal) and the interval's range of latency samples.
	cpuPerTuple   []float64
	allocPerTuple []float64
	slowness      []float64
	latFrom       []int
	latTo         []int
	histFrom      []*metrics.Histogram
	histTo        []*metrics.Histogram
	cores         []float64 // allocated cores, one sample per interval
	util          []float64
	snapUS        []float64 // Run.Snapshot call durations
}

// reading is one instant of a window.
type reading struct {
	at        time.Time
	cpu       time.Duration
	agentCPU  time.Duration
	refCPU    time.Duration
	processed int64
	offered   int64
	lat       int                // latency samples so far
	hist      *metrics.Histogram // cumulative latency histogram
	mem       memSample
	snap      engine.Snapshot
	snapDur   time.Duration
}

// probes are what a reading asks besides the run handle, any of which may
// be nil: the agents' CPU, the count of the benchmark's own latency samples,
// and the backend's cumulative latency histogram.
type probes struct {
	agents func() time.Duration
	lat    func() int
	hist   func() *metrics.Histogram
}

func readNow(h *run.Run, ref *refPipe, pr probes) (reading, error) {
	refCPU, err := ref.cpu()
	if err != nil {
		return reading{}, fmt.Errorf("reference pipeline: %v", err)
	}
	r := reading{at: time.Now(), cpu: selfCPU(), refCPU: refCPU, mem: readMem()}
	if pr.agents != nil {
		r.agentCPU = pr.agents()
	}
	if pr.lat != nil {
		r.lat = pr.lat()
	}
	if pr.hist != nil {
		r.hist = pr.hist()
	}
	t0 := time.Now()
	r.snap = h.Snapshot()
	r.snapDur = time.Since(t0)
	for _, op := range r.snap.Operators {
		if op.FirstHop {
			r.processed += op.Processed
			r.offered += op.Offered
		}
	}
	r.offered += r.snap.Blocked
	return r, nil
}

// measure waits out a started wall-clock run of d beside the reference
// pipeline, reading the window once per second (each reading polls
// Run.Snapshot), and sets the offered rate to 0 after the last reading. It
// returns when the run is done, or errors when the run overruns horizon
// plus drain budget.
func measure(h *run.Run, d, warm time.Duration, pr probes) (w window, err error) {
	start := time.Now()
	ref, err := startRefPipe()
	if err != nil {
		return w, err
	}
	defer func() {
		if stopErr := ref.stop(); err == nil && stopErr != nil {
			err = fmt.Errorf("reference pipeline: %v", stopErr)
		}
	}()
	bound := d + 30*time.Second
	timeout := time.NewTimer(bound)
	defer timeout.Stop()
	var prev reading
	for at := warm; at <= d-time.Second; at += time.Second {
		select {
		case <-time.After(time.Until(start.Add(at))):
		case <-h.Done():
			return w, fmt.Errorf("run ended %v early", d-time.Since(start))
		}
		r, err := readNow(h, ref, pr)
		if err != nil {
			return w, err
		}
		if at > warm {
			w.add(prev, r)
		}
		prev = r
	}
	// The window is over: silence the sources for the last second, so the
	// shutdown drain at the horizon finds no source mid-emission. The
	// runtime drops a tick's tuples when its drain ends while a source is
	// still emitting (ROADMAP item 1); offered tuples the benchmark loses
	// that way would make `failed` vary from run to run.
	if err := h.Inject(engine.SetRateCmd(0)); err != nil {
		return w, fmt.Errorf("quiesce the sources: %v", err)
	}
	select {
	case <-h.Done():
	case <-timeout.C:
		return w, fmt.Errorf("run did not return within %v", bound)
	}
	if len(w.cpuPerTuple) == 0 {
		return w, fmt.Errorf("run of %v leaves no measured window", d)
	}
	return w, nil
}

// add folds the interval from a to b into w.
func (w *window) add(a, b reading) {
	wall := b.at.Sub(a.at)
	cpu := b.cpu - a.cpu + b.agentCPU - a.agentCPU
	n := b.processed - a.processed
	w.wall += wall
	w.cpu += cpu
	w.agentCPU += b.agentCPU - a.agentCPU
	w.processed += n
	w.offered += b.offered - a.offered
	w.alloc += b.mem.totalAlloc - a.mem.totalAlloc
	w.gc += b.mem.numGC - a.mem.numGC
	w.gcCPU = b.mem.gcCPU
	if n > 0 && b.refCPU > a.refCPU {
		w.cpuPerTuple = append(w.cpuPerTuple, float64(cpu)/float64(n))
		w.allocPerTuple = append(w.allocPerTuple, float64(b.mem.totalAlloc-a.mem.totalAlloc)/float64(n))
		share := float64(b.refCPU-a.refCPU) / float64(wall)
		w.slowness = append(w.slowness, share/refPipeNominal)
		w.latFrom = append(w.latFrom, a.lat)
		w.latTo = append(w.latTo, b.lat)
		w.histFrom = append(w.histFrom, a.hist)
		w.histTo = append(w.histTo, b.hist)
	}
	w.snapUS = append(w.snapUS, float64(b.snapDur)/float64(time.Microsecond))
	w.cores = append(w.cores, float64(b.snap.UsedCores))
	w.util = append(w.util, b.snap.Utilization)
}

// latQ is the q-quantile of each interval's latency samples.
func (w window) latQ(lat []float64, q float64) []float64 {
	out := make([]float64, len(w.latFrom))
	for i := range out {
		out[i] = quantile(lat[w.latFrom[i]:w.latTo[i]], q)
	}
	return out
}

// histQ is the q-quantile of each interval's latencies in the backend's
// histogram, in ms.
func (w window) histQ(q float64) []float64 {
	out := make([]float64, len(w.histFrom))
	for i := range out {
		out[i] = ms(deltaQuantile(w.histFrom[i], w.histTo[i], q))
	}
	return out
}

// atRef states per-interval times at the reference speed, each divided by
// its interval's slowness, and returns their median.
func (w window) atRef(vals []float64) float64 {
	xs := make([]float64, len(vals))
	for i, v := range vals {
		xs[i] = v / w.slowness[i]
	}
	return median(xs)
}

// rtResult is one wall-clock wordcount run.
type rtResult struct {
	win    window
	rep    *engine.Report
	ledger runtime.Ledger
	wc     *wordCount
	obs    *observers
}

func runWordCount(seed uint64, secs float64, traced bool) (rtResult, error) {
	var res rtResult
	wc := &wordCount{keys: wordKeys(seed), probe: traced, start: time.Now()}
	cfg, err := wordCountConfig(wc, seed)
	if err != nil {
		return res, err
	}
	rt, err := runtime.New(cfg, runtime.Options{})
	if err != nil {
		return res, err
	}
	d := time.Duration(secs * float64(time.Second))
	h := run.NewRuntime(rt, d)
	if traced {
		res.obs = attachObservers(h, "runtime", seed, rt.Ledger)
	}
	h.Start(context.Background())
	res.win, err = measure(h, d, rtWarmup, probes{lat: wc.latCount})
	if err != nil {
		return res, err
	}
	res.rep, err = h.Wait()
	if err != nil {
		return res, err
	}
	res.ledger = rt.Ledger()
	res.wc = wc
	if res.obs != nil {
		res.obs.finish(res.rep, h)
	}
	return res, nil
}

func runRT(p params) (*outcome, error) {
	out := &outcome{}
	secs := p.seconds
	if p.trace {
		// Untraced then traced halves: their difference is the observation
		// overhead.
		secs = p.seconds / 2
	}
	if secs < 3 {
		secs = 3
	}
	// Set-up is timed in blocks of back-to-back constructions, five before
	// and four after the run, so the median spans the run's stretch of
	// machine time. The first constructions in a fresh process fault in
	// memory and run several times slower; an untimed block absorbs that.
	keys := wordKeys(p.seed)
	var setup setupTimer
	build := func() (time.Duration, error) {
		return stopwatch(func() error {
			cfg, err := wordCountConfig(&wordCount{keys: keys}, p.seed)
			if err != nil {
				return err
			}
			rt, err := runtime.New(cfg, runtime.Options{})
			if err != nil {
				return err
			}
			_ = run.NewRuntime(rt, time.Second)
			return nil
		})
	}
	timeSetups := func(blocks int, s *setupTimer) error {
		sp := p.tr.begin(fmt.Sprintf("setup: runtime.New, %d blocks x50", blocks), 1)
		defer p.tr.end(sp)
		for i := 0; i < blocks; i++ {
			if err := s.block(50, build); err != nil {
				return err
			}
		}
		return nil
	}
	if err := timeSetups(1, &setupTimer{}); err != nil {
		return nil, err
	}
	if err := timeSetups(5, &setup); err != nil {
		return nil, err
	}

	sp := p.tr.begin("run unobserved", 1)
	res, err := runWordCount(p.seed, secs, false)
	p.tr.end(sp)
	if err != nil {
		return nil, err
	}
	if err := timeSetups(4, &setup); err != nil {
		return nil, err
	}
	checkWordCount(out, res)
	l := res.ledger
	out.attempted = l.Admitted + l.Blocked
	out.failed = l.Blocked + l.DroppedFailure + l.DroppedShutdown

	if !p.trace {
		out.set("setup_s", setup.seconds(), "s")
		wallE2E(out, res.win)
		out.set("lat_p50_ms", res.win.atRef(res.win.latQ(res.wc.lat, 0.5)), "ms")
		out.set("lat_p90_ms", res.win.atRef(res.win.latQ(res.wc.lat, 0.9)), "ms")
		out.set("delivered_pct", deliveredPct(l), "%")
		return out, nil
	}

	sp = p.tr.begin("run observed", 1)
	tr, err := runWordCount(subSeed(p.seed, 1), secs, true)
	p.tr.end(sp)
	if err != nil {
		return nil, err
	}
	checkWordCount(out, tr)
	tr.obs.report(out)
	out.set("obs.overhead_pct", overheadPct(res.win, tr.win), "%")
	runtimeLayers(out, tr.win, tr.rep, tr.ledger, rtRate)
	out.set("state.access_ns", median(tr.wc.accessNS), "ns")
	latencyLayers(out, tr.rep.Latency, tr.rep.LatencyStages)
	out.set("metrics.lat_p99_ms", tr.win.atRef(tr.win.latQ(tr.wc.lat, 0.99)), "ms")
	sharedLayers(out, p.tr, rtKeys, rtSkew, 64)
	return out, nil
}

func checkWordCount(out *outcome, r rtResult) {
	l := r.ledger
	reportLoss(l)
	out.check(l.Conserved(), "runtime ledger not conserved: %v", l)
	out.check(r.wc.total() == l.Processed, "handler counted %d tuples, ledger processed %d", r.wc.total(), l.Processed)
	out.check(len(r.wc.lat) >= 100, "only %d latency samples", len(r.wc.lat))
	out.check(r.win.processed > 0, "nothing processed in the window")
}

// wallE2E sets the end-to-end rate, CPU and allocation metrics of a window.
// Allocation is the median second's. On rt the program allocates in a burst
// every few seconds that grows with the run (about 1 MB by the end of a
// 20 s run), so where the bursts fall moves the whole-window ratio
// (runtime.alloc_b_per_tuple) by up to 8% between runs; the median second
// moves by under 1%.
func wallE2E(out *outcome, w window) {
	out.set("tuples_per_s", float64(w.processed)/w.wall.Seconds(), "1/s")
	out.set("cpu_ns_per_tuple", w.atRef(w.cpuPerTuple), "ns")
	out.set("alloc_b_per_tuple", median(w.allocPerTuple), "B")
}

// reportLoss names on standard error which ledger counts make a run's
// `failed` non-zero.
func reportLoss(l runtime.Ledger) {
	if l.Blocked+l.DroppedFailure+l.DroppedShutdown > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: tuples lost: %v\n", l)
	}
}

// deliveredPct is the share of offered tuples that were neither refused at
// the source nor dropped (at a failure or the shutdown drain).
func deliveredPct(l runtime.Ledger) float64 {
	offered := l.Admitted + l.Blocked
	lost := l.Blocked + l.DroppedFailure + l.DroppedShutdown
	return 100 * float64(offered-lost) / float64(offered)
}

// overheadPct compares CPU per tuple with observation on and off.
func overheadPct(plain, traced window) float64 {
	return 100 * (traced.atRef(traced.cpuPerTuple)/plain.atRef(plain.cpuPerTuple) - 1)
}

func runtimeLayers(out *outcome, w window, rep *engine.Report, l runtime.Ledger, rate float64) {
	out.set("runtime.batches", float64(rep.Events), "count")
	out.set("runtime.tuples_per_batch", float64(l.Processed)/float64(rep.Events), "ratio")
	expected := rate * w.wall.Seconds()
	out.set("runtime.source_lag_pct", 100*(expected-float64(w.offered))/expected, "%")
	out.set("runtime.refused", float64(l.Blocked), "count")
	out.set("runtime.dropped_shutdown", float64(l.DroppedShutdown), "count")
	out.set("runtime.cores", median(w.cores), "count")
	out.set("runtime.utilization", median(w.util), "ratio")
	out.set("runtime.alloc_b_per_tuple", float64(w.alloc)/float64(w.processed), "B")
	out.set("run.snapshot_us", median(w.snapUS), "us")
	out.set("proc.gc_cycles", float64(w.gc), "count")
	out.set("proc.gc_cpu_pct", 100*w.gcCPU, "%")
	out.set("proc.ref_pipe_cpu_pct", 100*refPipeNominal*median(w.slowness), "%")
	var decisions []float64
	for _, d := range rep.SchedulingWall {
		decisions = append(decisions, us(d))
	}
	out.set("scheduler.decisions", float64(len(decisions)), "count")
	out.set("scheduler.decision_us_p50", quantile(decisions, 0.5), "us")
	out.set("scheduler.decision_us_max", quantile(decisions, 1), "us")
	out.set("executor.reassignments", float64(rep.Reassignments), "count")
	out.set("executor.inter_node_reassignments", float64(rep.InterNodeReassigns), "count")
	out.set("state.migration_mb", float64(rep.MigrationBytes)/(1<<20), "MB")
}
