package main

import (
	"context"
	_ "embed"
	"fmt"
	goruntime "runtime"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/scenario"
	"repro/internal/simtime"
)

// The sim-elastic workload: the simulator under the elasticutor policy with
// the built-in hotspot dynamics (the hot key set moves every 2.5 s, ω = 8
// shuffles/min, 85% load) and one graceful node drain mid-run. Each
// invocation runs the 16 s virtual scenario back to back under seeds derived
// from --seed until --seconds of wall time have passed.

const simPolicy = "elasticutor"

// simDetRuns is how many sub-runs feed the modeled (seed-deterministic)
// metrics: latency quantiles, the delivered share and allocation. Pooling a
// fixed seed set keeps them independent of machine speed; the wall-rate
// metrics use every sub-run that fits in --seconds.
const simDetRuns = 24

// simRefSeed is the default seed whose scenario fingerprint is pinned in
// testdata/sim_fingerprint.txt. Every invocation runs it first, as warm-up
// and as the simulator's correctness check.
const simRefSeed = 1

//go:embed testdata/sim_fingerprint.txt
var simFingerprint string

func simSpec() (*scenario.Spec, error) {
	s, err := scenario.ByName("hotspot")
	if err != nil {
		return nil, err
	}
	s.Name = "sim-elastic"
	s.Description = "hotspot dynamics plus one graceful drain"
	s.Events = []scenario.NodeEvent{{Kind: scenario.EventDrain, AtSec: 8, Node: 1}}
	return s, s.Validate()
}

// subSeed derives the i-th sub-run seed of an invocation (splitmix64 step),
// so seeds 1 and 2 share no sub-run.
func subSeed(seed uint64, i int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// simRun is one measured sub-run.
type simRun struct {
	rep     *engine.Report
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64
	tuples  int64 // first-hop tuples processed, whole run
	offered int64 // first-hop admissions plus source refusals, whole run
	refused int64
	gc      uint32
	gcCPU   float64
	snapDur []time.Duration
	obs     *observers // traced sub-runs only
	speed   float64    // refKernel time over refNominal, just before the run
}

// runSimOnce builds and runs one scenario instance. An observed sub-run
// carries the observation surfaces and requests a live Snapshot every 100 ms
// of wall time, recording how long each took.
func runSimOnce(s *scenario.Spec, seed uint64, observed bool) (simRun, error) {
	goruntime.GC()
	inst, err := s.Build(simPolicy, seed)
	if err != nil {
		return simRun{}, err
	}
	var o *observers
	if observed {
		o = attachObservers(inst.Handle, "sim", seed, nil)
	}
	m0 := readMem()
	c0 := selfCPU()
	t0 := time.Now()
	inst.Handle.Start(context.Background())
	var snaps []time.Duration
	if observed {
		tick := time.NewTicker(100 * time.Millisecond)
	loop:
		for {
			select {
			case <-inst.Handle.Done():
				break loop
			case <-tick.C:
				ts := time.Now()
				inst.Handle.Snapshot()
				snaps = append(snaps, time.Since(ts))
			}
		}
		tick.Stop()
	}
	rep, err := inst.Handle.Wait()
	wall := time.Since(t0)
	cpu := selfCPU() - c0
	m1 := readMem()
	if err != nil {
		return simRun{}, err
	}
	r := simRun{rep: rep, wall: wall, cpu: cpu, alloc: m1.totalAlloc - m0.totalAlloc,
		gc: m1.numGC - m0.numGC, gcCPU: m1.gcCPU, snapDur: snaps, obs: o}
	if o != nil {
		o.finish(rep, inst.Handle)
	}
	final := inst.Handle.Snapshot()
	for i, op := range final.Operators {
		if op.FirstHop && i < len(rep.PerOperator) {
			r.tuples += rep.PerOperator[i].Processed
			r.offered += rep.PerOperator[i].Offered
		}
	}
	// Blocked is whole-run (not warm-up gated), like PerOperator.Offered;
	// Generated is warm-up gated and would mix bases.
	r.refused = rep.Blocked + rep.Dropped
	r.offered += rep.Blocked
	return r, nil
}

func runSim(p params) (*outcome, error) {
	spec, err := simSpec()
	if err != nil {
		return nil, err
	}
	out := &outcome{}

	sp := p.tr.begin("reference run (fingerprint)", 1)
	ref, err := runSimOnce(spec, simRefSeed, false)
	p.tr.end(sp)
	if err != nil {
		return nil, err
	}
	got := scenario.Fingerprint(spec.Name, ref.rep)
	want := strings.TrimSpace(simFingerprint)
	out.check(got == want, "sim fingerprint for seed %d:\n got  %s\n want %s", simRefSeed, got, want)

	// Set-up: engine construction, placement and scenario wiring, timed in
	// the warmed-up process, in blocks of back-to-back builds.
	var setup setupTimer
	sp = p.tr.begin("setup: scenario.Spec.Build, 9 blocks x50", 1)
	for b, i := 0, 0; b < 9; b++ {
		err := setup.block(50, func() (time.Duration, error) {
			i++
			return stopwatch(func() error {
				_, err := spec.Build(simPolicy, subSeed(p.seed, 100+i))
				return err
			})
		})
		if err != nil {
			return nil, err
		}
	}
	p.tr.end(sp)

	var runs []simRun
	deadline := time.Now().Add(time.Duration(p.seconds * float64(time.Second)))
	for i := 0; len(runs) < simDetRuns || time.Now().Before(deadline); i++ {
		// A traced invocation observes every other sub-run; the untraced
		// ones between them are its overhead baseline.
		traced := p.trace && i%2 == 1
		k := refKernel()
		sp := p.tr.begin(fmt.Sprintf("sub-run %d observed=%v", i, traced), 1)
		r, err := runSimOnce(spec, subSeed(p.seed, i), traced)
		p.tr.end(sp)
		if err != nil {
			return nil, err
		}
		r.speed = float64(k) / float64(refNominal)
		out.check(len(r.rep.ChurnErrors) == 0, "sub-run %d churn errors: %v", i, r.rep.ChurnErrors)
		out.check(r.rep.NodeDrains == 1, "sub-run %d: %d drains, want 1", i, r.rep.NodeDrains)
		out.check(r.rep.LostStateBytes == 0, "sub-run %d lost %d state bytes in a graceful drain", i, r.rep.LostStateBytes)
		out.check(r.tuples > 0, "sub-run %d processed nothing", i)
		runs = append(runs, r)
	}

	lat := metrics.NewHistogram()
	stages := metrics.NewStageSet()
	var offered, refused int64
	var allocs, rates, cpus []float64
	for i, r := range runs {
		// Times at the reference speed (see refKernel).
		rates = append(rates, float64(r.tuples)/r.wall.Seconds()*r.speed)
		cpus = append(cpus, float64(r.cpu)/float64(r.tuples)/r.speed)
		if i < simDetRuns {
			lat.Merge(r.rep.Latency)
			stages.Merge(r.rep.LatencyStages)
			offered += r.offered
			refused += r.refused
			allocs = append(allocs, float64(r.alloc)/float64(r.tuples))
		}
	}
	// The simulator's operation is a whole simulated run: one that errors
	// or breaks a check fails. Tuples the modeled backpressure refuses are
	// part of the simulated outcome and show in delivered_pct.
	out.attempted = int64(len(runs))
	if len(out.problems) > 0 {
		out.failed = 1
	}

	if !p.trace {
		out.set("setup_s", setup.seconds(), "s")
		out.set("tuples_per_s", median(rates), "1/s")
		out.set("cpu_ns_per_tuple", median(cpus), "ns")
		out.set("lat_p50_ms", ms(histQuantile(lat, 0.50)), "ms")
		out.set("lat_p90_ms", ms(histQuantile(lat, 0.90)), "ms")
		out.set("delivered_pct", 100*float64(offered-refused)/float64(offered), "%")
		out.set("alloc_b_per_tuple", median(allocs), "B")
		return out, nil
	}
	simLayers(out, p.tr, spec, runs[:simDetRuns], lat, stages)
	return out, nil
}

// simLayers fills the per-layer metrics the simulator exercises, from the
// deterministic sub-run set (odd sub-runs carry the observers).
func simLayers(out *outcome, tr *tracer, spec *scenario.Spec, runs []simRun, lat *metrics.Histogram, stages *metrics.StageSet) {
	var events, tuples, alloc, reassign, inter, migB int64
	var evRates, snaps, decisions, gcs, plainCPU, tracedCPU, traceBytes, kernels []float64
	var anomalies float64
	for _, r := range runs {
		events += int64(r.rep.Events)
		tuples += r.tuples
		alloc += int64(r.alloc)
		reassign += r.rep.Reassignments
		inter += r.rep.InterNodeReassigns
		migB += r.rep.MigrationBytes
		gcs = append(gcs, float64(r.gc))
		kernels = append(kernels, r.speed*ms(refNominal))
		for _, d := range r.rep.SchedulingWall {
			decisions = append(decisions, us(d))
		}
		cpu := float64(r.cpu) / float64(r.tuples) / r.speed
		if r.obs == nil {
			evRates = append(evRates, float64(r.rep.Events)/r.wall.Seconds())
			plainCPU = append(plainCPU, cpu)
			continue
		}
		tracedCPU = append(tracedCPU, cpu)
		for _, d := range r.snapDur {
			snaps = append(snaps, us(d))
		}
		sub := &outcome{}
		r.obs.report(sub)
		anomalies += sub.metrics["obs.anomalies"].Value
		traceBytes = append(traceBytes, sub.metrics["obs.trace_bytes"].Value)
		out.problems = append(out.problems, sub.problems...)
	}
	n := float64(len(runs))
	out.set("engine.events", float64(events)/n, "count")
	out.set("engine.events_per_s", median(evRates), "1/s")
	out.set("engine.events_per_tuple", float64(events)/float64(tuples), "ratio")
	out.set("engine.alloc_b_per_event", float64(alloc)/float64(events), "B")
	out.set("executor.reassignments", float64(reassign)/n, "count")
	out.set("executor.inter_node_reassignments", float64(inter)/n, "count")
	out.set("state.migration_mb", float64(migB)/n/(1<<20), "MB")
	out.set("scheduler.decisions", float64(len(decisions))/n, "count")
	out.set("scheduler.decision_us_p50", quantile(decisions, 0.5), "us")
	out.set("scheduler.decision_us_max", quantile(decisions, 1), "us")
	out.set("run.snapshot_us", median(snaps), "us")
	out.set("obs.anomalies", anomalies, "count")
	out.set("obs.trace_bytes", median(traceBytes), "B")
	out.set("obs.overhead_pct", 100*(median(tracedCPU)/median(plainCPU)-1), "%")
	out.set("proc.gc_cycles", median(gcs), "count")
	out.set("proc.gc_cpu_pct", 100*runs[len(runs)-1].gcCPU, "%")
	out.set("proc.ref_kernel_ms", median(kernels), "ms")
	latencyLayers(out, lat, stages)

	wl := spec.ResolvedWorkload()
	sp := tr.begin("simtime.Clock events", 1)
	out.set("simtime.event_ns", float64(clockEventCost(int(events/int64(len(runs))))), "ns")
	tr.end(sp)
	sharedLayers(out, tr, wl.Keys, wl.Skew, spec.Z)
}

// clockEventCost times the bare event heap: n events scheduled with After
// from inside running events, the simulator's own pattern.
func clockEventCost(n int) time.Duration {
	if n < 1000 {
		n = 1000
	}
	c := simtime.NewClock()
	left := n
	var step func()
	step = func() {
		left--
		if left > 0 {
			c.After(simtime.Microsecond, step)
		}
	}
	// A standing population of pending events, as in a live simulation.
	for i := 0; i < 256; i++ {
		c.After(simtime.Duration(i+1)*simtime.Second*1000, func() {})
	}
	t0 := time.Now()
	c.After(0, step)
	c.RunUntil(simtime.Time(0).Add(simtime.Second * 999))
	return time.Since(t0) / time.Duration(n)
}

func latencyLayers(out *outcome, lat *metrics.Histogram, stages *metrics.StageSet) {
	out.set("metrics.lat_samples", float64(lat.Count()), "count")
	out.set("metrics.lat_p99_ms", ms(histQuantile(lat, 0.99)), "ms")
	shares := stages.Shares()
	for st := metrics.Stage(0); st < metrics.NumStages; st++ {
		out.set("metrics.stage_share_"+st.String(), shares[st], "ratio")
	}
}
