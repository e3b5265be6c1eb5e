package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/run"
	"repro/internal/runtime"
	"repro/internal/scenario"
)

// The dist-drain workload: the distributed backend under the elasticutor
// policy with three agent processes, an explicit small batch, a small
// modeled cost and sizable per-shard state, at a fixed rate below the knee
// of the per-batch Process RPC. Two graceful drains mid-run evacuate a
// node's state across processes (MoveExecState). It is the only workload
// where the wire data plane and cross-process migration do the work.

const (
	distRate   = 50_000 // offered tuples/s; the Process RPC knee is above 100k/s at batch 16
	distBatch  = 16
	distNodes  = 3
	distWarmup = time.Second
)

// distDrains are the graceful drains, as (fraction of the run, node).
var distDrains = []struct {
	frac float64
	node int
}{{0.3, 1}, {0.6, 2}}

func distSpec(secs float64) *scenario.Spec {
	return &scenario.Spec{
		Name:        "dist-drain",
		Description: "agent processes; two graceful drains mid-run",
		Nodes:       distNodes,
		Y:           6,
		Z:           16,
		DurationSec: secs,
		WarmupSec:   distWarmup.Seconds(),
		Workload: scenario.WorkloadSpec{
			Keys:       2500,
			Skew:       0.75,
			TupleBytes: 64,
			CPUCostUS:  2,
			StateKB:    256,
			RatePerSec: distRate,
		},
	}
}

// agentCPU tracks the CPU time of every agent process a run has used. Live
// agents are read from /proc on demand; a drained agent is read one last
// time when its drain event fires, after evacuation and before it exits.
type agentCPU struct {
	mu   sync.Mutex
	c    *dist.Cluster
	pids map[int]int           // node → agent pid
	last map[int]time.Duration // pid → last CPU reading
}

func newAgentCPU(c *dist.Cluster) *agentCPU {
	a := &agentCPU{c: c, pids: make(map[int]int), last: make(map[int]time.Duration)}
	for _, n := range c.Nodes() {
		a.pids[n] = c.AgentPID(n)
	}
	return a
}

func (a *agentCPU) readNode(n int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if pid, ok := a.pids[n]; ok {
		if cpu, err := procCPU(pid); err == nil {
			a.last[pid] = cpu
		}
	}
}

// total refreshes every live agent and sums all readings.
func (a *agentCPU) total() time.Duration {
	for _, n := range a.c.Nodes() {
		a.readNode(n)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	var sum time.Duration
	for _, cpu := range a.last {
		sum += cpu
	}
	return sum
}

func (a *agentCPU) allPIDs() []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]int, 0, len(a.pids))
	for _, pid := range a.pids {
		out = append(out, pid)
	}
	return out
}

// waitExited blocks until every pid has left the process table (the fleet
// reaps its agents asynchronously), killing stragglers after a grace period.
func waitExited(pids []int) error {
	deadline := time.Now().Add(10 * time.Second)
	for _, pid := range pids {
		for alive(pid) {
			if time.Now().After(deadline) {
				if p, err := os.FindProcess(pid); err == nil {
					_ = p.Kill() // best effort: the process may exit meanwhile
				}
				if time.Now().After(deadline.Add(5 * time.Second)) {
					return fmt.Errorf("agent %d did not exit", pid)
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

func alive(pid int) bool {
	if err := syscall.Kill(pid, 0); err != nil {
		return false
	}
	// A zombie still answers signal 0; only its reaping removes it.
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	return err == nil && !zombie(b)
}

func zombie(stat []byte) bool {
	for i := len(stat) - 1; i > 0; i-- {
		if stat[i] == ')' {
			return i+2 < len(stat) && stat[i+2] == 'Z'
		}
	}
	return false
}

// drain is one measured graceful drain.
type drain struct {
	start time.Time
	end   time.Time
	bytes int64
}

// distResult is one distributed run.
type distResult struct {
	win    window
	rep    *engine.Report
	ledger runtime.Ledger
	drains []drain
	spans  *spanLog
	obs    *observers
	rtt    time.Duration
	pids   []int
}

// spanLog counts every RPC span of a traced run and keeps the timings of
// the Process spans.
type spanLog struct {
	mu     sync.Mutex
	count  int64
	errs   int64
	rtt    []float64
	stages [5][]float64 // send-enqueue, wire, agent-queue, agent-service, reply
}

func (l *spanLog) add(sp runtime.RPCSpan) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.count++
	if sp.Err {
		l.errs++
	}
	if sp.Type != "process" {
		return
	}
	l.rtt = append(l.rtt, us(sp.RTT))
	for i, d := range [5]time.Duration{sp.SendEnqueue, sp.Wire, sp.AgentQueue, sp.AgentService, sp.Reply} {
		l.stages[i] = append(l.stages[i], us(d))
	}
}

func buildDist(spec *scenario.Spec, seed uint64) (*dist.Engine, *run.Run, error) {
	opt := dist.ScenarioOptions{}
	opt.Batch = distBatch
	return dist.BuildScenario(spec, "elasticutor", seed, opt)
}

func runDistOnce(seed uint64, secs float64, traced bool, tr *tracer, parent int) (res distResult, err error) {
	spec := distSpec(secs)
	d, h, err := buildDist(spec, seed)
	if err != nil {
		return res, err
	}
	cpu := newAgentCPU(d.C)
	res.pids = cpu.allPIDs()
	defer func() {
		if err != nil {
			// A failed run still stops its fleet and waits for the agents.
			d.C.Close()
			_ = waitExited(res.pids) // the run's own error is the one to report
		}
	}()
	drained := make(chan time.Time, len(distDrains))
	h.Observe(func(ev engine.Event) {
		if ev.Kind == engine.EventNodeDrain {
			cpu.readNode(ev.Node)
			// Observers run under the handle's lock: never block here.
			select {
			case drained <- time.Now():
			default:
			}
		}
	})
	if traced {
		res.spans = &spanLog{}
		res.obs = attachObservers(h, "dist", seed, d.Ledger)
		wd := res.obs.wd
		d.ObserveRPC(func(sp runtime.RPCSpan) {
			res.spans.add(sp)
			wd.ObserveRPC(sp)
			res.obs.rec.RecordRPC(sp)
		})
	}
	dur := time.Duration(secs * float64(time.Second))
	h.Start(context.Background())
	start := time.Now()

	// Inject the drains on the wall clock, timing each from Inject to its
	// drain event.
	drainErr := make(chan error, 1)
	go func() {
		for _, dr := range distDrains {
			at := start.Add(time.Duration(dr.frac * float64(dur)))
			select {
			case <-time.After(time.Until(at)):
			case <-h.Done():
				drainErr <- fmt.Errorf("run ended before the drain of node %d", dr.node)
				return
			}
			before := h.Snapshot().MigrationBytes
			sp := tr.begin(fmt.Sprintf("drain node %d: Inject to EventNodeDrain", dr.node), parent)
			t0 := time.Now()
			if err := h.Inject(engine.DrainNodeCmd(dr.node)); err != nil {
				drainErr <- err
				return
			}
			select {
			case t1 := <-drained:
				tr.end(sp)
				res.drains = append(res.drains, drain{start: t0, end: t1,
					bytes: h.Snapshot().MigrationBytes - before})
			case <-h.Done():
				drainErr <- fmt.Errorf("run ended during the drain of node %d", dr.node)
				return
			}
		}
		drainErr <- nil
	}()

	res.win, err = measure(h, dur, distWarmup, probes{agents: cpu.total, hist: func() *metrics.Histogram {
		lat, _ := d.LatencyAnatomy()
		return lat
	}})
	if err != nil {
		return res, err
	}
	if err := <-drainErr; err != nil {
		return res, err
	}
	res.rep, err = h.Wait()
	if err != nil {
		return res, err
	}
	res.ledger = d.Ledger()
	res.rtt = d.C.ControlRTT()
	if res.obs != nil {
		res.obs.finish(res.rep, h)
	}
	return res, waitExited(res.pids)
}

// timeDistSetup builds the distributed run (listener, engine, agent spawn)
// and tears it down again, returning the build time.
func timeDistSetup(seed uint64) (time.Duration, error) {
	t0 := time.Now()
	d, _, err := buildDist(distSpec(5), seed)
	if err != nil {
		return 0, err
	}
	took := time.Since(t0)
	pids := newAgentCPU(d.C).allPIDs()
	d.C.Close()
	return took, waitExited(pids)
}

func runDist(p params) (*outcome, error) {
	out := &outcome{}
	secs := p.seconds
	if p.trace {
		secs = p.seconds / 2
	}
	if secs < 4 {
		secs = 4
	}
	// Set-up (listener, engine, three agent spawns) is timed in blocks of
	// two builds, three blocks before and two after the run, so the median
	// spans the run's stretch of machine time. One untimed build first
	// absorbs the fresh process's first-use costs.
	var setup setupTimer
	timeSetups := func(blocks, n int, s *setupTimer) error {
		sp := p.tr.begin(fmt.Sprintf("setup: dist.BuildScenario, %d blocks x%d", blocks, n), 1)
		defer p.tr.end(sp)
		for i := 0; i < blocks; i++ {
			err := s.block(n, func() (time.Duration, error) {
				return timeDistSetup(subSeed(p.seed, 100+i))
			})
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := timeSetups(1, 1, &setupTimer{}); err != nil {
		return nil, err
	}
	if err := timeSetups(3, 2, &setup); err != nil {
		return nil, err
	}

	sp := p.tr.begin("run unobserved", 1)
	res, err := runDistOnce(p.seed, secs, false, nil, 0)
	p.tr.end(sp)
	if err != nil {
		return nil, err
	}
	if err := timeSetups(2, 2, &setup); err != nil {
		return nil, err
	}
	checkDist(out, res)
	l := res.ledger
	out.attempted = l.Admitted + l.Blocked
	out.failed = l.Blocked + l.DroppedFailure + l.DroppedShutdown

	if !p.trace {
		out.set("setup_s", setup.seconds(), "s")
		wallE2E(out, res.win)
		// Each second's quantiles, raw: they are bound by the agents'
		// timer sleeps and RPC round trips and do not follow the reference
		// pipeline. The median second leaves the drains' pauses out.
		out.set("lat_p50_ms", median(res.win.histQ(0.5)), "ms")
		out.set("lat_p90_ms", median(res.win.histQ(0.9)), "ms")
		out.set("delivered_pct", deliveredPct(l), "%")
		return out, nil
	}

	sp = p.tr.begin("run observed", 1)
	tr, err := runDistOnce(subSeed(p.seed, 1), secs, true, p.tr, sp)
	p.tr.end(sp)
	if err != nil {
		return nil, err
	}
	checkDist(out, tr)
	tr.obs.report(out)
	out.set("obs.overhead_pct", overheadPct(res.win, tr.win), "%")
	runtimeLayers(out, tr.win, tr.rep, tr.ledger, distRate)
	latencyLayers(out, tr.rep.Latency, tr.rep.LatencyStages)
	distLayers(out, tr)
	wl := distSpec(secs).ResolvedWorkload()
	sharedLayers(out, p.tr, wl.Keys, wl.Skew, 16)
	return out, nil
}

func checkDist(out *outcome, r distResult) {
	l := r.ledger
	reportLoss(l)
	out.check(l.Conserved(), "dist ledger not conserved: %v", l)
	out.check(r.rep.LostStateBytes == 0, "graceful drains lost %d state bytes", r.rep.LostStateBytes)
	out.check(r.rep.NodeDrains == len(distDrains), "%d drains, want %d", r.rep.NodeDrains, len(distDrains))
	out.check(len(r.rep.ChurnErrors) == 0, "churn errors: %v", r.rep.ChurnErrors)
	out.check(r.win.processed > 0, "nothing processed in the window")
}

func distLayers(out *outcome, r distResult) {
	s := r.spans
	out.set("dist.process_rtt_us_p50", quantile(s.rtt, 0.5), "us")
	out.set("dist.process_rtt_us_p99", quantile(s.rtt, 0.99), "us")
	for i, name := range []string{"send_enqueue", "wire", "agent_queue", "agent_service", "reply"} {
		out.set("dist.process_"+name+"_us", median(s.stages[i]), "us")
	}
	out.set("dist.rpcs_per_tuple", float64(s.count)/float64(r.ledger.Processed), "ratio")
	out.set("dist.rpc_errors", float64(s.errs), "count")
	w := r.win
	out.set("dist.control_cpu_ns_per_tuple", float64(w.cpu-w.agentCPU)/float64(w.processed), "ns")
	out.set("dist.agent_cpu_ns_per_tuple", float64(w.agentCPU)/float64(w.processed), "ns")
	out.set("dist.control_rtt_us", us(r.rtt), "us")
	var moves, rates []float64
	for _, d := range r.drains {
		took := d.end.Sub(d.start)
		moves = append(moves, ms(took))
		rates = append(rates, float64(d.bytes)/(1<<20)/took.Seconds())
	}
	out.set("dist.move_ms", median(moves), "ms")
	out.set("dist.migrate_mb_per_s", median(rates), "MB/s")
}
