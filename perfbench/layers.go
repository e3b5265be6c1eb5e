package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/balancer"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/qmodel"
	"repro/internal/run"
	"repro/internal/runtime"
	"repro/internal/scheduler"
	"repro/internal/simtime"
	"repro/internal/stream"
	"repro/internal/workload"
)

// sharedLayers times the benchmark's own calls into the layers every
// workload leans on, at the workload's parameters: the Zipf sampler, the
// latency histogram and stage recorder, the intra-executor balancer and the
// dynamic scheduler (M/M/k model plus Algorithm 1).
func sharedLayers(out *outcome, tr *tracer, keys int, skew float64, z int) {
	parent := tr.begin("layer timings", 1)
	defer tr.end(parent)
	timed := func(name string, fn func()) {
		id := tr.begin(name, parent)
		fn()
		tr.end(id)
	}
	if _, ok := out.metrics["proc.ref_kernel_ms"]; !ok {
		// The machine's speed while the wall-clock layers were timed.
		timed("refKernel", func() {
			var ks []float64
			for i := 0; i < 15; i++ {
				ks = append(ks, ms(refKernel()))
			}
			out.set("proc.ref_kernel_ms", median(ks), "ms")
		})
	}
	rng := simtime.NewRand(7)
	zipf := workload.NewZipf(keys, skew, rng)
	var sink stream.Key
	timed("workload.Zipf.Sample", func() {
		out.set("workload.sample_ns", ns(timeOp(5, 200_000, func() { sink += zipf.Sample() })), "ns")
	})
	_ = sink

	h := metrics.NewHistogram()
	d := simtime.Duration(0)
	timed("metrics.Histogram.Observe", func() {
		out.set("metrics.observe_ns", ns(timeOp(5, 200_000, func() {
			d = (d + 7919*simtime.Microsecond) % (200 * simtime.Millisecond)
			h.Observe(d, 1)
		})), "ns")
	})
	rec := metrics.NewStageRecorder(4)
	lane := 0
	timed("metrics.StageRecorder.Observe", func() {
		out.set("metrics.stage_observe_ns", ns(timeOp(5, 100_000, func() {
			lane++
			d = (d + 7919*simtime.Microsecond) % (200 * simtime.Millisecond)
			rec.Observe(lane, metrics.StageObservation{Total: d, Service: d / 4, Weight: 1})
		})), "ns")
	})
	timed("balancer.Rebalance", func() { out.set("balancer.rebalance_us", us(rebalanceCost(zipf, z)), "us") })
	timed("scheduler.Assign", func() { out.set("scheduler.assign_us_32n", us(assignCost()), "us") })
}

// rebalanceCost times one balancer.Rebalance over z shards whose loads
// follow the workload's key skew, starting from the worst assignment (the
// hottest shards stacked on one task), at four tasks.
func rebalanceCost(z *workload.Zipf, shards int) time.Duration {
	if shards < 8 {
		shards = 8
	}
	load := make([]float64, shards)
	for k := 0; k < z.N(); k++ {
		load[k%shards] += z.Prob(stream.Key(k))
	}
	assign := make([]int, shards)
	for i := range assign {
		assign[i] = i % 4
	}
	for i := 0; i < shards/4; i++ {
		assign[i] = 0
	}
	return timeOp(5, 50, func() { balancer.Rebalance(load, assign, 4, 1.2, 0) })
}

// assignCost times one scheduling decision at the paper's Table 3 scale:
// the M/M/k allocation for 43 executors, then Algorithm 1 placing them on
// 32 eight-core nodes.
func assignCost() time.Duration {
	const nodes, execs = 32, 43
	rng := simtime.NewRand(11)
	loads := make([]qmodel.ExecutorLoad, execs)
	lambda0 := 0.0
	for j := range loads {
		loads[j] = qmodel.ExecutorLoad{Lambda: 1000 + 4000*rng.Float64(), Mu: 1000}
		lambda0 += loads[j].Lambda
	}
	in := scheduler.Input{
		Capacity:      make([]int, nodes),
		Local:         make([]int, execs),
		StateBytes:    make([]float64, execs),
		DataIntensity: make([]float64, execs),
		Existing:      make([][]int, nodes),
	}
	for i := range in.Capacity {
		in.Capacity[i] = 8
		in.Existing[i] = make([]int, execs)
	}
	for j := 0; j < execs; j++ {
		in.Local[j] = j % nodes
		in.StateBytes[j] = float64(8<<20) * rng.Float64()
		in.DataIntensity[j] = float64(1<<20) * rng.Float64()
		in.Existing[j%nodes][j] = 1
	}
	return timeOp(5, 20, func() {
		in.Alloc = qmodel.Allocate(loads, lambda0, 50*simtime.Millisecond, nodes*8).K
		if _, err := scheduler.Assign(in); err != nil {
			panic(err) // demand is capped to capacity by Allocate
		}
	})
}

func ns(d time.Duration) float64 { return float64(d) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// countWriter is io.Discard that counts what it was given.
type countWriter struct{ n atomic.Int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n.Add(int64(len(p)))
	return len(p), nil
}

// observers are the repository's own observation surfaces attached to a
// traced run: the NDJSON trace recorder (into a byte counter), the invariant
// watchdog and the /metrics exporter, scraped once per second.
type observers struct {
	rec   *obs.Recorder
	wd    *obs.Watchdog
	exp   *obs.Exporter
	bytes *countWriter
	stop  chan struct{}
	done  chan struct{}
}

func attachObservers(h *run.Run, backend string, seed uint64, ledger func() runtime.Ledger) *observers {
	o := &observers{bytes: &countWriter{}, stop: make(chan struct{}), done: make(chan struct{})}
	o.rec = obs.Attach(h, o.bytes, obs.Header{Backend: backend, Policy: "elasticutor", Seed: seed},
		obs.RecordOptions{SnapshotEvery: simtime.Second})
	o.wd = obs.AttachWatchdog(h, obs.WatchdogOptions{Ledger: ledger, OnAnomaly: o.rec.RecordAnomaly})
	o.exp = obs.NewExporter(h).SetWatchdog(o.wd)
	if ledger != nil {
		o.exp.SetLedger(ledger)
	}
	go func() {
		defer close(o.done)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-o.stop:
				return
			case <-tick.C:
				o.exp.WriteMetrics(io.Discard)
			}
		}
	}()
	return o
}

// finish stops the scraper and closes the trace.
func (o *observers) finish(rep *engine.Report, h *run.Run) {
	close(o.stop)
	<-o.done
	_ = o.rec.Finish(rep, h.LostEvents(), nil) // a write error stays in rec.Err, which report checks
}

// report sets the observation layer's metrics and fails the run on any
// watchdog anomaly.
func (o *observers) report(out *outcome) {
	an := o.wd.Anomalies()
	out.set("obs.anomalies", float64(len(an)), "count")
	out.set("obs.trace_bytes", float64(o.bytes.n.Load()), "B")
	for _, a := range an {
		out.check(false, "watchdog anomaly %s at %v: %s", a.Kind, a.At, a.Detail)
	}
	out.check(o.rec.Err() == nil, "trace recorder: %v", o.rec.Err())
}

// declared is one metric as BENCHMARK.json lists it.
type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkFile is the benchmark's declaration at the repository root, the
// working directory of every run.
const benchmarkFile = "BENCHMARK.json"

// declaredMetrics reads the end-to-end or per-layer metric set from
// BENCHMARK.json.
func declaredMetrics(traced bool) ([]declared, error) {
	b, err := os.ReadFile(benchmarkFile)
	if err != nil {
		return nil, err
	}
	var f struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %v", benchmarkFile, err)
	}
	set := f.EndToEnd
	if traced {
		set = f.PerLayer
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s declares no metrics for trace=%v", benchmarkFile, traced)
	}
	return set, nil
}

// complete checks a run's metrics against the declared set: a name outside
// the set or a wrong unit is a benchmark bug; a per-layer metric the
// workload does not exercise is filled with 0, an end-to-end one missing
// fails the run.
func complete(out *outcome, set []declared, traced bool) {
	known := make(map[string]string, len(set))
	for _, m := range set {
		known[m.Name] = m.Unit
		if _, ok := out.metrics[m.Name]; ok {
			continue
		}
		if traced {
			out.set(m.Name, 0, m.Unit)
		} else {
			out.check(false, "metric %s not measured", m.Name)
		}
	}
	for name, m := range out.metrics {
		unit, ok := known[name]
		out.check(ok, "metric %s is not in the declared set", name)
		out.check(!ok || unit == m.Unit, "metric %s has unit %s, declared %s", name, m.Unit, unit)
	}
}
