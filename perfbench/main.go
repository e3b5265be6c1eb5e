// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It drives the three execution backends through their public entry points
// (scenario specs, runtime/dist scenario builders, the run handle, reports,
// ledgers and snapshots) and times every layer from outside.
//
//	perfbench --workload sim-elastic --seed 3 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (see README.md for both tables and the workload rationale).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/dist"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's one-line verdict.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload hands back: the verdict counts, the metrics of
// the requested set, and the reasons any correctness check failed.
type outcome struct {
	attempted, failed int64
	metrics           map[string]metric
	problems          []string
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = make(map[string]metric)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) check(ok bool, format string, args ...interface{}) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// params are the command-line inputs every workload receives.
type params struct {
	seed    uint64
	seconds float64
	trace   bool
	tr      *tracer // non-nil on traced runs
}

var workloads = map[string]func(params) (*outcome, error){
	"sim-elastic":  runSim,
	"rt-wordcount": runRT,
	"dist-drain":   runDist,
}

// hangBudget bounds a whole invocation beyond its measured seconds: set-up,
// the reference run, shutdown drains and the traced layer timings all fit
// well inside it, so overrunning it means a run hung.
const hangBudget = 120 * time.Second

// spanDir receives the traced run's spans, relative to the working
// directory (the checkout root, whose build directory is ignored by git).
const spanDir = ".bench_build/spans"

func main() {
	// Distributed runs re-execute this binary as their per-node agents.
	dist.MainIfAgent()
	refPipeMain()

	workload := flag.String("workload", "", "workload name (sim-elastic, rt-wordcount, dist-drain)")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured wall seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()

	fn, ok := workloads[*workload]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %v)\n", *workload, names)
		os.Exit(2)
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be > 0 and --trace 0 or 1")
		os.Exit(2)
	}

	set, err := declaredMetrics(*trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v (run from the repository root)\n", err)
		os.Exit(2)
	}

	// A hang is a failed run, not a stuck benchmark: report it and exit.
	limit := time.Duration(*seconds*float64(time.Second)) + hangBudget
	watchdog := time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v\n", *workload, limit)
		emit(failedRun)
		os.Exit(3)
	})

	p := params{seed: *seed, seconds: *seconds, trace: *trace == 1}
	if p.trace {
		p.tr = newTracer()
	}
	root := p.tr.begin(*workload, 0)
	out, err := fn(p)
	p.tr.end(root)
	watchdog.Stop()
	if err != nil {
		// A hang, an early end or a lost agent is a failed run.
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		emit(failedRun)
		os.Exit(1)
	}
	if p.trace {
		path, err := p.tr.write(spanDir, *workload, *seed)
		out.check(err == nil, "write spans: %v", err)
		if err == nil {
			fmt.Fprintf(os.Stderr, "perfbench: spans in %s\n", path)
		}
	}
	complete(out, set, p.trace)
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	emit(result{
		Correct:   len(out.problems) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	})
}

// failedRun is the verdict of a run that errored or hung before it could
// be measured.
var failedRun = result{Correct: false, Attempted: 1, Failed: 1, Metrics: map[string]metric{}}

func emit(r result) {
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
