// Command perfbench is the repository's benchmark: per-message overhead of
// the Converse runtime (ping-pong latency, small-message flood rate) and an
// application figure (MD step time), with a separate traced run that splits
// each figure across the runtime's layers. See README.md for the workloads,
// the metrics and the known issues they expose.
//
// Run from the repository root:
//
//	bash perfbench/run.sh --workload intra --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"blueq/internal/obs"
)

var nanValue = math.NaN()

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric name to its value. NaN values (figures a run did
// not measure) are never stored.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	m[name] = metric{Value: v, Unit: unit}
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// phase is what one workload reports for one measured interval.
type phase struct {
	e2e   metrics
	layer metrics // traced phases only
	// opUS is the phase's op_time_us, compared between the untraced and
	// traced phases for trace_overhead_frac.
	opUS float64
}

// runOpts configures one phase of a workload.
type runOpts struct {
	seed   int64
	budget time.Duration // measuring time; instances start only within it
	tr     *tracer       // nil for the untraced phase
	// refOpUS is the untraced phase's op_time_us, which a traced phase
	// states its per-layer times as shares of.
	refOpUS float64
}

// warmedUp is called by a workload when its warm-up ends. In a traced
// phase it clears the obs registry, so the runtime's counters cover the
// measured part alone, as the benchmark's own tallies do.
func (o runOpts) warmedUp() {
	if o.tr != nil {
		obs.Default.Reset()
	}
}

// workloads maps each workload name to its runner. README.md and
// BENCHMARK.json give the reason each one is in the benchmark.
var workloads = []struct {
	name string
	run  func(runOpts) phase
}{
	{"intra", pingWorkload(intraLeg)},
	{"inter", pingWorkload(interLeg)},
	{"rzv", pingWorkload(rzvLeg)},
	{"flood", runFlood},
	{"md", runMD},
}

// warmup is how long a workload runs checked but unmeasured instances
// before it measures. Runs that start on an idle host otherwise time their
// first seconds in a different regime (README.md, known issues).
const warmup = 2 * time.Second

// traceDir is where a traced run writes its spans, inside the checkout.
const traceDir = ".bench_build/traces"

// tally counts operations across the whole run. Workloads update it as
// instances finish, so the watchdog can report what was done if the run
// overruns its deadline.
var tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	problems  []string
}

// fail records a correctness problem; the run then reports correct=false.
func fail(format string, args ...any) {
	tally.mu.Lock()
	defer tally.mu.Unlock()
	if len(tally.problems) < 20 {
		tally.problems = append(tally.problems, fmt.Sprintf(format, args...))
	}
}

// ops adds a finished instance's operation counts.
func ops(attempted, failed int64) {
	tally.attempted.Add(attempted)
	tally.failed.Add(failed)
}

var emitOnce sync.Once

// emit prints the problems and the result line, once.
func emit(m metrics) {
	emitOnce.Do(func() {
		tally.mu.Lock()
		problems := append([]string(nil), tally.problems...)
		tally.mu.Unlock()
		for _, p := range problems {
			fmt.Println("FAIL:", p)
		}
		r := result{
			Correct:   len(problems) == 0 && tally.failed.Load() == 0,
			Attempted: tally.attempted.Load(),
			Failed:    tally.failed.Load(),
			Metrics:   m,
		}
		if r.Attempted < 1 {
			r.Attempted, r.Failed, r.Correct = 1, 1, false
		}
		b, err := json.Marshal(r)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: encode result:", err)
			os.Exit(1)
		}
		fmt.Println(string(b))
	})
}

// hardLimit is how long a run may take in all before the watchdog reports
// what finished, counts everything else as failed and exits: well past
// the longest healthy run, and inside the three minutes a run may take.
func hardLimit(seconds int) time.Duration {
	return time.Duration(min(2*seconds+60, 170)) * time.Second
}

func main() {
	name := flag.String("workload", "", "workload: intra, inter, rzv, flood or md")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Int("seconds", 10, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run instead of end-to-end metrics")
	flag.Parse()
	var run func(runOpts) phase
	for _, w := range workloads {
		if w.name == *name {
			run = w.run
		}
	}
	if run == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload intra|inter|rzv|flood|md, --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	time.AfterFunc(hardLimit(*seconds), func() {
		fail("run exceeded its %v deadline; unfinished work counted as failed", hardLimit(*seconds))
		tally.failed.Add(1)
		emit(metrics{})
		os.Exit(0)
	})
	budget := time.Duration(*seconds) * time.Second
	if *trace == 0 {
		p := run(runOpts{seed: *seed, budget: budget})
		emit(p.e2e)
		return
	}
	// Traced run: an untraced half gives the reference the traced half's
	// overhead is measured against; per-layer figures come from the traced
	// half alone.
	u := run(runOpts{seed: *seed, budget: budget / 2})
	tr := newTracer()
	obs.Default.Reset()
	obs.SetEnabled(true)
	t := run(runOpts{seed: *seed, budget: budget / 2, tr: tr, refOpUS: u.opUS})
	obs.SetEnabled(false)
	out := t.layer
	out.set("trace_overhead_frac", t.opUS/u.opUS-1, "ratio")
	path, err := tr.write(traceDir, fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
	if err != nil {
		fail("write trace: %v", err)
	} else {
		fmt.Println("spans written to", path)
	}
	emit(out)
}
