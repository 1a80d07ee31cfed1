package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"blueq/internal/obs"
)

func TestRankRefusesThinTail(t *testing.T) {
	cases := []struct {
		n    int64
		q    float64
		want bool
	}{
		{1000, 0.99, true},   // rank 990: exactly ten samples beyond
		{999, 0.99, false},   // rank 990: nine beyond
		{100, 0.99, false},   // one beyond
		{20, 0.9, false},     // two beyond
		{5000, 0.999, false}, // five beyond
		{1, 0.5, true},       // the median needs one sample
		{0, 0.5, false},      // nothing to report
	}
	for _, c := range cases {
		if _, ok := rank(c.n, c.q); ok != c.want {
			t.Errorf("rank(%d, %g) ok = %v, want %v", c.n, c.q, ok, c.want)
		}
	}
}

func TestQuantileHelpersAgree(t *testing.T) {
	h := newHist()
	var xs []float64
	for i := 1; i <= 999; i++ {
		h.add(int64(i))
		xs = append(xs, float64(i))
	}
	if _, ok := h.quantile(0.99); ok {
		t.Fatal("hist reported a p99 with nine samples beyond it")
	}
	if _, ok := quantile(xs, 0.99); ok {
		t.Fatal("quantile reported a p99 with nine samples beyond it")
	}
	h.add(histMaxNS + 5) // overflow sample: the 1000th
	xs = append(xs, histMaxNS+5)
	hv, hok := h.quantile(0.99)
	sv, sok := quantile(xs, 0.99)
	if !hok || !sok || hv != 990 || sv != 990 {
		t.Fatalf("p99 of 1..999 plus one outlier: hist %v/%v, slice %v/%v, want 990", hv, hok, sv, sok)
	}
	if v, _ := h.quantile(0.9999); v != 0 {
		t.Fatalf("p99.99 of 1000 samples should be refused, got %v", v)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median = %v", got)
	}
}

// benchmarkNames reads the metric names and units BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		layer[m.Name] = m.Unit
	}
	return e2e, layer
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkNames checks that a run emitted exactly the metrics BENCHMARK.json
// declares, each under a valid name and in its declared unit.
func checkNames(t *testing.T, what string, got metrics, declared map[string]string) {
	t.Helper()
	for name := range declared {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: declared metric %q was not emitted", what, name)
		}
	}
	for name, m := range got {
		if !nameRE.MatchString(name) {
			t.Errorf("%s: metric name %q has characters outside [A-Za-z0-9_.-]", what, name)
		}
		unit, ok := declared[name]
		if !ok {
			t.Errorf("%s: metric %q is not declared in BENCHMARK.json", what, name)
		} else if unit != m.Unit {
			t.Errorf("%s: metric %q unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		}
	}
}

// resetTally clears the run-wide counters between smoke runs.
func resetTally() {
	tally.attempted.Store(0)
	tally.failed.Store(0)
	tally.mu.Lock()
	tally.problems = nil
	tally.mu.Unlock()
}

func checkTally(t *testing.T, what string) {
	t.Helper()
	tally.mu.Lock()
	problems := tally.problems
	tally.mu.Unlock()
	if len(problems) > 0 || tally.failed.Load() != 0 || tally.attempted.Load() == 0 {
		t.Errorf("%s: attempted %d, failed %d, problems %q", what, tally.attempted.Load(), tally.failed.Load(), problems)
	}
}

// Each workload's short smoke run passes its correctness checks, untraced
// and traced, and emits every declared metric and no other.
func TestSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take seconds")
	}
	e2e, layer := benchmarkNames(t)
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			resetTally()
			p := w.run(runOpts{seed: 7, budget: 200 * time.Millisecond})
			checkTally(t, w.name+" untraced")
			checkNames(t, w.name+" untraced", p.e2e, e2e)
			ref := p.opUS

			resetTally()
			tr := newTracer()
			obs.Default.Reset()
			obs.SetEnabled(true)
			p = w.run(runOpts{seed: 7, budget: 200 * time.Millisecond, tr: tr, refOpUS: ref})
			obs.SetEnabled(false)
			checkTally(t, w.name+" traced")
			// main adds trace_overhead_frac from the two phases.
			p.layer.set("trace_overhead_frac", p.opUS/ref-1, "ratio")
			checkNames(t, w.name+" traced", p.layer, layer)

			path, err := tr.write(t.TempDir(), "spans.jsonl")
			if err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			lines := 0
			sc := bufio.NewScanner(f)
			for sc.Scan() {
				var s map[string]any
				if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
					t.Fatalf("span line %d: %v", lines+1, err)
				}
				lines++
			}
			if lines == 0 {
				t.Error("traced run wrote no spans")
			}
		})
	}
}
