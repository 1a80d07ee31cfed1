package lb

import (
	"reflect"
	"testing"
	"time"
)

// The meter's EWMA folds with alpha = 1/8, the window total accumulates
// raw samples, and Reset clears only the window — smoothing history
// survives, exactly like Charm++'s LB database refresh.
func TestMeterEWMAAndWindow(t *testing.T) {
	m := NewMeter(3, nil)
	m.RecordLoad(nil, 0, 800)
	if got := m.Load(0); got != 800 {
		t.Fatalf("first sample Load = %d, want 800 (stored directly)", got)
	}
	m.RecordLoad(nil, 0, 1600)
	if got := m.Load(0); got != 900 {
		t.Fatalf("Load after fold = %d, want 900 (800 + (1600-800)/8)", got)
	}
	if got := m.WindowTotal(0); got != 2400 {
		t.Fatalf("WindowTotal = %d, want 2400", got)
	}
	snap := m.Snapshot(nil)
	if len(snap) != 3 || snap[0] != 2400 || snap[1] != 0 || snap[2] != 0 {
		t.Fatalf("Snapshot = %v, want [2400 0 0]", snap)
	}
	m.Reset()
	if got := m.WindowTotal(0); got != 0 {
		t.Fatalf("WindowTotal after Reset = %d, want 0", got)
	}
	if got := m.Load(0); got != 900 {
		t.Fatalf("Load after Reset = %d, want 900 (EWMA keeps history)", got)
	}
}

func TestConfigNormalizeDefaults(t *testing.T) {
	var c Config
	c.normalize()
	if _, ok := c.Strategy.(Greedy); !ok {
		t.Errorf("default strategy = %v, want greedy", c.Strategy)
	}
	if c.Period != 2*time.Millisecond {
		t.Errorf("default Period = %v, want 2ms", c.Period)
	}
	if c.Threshold != 0.4 {
		t.Errorf("default Threshold = %v, want 0.4", c.Threshold)
	}
	if c.MaxMoves != 1 {
		t.Errorf("default MaxMoves = %d, want 1", c.MaxMoves)
	}
	if c.MinLoadNS != 50_000 {
		t.Errorf("default MinLoadNS = %d, want 50000", c.MinLoadNS)
	}
}

// The plans are pinned to the maps GreedyLB/RefineLB produced when they
// lived in package charm: E19's bitwise-identity runs depend on the
// placement code not drifting.
func TestStrategyGoldenPlans(t *testing.T) {
	loads := []float64{10, 1, 1, 1, 9, 2}
	home := []int32{0, 0, 0, 1, 1, 1}
	if got, want := (Greedy{}).Plan(loads, home, 2), []int32{0, 0, 1, 0, 1, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("Greedy plan = %v, want %v", got, want)
	}
	if got, want := (Refine{}).Plan(loads, home, 2), home; !reflect.DeepEqual(got, want) {
		t.Errorf("Refine plan = %v, want %v", got, want)
	}
}

// block is charm's default block map: n elements over npes PEs.
func block(n, npes int) []int32 {
	home := make([]int32, n)
	for i := range home {
		home[i] = int32(i * npes / n)
	}
	return home
}

// Edge cases of the placement algorithms. Every plan must terminate,
// cover every element with an in-range PE, stay within the case's move
// and imbalance bounds, and come out identical on 10 repeated runs.
func TestStrategyPlans(t *testing.T) {
	skew := make([]float64, 16) // element i costs i+1: block map piles the tail on PE 3
	flat := make([]float64, 16)
	hot := make([]float64, 16) // one element at 4x on PE 0
	ties := make([]float64, 32)
	for i := range skew {
		skew[i], flat[i], hot[i] = float64(i+1), 1, 1
	}
	hot[0] = 4
	for i := range ties {
		ties[i] = float64((i*7919)%13) + 0.25
	}
	for _, tc := range []struct {
		name     string
		s        Strategy
		loads    []float64
		home     []int32
		npes     int
		minMoves int
		maxMoves int     // -1: unbounded
		maxRatio float64 // max/avg planned PE load; 0: unchecked
	}{
		{"greedy/all-zero", Greedy{}, make([]float64, 8), block(8, 4), 4, 0, -1, 0},
		{"refine/all-zero", Refine{}, make([]float64, 8), block(8, 4), 4, 0, 0, 0},
		{"greedy/single-pe", Greedy{}, skew[:6], block(6, 1), 1, 0, 0, 0},
		{"refine/single-pe", Refine{}, skew[:6], block(6, 1), 1, 0, 0, 0},
		{"refine/flat", Refine{}, flat, block(16, 4), 4, 0, 0, 0},
		{"greedy/skew", Greedy{}, skew, block(16, 4), 4, 1, -1, 1.25},
		{"refine/hot-spot", Refine{}, hot, block(16, 4), 4, 0, 4, 0},
		{"greedy/ties", Greedy{}, ties, block(32, 4), 4, 0, -1, 0},
		{"refine/ties", Refine{}, ties, block(32, 4), 4, 0, -1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan := tc.s.Plan(tc.loads, tc.home, tc.npes)
			if len(plan) != len(tc.loads) {
				t.Fatalf("plan covers %d of %d elements", len(plan), len(tc.loads))
			}
			moves := 0
			perPE := make([]float64, tc.npes)
			for i, p := range plan {
				if p < 0 || int(p) >= tc.npes {
					t.Fatalf("element %d planned onto PE %d of %d", i, p, tc.npes)
				}
				if p != tc.home[i] {
					moves++
				}
				perPE[p] += tc.loads[i]
			}
			if moves < tc.minMoves || (tc.maxMoves >= 0 && moves > tc.maxMoves) {
				t.Errorf("%d moves, want %d..%d", moves, tc.minMoves, tc.maxMoves)
			}
			if tc.maxRatio > 0 {
				max, total := 0.0, 0.0
				for _, l := range perPE {
					total += l
					if l > max {
						max = l
					}
				}
				if avg := total / float64(tc.npes); max > tc.maxRatio*avg {
					t.Errorf("max PE load %v exceeds %vx avg %v", max, tc.maxRatio, avg)
				}
			}
			for run := 0; run < 10; run++ {
				if again := tc.s.Plan(tc.loads, tc.home, tc.npes); !reflect.DeepEqual(again, plan) {
					t.Fatalf("run %d differs: %v vs %v", run, again, plan)
				}
			}
		})
	}
}
