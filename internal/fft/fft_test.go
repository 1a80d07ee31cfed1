package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func randVec(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxErr(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

// The sizes exercised by the paper: FFT benchmark grids (32, 64, 128) and
// PME grid dimensions (216, 864, 1080), plus primes and odd sizes.
var testSizes = []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 27, 32, 60, 64, 97, 101, 128, 216, 243, 360, 864, 1080}

func TestForwardMatchesNaiveDFT(t *testing.T) {
	for _, n := range testSizes {
		if n > 400 {
			continue // O(n²) reference too slow to be worth it beyond this
		}
		x := randVec(n, int64(n))
		want := DFTNaive(x)
		got := append([]complex128(nil), x...)
		Forward(got)
		if e := maxErr(got, want); e > 1e-9*float64(n) {
			t.Errorf("n=%d: max error %g", n, e)
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	for _, n := range testSizes {
		x := randVec(n, int64(2*n+1))
		y := append([]complex128(nil), x...)
		Forward(y)
		Inverse(y)
		if e := maxErr(x, y); e > 1e-9*float64(n) {
			t.Errorf("n=%d: round trip error %g", n, e)
		}
	}
}

// Parseval: Σ|x|² == Σ|X|²/n.
func TestParseval(t *testing.T) {
	for _, n := range []int{8, 27, 64, 216, 1080} {
		x := randVec(n, 7)
		var eTime float64
		for _, v := range x {
			eTime += real(v)*real(v) + imag(v)*imag(v)
		}
		Forward(x)
		var eFreq float64
		for _, v := range x {
			eFreq += real(v)*real(v) + imag(v)*imag(v)
		}
		eFreq /= float64(n)
		if math.Abs(eTime-eFreq) > 1e-8*eTime {
			t.Errorf("n=%d: Parseval violated: %g vs %g", n, eTime, eFreq)
		}
	}
}

// Linearity: F(a·x + y) == a·F(x) + F(y).
func TestLinearity(t *testing.T) {
	const n = 96
	x := randVec(n, 8)
	y := randVec(n, 9)
	a := complex(2.5, -1.25)
	sum := make([]complex128, n)
	for i := range sum {
		sum[i] = a*x[i] + y[i]
	}
	Forward(sum)
	Forward(x)
	Forward(y)
	want := make([]complex128, n)
	for i := range want {
		want[i] = a*x[i] + y[i]
	}
	if e := maxErr(sum, want); e > 1e-9 {
		t.Errorf("linearity error %g", e)
	}
}

// An impulse transforms to a constant; a constant transforms to an impulse.
func TestImpulseAndConstant(t *testing.T) {
	const n = 40
	imp := make([]complex128, n)
	imp[0] = 1
	Forward(imp)
	for i, v := range imp {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse bin %d = %v", i, v)
		}
	}
	con := make([]complex128, n)
	for i := range con {
		con[i] = 1
	}
	Forward(con)
	if cmplx.Abs(con[0]-complex(n, 0)) > 1e-9 {
		t.Fatalf("DC bin = %v", con[0])
	}
	for i := 1; i < n; i++ {
		if cmplx.Abs(con[i]) > 1e-9 {
			t.Fatalf("non-DC bin %d = %v", i, con[i])
		}
	}
}

// Time shift ↔ phase ramp: F(x shifted by s)[k] = F(x)[k]·exp(-2πi sk/n).
func TestShiftTheorem(t *testing.T) {
	const n = 54
	const s = 5
	x := randVec(n, 10)
	shifted := make([]complex128, n)
	for i := range shifted {
		shifted[i] = x[(i-s+n)%n]
	}
	Forward(x)
	Forward(shifted)
	for k := 0; k < n; k++ {
		ang := -2 * math.Pi * float64(s*k) / float64(n)
		sn, cs := math.Sincos(ang)
		want := x[k] * complex(cs, sn)
		if cmplx.Abs(shifted[k]-want) > 1e-9 {
			t.Fatalf("shift theorem fails at bin %d", k)
		}
	}
}

func TestBluesteinUsedForLargePrimes(t *testing.T) {
	p := MustPlan(127) // prime > naiveLimit
	if p.blu == nil {
		t.Fatal("prime 127 did not select Bluestein")
	}
	q := MustPlan(128)
	if q.blu != nil {
		t.Fatal("power of two selected Bluestein")
	}
	x := randVec(127, 11)
	want := DFTNaive(x)
	p.Forward(x)
	if e := maxErr(x, want); e > 1e-8 {
		t.Fatalf("Bluestein error %g", e)
	}
}

// Forward and Inverse run on pooled scratch: steady-state transforms
// allocate nothing, on the mixed-radix path and on Bluestein's (127).
func TestTransformsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers under the race detector")
	}
	for _, n := range []int{16, 216, 1080, 127} {
		p := MustPlan(n)
		x := randVec(n, int64(n))
		if a := testing.AllocsPerRun(20, func() {
			p.Forward(x)
			p.Inverse(x)
		}); a != 0 {
			t.Errorf("n=%d: %v allocations per Forward+Inverse, want 0", n, a)
		}
	}
}

// Goroutines transforming through one shared plan get exactly the result
// of a serial run: the pooled scratch is never shared between calls.
func TestSharedPlanConcurrent(t *testing.T) {
	for _, n := range []int{216, 127} {
		p := MustPlan(n)
		const workers, rounds = 8, 20
		want := make([][]complex128, workers)
		for w := range want {
			want[w] = randVec(n, int64(w))
			p.Forward(want[w])
		}
		var wg sync.WaitGroup
		errs := make(chan string, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				in := randVec(n, int64(w))
				x := make([]complex128, n)
				for r := 0; r < rounds; r++ {
					copy(x, in)
					p.Forward(x)
					for i := range x {
						if x[i] != want[w][i] {
							errs <- fmt.Sprintf("n=%d worker %d round %d: bin %d = %v, serial %v", n, w, r, i, x[i], want[w][i])
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}
}

func TestPlanValidation(t *testing.T) {
	if _, err := NewPlan(0); err == nil {
		t.Fatal("NewPlan(0) accepted")
	}
	if _, err := NewPlan(-3); err == nil {
		t.Fatal("NewPlan(-3) accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	MustPlan(8).Forward(make([]complex128, 4))
}

func TestPlanCacheReturnsSame(t *testing.T) {
	a := MustPlan(48)
	b := MustPlan(48)
	if a != b {
		t.Fatal("plan cache returned different plans")
	}
}

func TestLargestPrimeFactor(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 12: 3, 216: 3, 1080: 5, 97: 97, 4096: 2, 77: 11}
	for n, want := range cases {
		if got := largestPrimeFactor(n); got != want {
			t.Errorf("largestPrimeFactor(%d) = %d, want %d", n, got, want)
		}
	}
}

// Property: round trip holds for random sizes and inputs.
func TestQuickRoundTrip(t *testing.T) {
	f := func(n16 uint16, seed int64) bool {
		n := int(n16)%300 + 1
		x := randVec(n, seed)
		y := append([]complex128(nil), x...)
		Forward(y)
		Inverse(y)
		return maxErr(x, y) <= 1e-8*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func benchSize(b *testing.B, n int) {
	p := MustPlan(n)
	x := randVec(n, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
}

func BenchmarkFFT128(b *testing.B)  { benchSize(b, 128) }
func BenchmarkFFT216(b *testing.B)  { benchSize(b, 216) }
func BenchmarkFFT1080(b *testing.B) { benchSize(b, 1080) }
