// Package fft provides one-dimensional complex-to-complex fast Fourier
// transforms for arbitrary lengths: mixed-radix Cooley-Tukey for smooth
// sizes (the PME grids 216, 864, 1080 factor into 2·3·5) and Bluestein's
// chirp-z algorithm for large prime factors.
//
// It is the serial kernel under internal/fft3d's pencil-decomposed 3D FFT
// and internal/pme, standing in for the ESSL/FFTW library NAMD links
// against on Blue Gene/Q.
package fft

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"
)

// Plan holds precomputed twiddle factors for transforms of one length.
// Plans are safe for concurrent use by multiple goroutines once created.
type Plan struct {
	n  int
	tw []complex128 // tw[t] = exp(-2πi t/n)

	// Bluestein state (nil unless n has a prime factor > naiveLimit)
	blu *bluestein
	// scratch pools *[]complex128 of length n, the output of the
	// mixed-radix recursion before it is copied back in place.
	scratch sync.Pool
}

// naiveLimit is the largest prime factor transformed by direct DFT before
// switching to Bluestein.
const naiveLimit = 61

var planCache sync.Map // int -> *Plan

// NewPlan returns a plan for length n (n >= 1). Plans are cached globally;
// repeated calls with the same n return the same plan.
func NewPlan(n int) (*Plan, error) {
	if n < 1 {
		return nil, fmt.Errorf("fft: invalid length %d", n)
	}
	if p, ok := planCache.Load(n); ok {
		return p.(*Plan), nil
	}
	p := &Plan{n: n, tw: make([]complex128, n)}
	p.scratch.New = func() any {
		buf := make([]complex128, n)
		return &buf
	}
	for t := 0; t < n; t++ {
		s, c := math.Sincos(-2 * math.Pi * float64(t) / float64(n))
		p.tw[t] = complex(c, s)
	}
	if f := largestPrimeFactor(n); f > naiveLimit {
		p.blu = newBluestein(n)
	}
	actual, _ := planCache.LoadOrStore(n, p)
	return actual.(*Plan), nil
}

// MustPlan is NewPlan for known-good lengths; it panics on error.
func MustPlan(n int) *Plan {
	p, err := NewPlan(n)
	if err != nil {
		panic(err)
	}
	return p
}

// Len returns the transform length.
func (p *Plan) Len() int { return p.n }

func largestPrimeFactor(n int) int {
	largest := 1
	for f := 2; f*f <= n; f++ {
		for n%f == 0 {
			largest = f
			n /= f
		}
	}
	if n > 1 && n > largest {
		largest = n
	}
	return largest
}

func smallestFactor(n int) int {
	for f := 2; f*f <= n; f++ {
		if n%f == 0 {
			return f
		}
	}
	return n
}

// Forward computes the unnormalized forward DFT of x in place.
// X[k] = Σ x[j]·exp(-2πi jk/n). len(x) must equal Len().
func (p *Plan) Forward(x []complex128) {
	p.transform(x, false)
}

// Inverse computes the inverse DFT of x in place, scaled by 1/n, so that
// Inverse(Forward(x)) == x.
func (p *Plan) Inverse(x []complex128) {
	p.transform(x, true)
	inv := complex(1/float64(p.n), 0)
	for i := range x {
		x[i] *= inv
	}
}

func (p *Plan) transform(x []complex128, inverse bool) {
	if len(x) != p.n {
		panic(fmt.Sprintf("fft: input length %d != plan length %d", len(x), p.n))
	}
	if inverse {
		// Conjugate trick: IDFT(x) = conj(DFT(conj(x))) (unscaled).
		conjugate(x)
		p.transform(x, false)
		conjugate(x)
		return
	}
	if p.blu != nil {
		p.blu.transform(x)
		return
	}
	buf := p.scratch.Get().(*[]complex128)
	p.rec(*buf, x, 1, p.n)
	copy(x, *buf)
	p.scratch.Put(buf)
}

func conjugate(x []complex128) {
	for i, v := range x {
		x[i] = cmplx.Conj(v)
	}
}

// rec writes the DFT of the n points src[0], src[stride], …,
// src[(n-1)·stride] into dst[:n]: mixed-radix decimation in time, smallest
// prime factor first, reading the sub-sequences as strided views of src so
// that nothing is copied or allocated. dst must not overlap src. The
// twiddle of a length-n stage is tw[t·(N/n) mod N] for the plan length N.
func (p *Plan) rec(dst, src []complex128, stride, n int) {
	if n == 1 {
		dst[0] = src[0]
		return
	}
	rootN := p.n
	step := rootN / n
	r := smallestFactor(n)
	if r == n {
		// Prime length: direct DFT (small primes only; Bluestein handles
		// large primes at the top level).
		for k := 0; k < n; k++ {
			var sum complex128
			for j, t := 0, 0; j < n; j++ {
				sum += src[j*stride] * p.tw[t]
				if t += k * step; t >= rootN {
					t -= rootN
				}
			}
			dst[k] = sum
		}
		return
	}
	// Sub-transform j holds x[k·r+j], k < m, in dst[j·m : (j+1)·m].
	m := n / r
	for j := 0; j < r; j++ {
		p.rec(dst[j*m:(j+1)*m], src[j*stride:], stride*r, m)
	}
	// Combine X[k] = Σ_j tw[j·k] · Y_j[k mod m]. The r outputs k ≡ km
	// (mod m) read exactly the r inputs at j·m+km, so each butterfly goes
	// through y and overwrites its own inputs.
	var y [naiveLimit]complex128
	for km := 0; km < m; km++ {
		for j := 0; j < r; j++ {
			y[j] = dst[j*m+km]
		}
		for k := km; k < n; k += m {
			var sum complex128
			for j, t := 0, 0; j < r; j++ {
				sum += y[j] * p.tw[t]
				if t += k * step; t >= rootN {
					t -= rootN
				}
			}
			dst[k] = sum
		}
	}
}

// ---------------------------------------------------------------------------
// Bluestein chirp-z for large prime lengths

type bluestein struct {
	n     int
	m     int // power of two >= 2n-1
	chirp []complex128
	fb    []complex128 // forward transform of the chirp filter
	plan  *Plan        // power-of-two plan of length m
	// scratch pools *[]complex128 of length m for the convolution.
	scratch sync.Pool
}

func newBluestein(n int) *bluestein {
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	b := &bluestein{n: n, m: m, chirp: make([]complex128, n)}
	b.scratch.New = func() any {
		buf := make([]complex128, m)
		return &buf
	}
	for k := 0; k < n; k++ {
		// exp(-iπ k²/n); reduce k² mod 2n to keep the argument accurate.
		t := (int64(k) * int64(k)) % int64(2*n)
		s, c := math.Sincos(-math.Pi * float64(t) / float64(n))
		b.chirp[k] = complex(c, s)
	}
	b.plan = MustPlan(m) // power of two: no recursion into Bluestein
	fb := make([]complex128, m)
	fb[0] = cmplx.Conj(b.chirp[0])
	for k := 1; k < n; k++ {
		fb[k] = cmplx.Conj(b.chirp[k])
		fb[m-k] = cmplx.Conj(b.chirp[k])
	}
	b.plan.Forward(fb)
	b.fb = fb
	return b
}

func (b *bluestein) transform(x []complex128) {
	buf := b.scratch.Get().(*[]complex128)
	fa := *buf
	for k := 0; k < b.n; k++ {
		fa[k] = x[k] * b.chirp[k]
	}
	clear(fa[b.n:])
	b.plan.Forward(fa)
	for i := range fa {
		fa[i] *= b.fb[i]
	}
	b.plan.Inverse(fa)
	for k := 0; k < b.n; k++ {
		x[k] = fa[k] * b.chirp[k]
	}
	b.scratch.Put(buf)
}

// ---------------------------------------------------------------------------
// Convenience wrappers

// Forward transforms x in place with a cached plan.
func Forward(x []complex128) { MustPlan(len(x)).Forward(x) }

// Inverse inverse-transforms x in place (scaled) with a cached plan.
func Inverse(x []complex128) { MustPlan(len(x)).Inverse(x) }

// DFTNaive computes the DFT directly in O(n²); reference for tests.
func DFTNaive(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(j*k) / float64(n)
			s, c := math.Sincos(ang)
			sum += x[j] * complex(c, s)
		}
		out[k] = sum
	}
	return out
}
