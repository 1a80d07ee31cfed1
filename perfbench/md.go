package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"blueq/internal/converse"
	"blueq/internal/fft3d"
	"blueq/internal/md"
	"blueq/internal/mdsim"
)

const (
	mdMolecules = 216 // 648 atoms
	mdSteps     = 20  // steps per instance
	mdPEs       = 2   // 2 nodes x 1 PE
	mdBeta      = 0.8
	mdGrid      = 16
	mdPMEEvery  = 4 // PME runs on every fourth step
	// mdInstanceLimit is an instance's deadline: past it the run stops
	// and every step not completed counts as failed.
	mdInstanceLimit = 30 * time.Second
	// serialReps is how many times each serial kernel is timed.
	serialReps = 5
)

var mdNonbonded = md.NonbondedParams{Cutoff: 4, SwitchDist: 3.2, EwaldBeta: mdBeta, UseQPX: true}

// mdSystem builds the seeded water box; every call returns the same system
// for the same seed.
func mdSystem(seed int64) *md.System {
	s := md.WaterBox(md.WaterBoxConfig{Molecules: mdMolecules, Seed: seed})
	s.Thermalize(0.3, rand.New(rand.NewSource(seed+100)))
	return s
}

func mdConfig(sys *md.System, steps int, pme bool) mdsim.Config {
	cfg := mdsim.Config{
		System: sys, Nonbonded: mdNonbonded, DT: 2e-4, Steps: steps,
		Runtime: converse.Config{Nodes: mdPEs, WorkersPerNode: 1, Mode: converse.ModeSMP},
	}
	if pme {
		cfg.PME = &mdsim.PMEConfig{
			Grid: [3]int{mdGrid, mdGrid, mdGrid}, Order: 4, Beta: mdBeta, Every: mdPMEEvery,
			Transport: fft3d.M2M, ExchangeM2M: true,
		}
	}
	return cfg
}

// energyRelTol bounds how far one seed's total energy may differ between
// repeats. mdsim adds up energy and force contributions in message-arrival
// order, so repeats of one seed differ in their last bits (README.md, known
// issues); a lost, repeated or wrong contribution moves the energy by many
// orders of magnitude more.
const energyRelTol = 1e-12

// mdRun is one run's md inputs and tallies.
type mdRun struct {
	o             runOpts
	stepMS, setup []float64
	mem           memTally
	acc           layerAcc
	steps         int64
	energy        float64 // first instance's total energy
	instances     int
}

func runMD(o runOpts) phase {
	checkPrime(o.seed)
	r := &mdRun{o: o}
	// Warm-up instances are untimed but checked: they set the reference
	// energy every later instance must reach. At least one instance of
	// each kind runs.
	r.o.tr = nil
	start := time.Now()
	for r.instances == 0 || time.Since(start) < warmup {
		if !r.instance(false) {
			break
		}
	}
	r.mem = memTally{}
	r.o.tr = o.tr
	o.warmedUp()
	start = time.Now()
	for len(r.stepMS) == 0 || time.Since(start) < o.budget {
		if !r.instance(true) {
			break
		}
	}

	step := median(r.stepMS)
	fmt.Printf("md: %d timed instances of %d steps, %d atoms, median %.3f ms/step\n", len(r.stepMS), mdSteps, 3*mdMolecules, step)
	p := phase{e2e: metrics{}, opUS: step * 1e3}
	p.e2e.set("op_time_us", step*1e3, "us")
	p.e2e.set("setup_s", median(r.setup), "s")
	p.e2e.set("allocs_per_op", r.mem.allocsPerOp(), "count")
	p.e2e.set("peak_heap_mb", r.mem.peakMiB(), "MiB")
	if o.tr != nil {
		r.acc.ops = r.steps
		p.layer = layerMetrics(&r.acc, o.tr, o.refOpUS, serialKernels(o.seed, o.tr))
	}
	return p
}

// instance runs one simulation of mdSteps steps, checks it and, when
// timed, folds its figures into the run. It returns false when the run
// must stop.
func (r *mdRun) instance(timed bool) bool {
	tr := r.o.tr
	sys := mdSystem(r.o.seed)
	t0 := time.Now()
	var ts int64
	if tr != nil {
		ts = tr.now()
	}
	sim, err := mdsim.New(mdConfig(sys, mdSteps, true))
	if err != nil {
		fail("md: New: %v", err)
		ops(mdSteps, mdSteps)
		return false
	}
	built := time.Now()
	if tr != nil {
		tr.record(mainLane, spanMDNew, 0, 0, 0, ts, tr.now())
		ts = tr.now()
	}
	r.mem.begin()
	rep, ok := runSim(sim)
	took := time.Since(built)
	r.mem.end(int64(rep.Steps))
	if tr != nil {
		tr.record(mainLane, spanMDRun, 0, 0, 0, ts, tr.now())
	}
	r.instances++
	if !ok {
		fail("md: instance %d did not finish within %v", r.instances, mdInstanceLimit)
		ops(mdSteps, mdSteps)
		return false
	}
	failed := int64(0)
	if r.instances == 1 {
		r.energy = rep.Total()
	} else if rel := math.Abs(rep.Total()-r.energy) / math.Abs(r.energy); rel > energyRelTol {
		fail("md: instance %d total energy %.17g, first instance %.17g", r.instances, rep.Total(), r.energy)
		failed = mdSteps
	}
	if rep.Steps != mdSteps {
		fail("md: instance %d ran %d steps, want %d", r.instances, rep.Steps, mdSteps)
		failed = mdSteps
	}
	ops(mdSteps, failed)
	if timed {
		r.steps += mdSteps
		r.stepMS = append(r.stepMS, took.Seconds()*1e3/mdSteps)
		r.setup = append(r.setup, built.Sub(t0).Seconds())
		if tr != nil {
			r.acc.addMachine(sim.Runtime().Machine())
		}
	}
	return true
}

// runSim runs the simulation under mdInstanceLimit. Run cannot be
// cancelled, so an overrun stops the runtime and leaves Run's goroutine
// behind; the run then ends and the process exit reclaims it.
func runSim(sim *mdsim.Simulation) (mdsim.Report, bool) {
	done := make(chan mdsim.Report, 1)
	go func() { done <- sim.Run() }()
	deadline := time.NewTimer(mdInstanceLimit)
	defer deadline.Stop()
	select {
	case rep := <-done:
		return rep, true
	case <-deadline.C:
		sim.Runtime().Shutdown()
		return mdsim.Report{}, false
	}
}

// checkPrime compares the parallel first force evaluation with the serial
// force field on the same system: cutoff-only, so the energies must agree
// to rounding.
func checkPrime(seed int64) {
	sys := mdSystem(seed)
	sim, err := mdsim.New(mdConfig(sys, 0, false))
	if err != nil {
		fail("md: prime check New: %v", err)
		ops(1, 1)
		return
	}
	rep, ok := runSim(sim)
	serial := md.NewForces(sys.N())
	md.ComputeNonbonded(sys, mdNonbonded, serial)
	md.ComputeBonded(sys, serial)
	rel := func(a, b float64) float64 { return math.Abs(a-b) / math.Abs(b) }
	switch {
	case !ok:
		fail("md: prime check did not finish within %v", mdInstanceLimit)
	case rel(rep.LJEnergy, serial.LJEnergy) > 1e-10:
		fail("md: prime LJ energy %.17g, serial %.17g", rep.LJEnergy, serial.LJEnergy)
	case rel(rep.ElecEnergy, serial.ElecEnergy) > 1e-10:
		fail("md: prime electrostatic energy %.17g, serial %.17g", rep.ElecEnergy, serial.ElecEnergy)
	default:
		ops(1, 0)
		return
	}
	ops(1, 1)
}

// serialKernels times the serial force field and the serial PME-grid FFT
// on the workload's own system, the kernels md's step time rests on.
func serialKernels(seed int64, tr *tracer) kernelTimes {
	sys := mdSystem(seed)
	f := md.NewForces(sys.N())
	var forces []float64
	for i := 0; i < serialReps; i++ {
		f.Reset()
		ts := tr.now()
		md.ComputeNonbonded(sys, mdNonbonded, f)
		md.ComputeBonded(sys, f)
		te := tr.now()
		tr.record(mainLane, spanSerialForces, 0, 0, 0, ts, te)
		forces = append(forces, float64(te-ts))
	}

	rng := rand.New(rand.NewSource(seed))
	g := fft3d.NewGrid(mdGrid, mdGrid, mdGrid)
	g.Fill(func(x, y, z int) complex128 { return complex(rng.Float64(), rng.Float64()) })
	orig := g.Clone()
	ffts := make([]float64, 0, serialReps)
	for i := 0; i < serialReps; i++ {
		ts := tr.now()
		fft3d.SerialForward(g)
		fft3d.SerialInverse(g)
		te := tr.now()
		tr.record(mainLane, spanSerialFFT, 0, 0, 0, ts, te)
		ffts = append(ffts, float64(te-ts))
	}
	// Allocations are counted apart from the timed loop, so the tracer's
	// own bookkeeping stays out of them.
	mallocs0, _ := memStats()
	for i := 0; i < serialReps; i++ {
		fft3d.SerialForward(g)
		fft3d.SerialInverse(g)
	}
	mallocs1, _ := memStats()
	for i, v := range g.Data {
		if d := v - orig.Data[i]; math.Hypot(real(d), imag(d)) > 1e-9 {
			fail("fft3d: forward+inverse changed point %d by %g", i, math.Hypot(real(d), imag(d)))
			break
		}
	}
	fmt.Printf("md serial kernels: forces %.3f ms, fft forward+inverse %.3f ms (medians of %d)\n",
		median(forces)/1e6, median(ffts)/1e6, serialReps)
	return kernelTimes{
		forceNSPerOp: median(forces),
		fftNSPerOp:   median(ffts) / mdPMEEvery,
		fftAllocs:    float64(mallocs1-mallocs0) / (2 * serialReps),
	}
}
