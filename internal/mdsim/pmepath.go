package mdsim

import (
	"fmt"
	"math"

	"blueq/internal/charm"
	"blueq/internal/converse"
	"blueq/internal/m2m"
	"blueq/internal/md"
	"blueq/internal/pme"
)

// The distributed PME path. Each PE runs a coordinator (a group element)
// that aggregates the charge-spreading contributions of the patches homed
// on that PE, ships them to the FFT pencil owners, and distributes the
// returned potential back to per-atom reciprocal forces — the structure of
// NAMD's optimized PME (paper §IV-B.2, Fig. 3): charge grid to PME
// processors, parallel 3D FFT, Ewald kernel, inverse FFT, forces back.

// chargeMsg carries one PE's grid contributions to one pencil owner.
type chargeMsg struct {
	srcPE   int
	indices []int32
	values  []float64
}

// recipBackMsg returns the potential at the requested grid points.
type recipBackMsg struct {
	srcPencil int
	values    []float64
}

// gridPoint is one B-spline contribution of a charged atom to the PME
// charge grid.
type gridPoint struct {
	atom int     // index in patch.atoms
	dst  int     // PE owning the pencil of the grid column
	idx  int32   // offset in dst's pencil block
	w    float64 // q·wx·wy·wz: the charge spread to idx
	g    md.Vec3 // q·∇(wx·wy·wz)·K/L: the atom's force is -φ(idx)·g
}

// coordinator is the per-PE PME aggregation element.
type coordinator struct {
	sim *Simulation
	pe  int

	patchesHere    int
	pendingPatches []*patch
	stagedPatches  int

	// sender side
	idxStage [][]int32
	valStage [][]float64
	replies  int

	// pencil side
	chargesArrived int
	requests       [][]int32 // per source PE, indices to return
	hasReq         []bool    // distinguishes "sent empty" from "not a sender"
	qCopy          []float64
	replyStage     []*recipBackMsg
}

func (s *Simulation) declareCoordinators() {
	s.coordGrp = s.rt.NewGroup("pmecoord", func(pe int) charm.Element {
		c := &coordinator{sim: s, pe: pe}
		for i := 0; i < s.NumPatches(); i++ {
			if s.patchArr.HomePE(i) == pe {
				c.patchesHere++
			}
		}
		return c
	})
	s.eCharges = s.coordGrp.Entry(func(pe *converse.PE, el charm.Element, payload any) {
		el.(*coordinator).chargeRecv(pe, payload.(*chargeMsg))
	})
	s.eRecipBack = s.coordGrp.Entry(func(pe *converse.PE, el charm.Element, payload any) {
		el.(*coordinator).recipBack(pe, payload.(*recipBackMsg))
	})
	s.eStepDone = s.coordGrp.Entry(func(pe *converse.PE, el charm.Element, payload any) {
		s.driverPatchDone(pe)
	})

	// Precompute static topology indices and the set of charge-sending PEs.
	sys := s.cfg.System
	s.bondsOf = make([][]int32, sys.N())
	for i, b := range sys.Bonds {
		s.bondsOf[b.I] = append(s.bondsOf[b.I], int32(i))
		s.bondsOf[b.J] = append(s.bondsOf[b.J], int32(i))
	}
	s.anglesOf = make([][]int32, sys.N())
	for i, a := range sys.Angles {
		s.anglesOf[a.I] = append(s.anglesOf[a.I], int32(i))
		s.anglesOf[a.J] = append(s.anglesOf[a.J], int32(i))
		s.anglesOf[a.K] = append(s.anglesOf[a.K], int32(i))
	}
	s.dihedralsOf = make([][]int32, sys.N())
	for i, d := range sys.Dihedrals {
		for _, atom := range []int{d.I, d.J, d.K, d.L} {
			s.dihedralsOf[atom] = append(s.dihedralsOf[atom], int32(i))
		}
	}
	s.sendingPEs = 0
	for pe := 0; pe < s.rt.NumPEs(); pe++ {
		n := 0
		for i := 0; i < s.NumPatches(); i++ {
			if s.patchArr.HomePE(i) == pe {
				n++
			}
		}
		if n > 0 {
			s.sendingPEs++
		}
	}
}

// coord returns the coordinator element of the calling PE.
func (s *Simulation) coord(pe *converse.PE) *coordinator {
	return s.coordGrp.Local(pe).(*coordinator)
}

// eachGridPoint calls fn for every grid contribution of p's charged atoms
// in (atom, ia, ib, ic) order; when only >= 0 it skips the grid columns
// owned by other pencils. Charge staging and force return both walk this
// order, so the potentials a pencil returns line up with the points staged
// for it.
func (s *Simulation) eachGridPoint(p *patch, only int, fn func(gridPoint)) {
	cfg := s.cfg.PME
	eng := s.eng
	sys := s.cfg.System
	order := cfg.Order
	k1, k2, k3 := cfg.Grid[0], cfg.Grid[1], cfg.Grid[2]
	sx := float64(k1) / sys.Box.L[0]
	sy := float64(k2) / sys.Box.L[1]
	sz := float64(k3) / sys.Box.L[2]
	var wx, wy, wz, dwx, dwy, dwz [pme.MaxOrder]float64
	for ai := range p.atoms {
		a := &p.atoms[ai]
		qi := sys.Charge[a.id]
		if qi == 0 {
			continue
		}
		pos := sys.Box.Wrap(a.pos)
		u1 := pos[0] / sys.Box.L[0] * float64(k1)
		u2 := pos[1] / sys.Box.L[1] * float64(k2)
		u3 := pos[2] / sys.Box.L[2] * float64(k3)
		k0x := pme.BsplineWeights(order, u1, wx[:order], dwx[:order])
		k0y := pme.BsplineWeights(order, u2, wy[:order], dwy[:order])
		k0z := pme.BsplineWeights(order, u3, wz[:order], dwz[:order])
		pt := gridPoint{atom: ai}
		for ia := 0; ia < order; ia++ {
			gx := modInt(k0x+ia, k1)
			for ib := 0; ib < order; ib++ {
				gy := modInt(k0y+ib, k2)
				pt.dst = eng.ZOwnerOf(gx, gy)
				if only >= 0 && pt.dst != only {
					continue
				}
				xb, yb := eng.ZSpans(pt.dst)
				base := ((gx-xb.Lo)*yb.Len() + (gy - yb.Lo)) * k3
				for ic := 0; ic < order; ic++ {
					gz := modInt(k0z+ic, k3)
					pt.idx = int32(base + gz)
					pt.w = qi * wx[ia] * wy[ib] * wz[ic]
					pt.g = md.Vec3{
						qi * dwx[ia] * wy[ib] * wz[ic] * sx,
						qi * wx[ia] * dwy[ib] * wz[ic] * sy,
						qi * wx[ia] * wy[ib] * dwz[ic] * sz,
					}
					fn(pt)
				}
			}
		}
	}
}

// stagePatch spreads the charges of one patch into the per-destination
// staging buffers. Called from patch entries on the same PE (serialized by
// the scheduler). When every local patch has staged, the charge messages
// go out to all pencil owners.
func (c *coordinator) stagePatch(pe *converse.PE, p *patch) {
	s := c.sim
	npes := s.rt.NumPEs()
	if c.idxStage == nil {
		c.idxStage = make([][]int32, npes)
		c.valStage = make([][]float64, npes)
	}
	c.pendingPatches = append(c.pendingPatches, p)
	// recipBack accumulates the returned forces here.
	for i := range p.atoms {
		p.atoms[i].recipF = md.Vec3{}
	}
	s.eachGridPoint(p, -1, func(pt gridPoint) {
		c.idxStage[pt.dst] = append(c.idxStage[pt.dst], pt.idx)
		c.valStage[pt.dst] = append(c.valStage[pt.dst], pt.w)
	})

	c.stagedPatches++
	if c.stagedPatches < c.patchesHere {
		return
	}
	c.stagedPatches = 0
	if s.hCharges != nil {
		// Optimized PME (paper §IV-B.2): the whole charge burst goes out
		// through the persistent many-to-many handle in one Start call.
		s.hCharges.Start(pe)
		return
	}
	for dst := 0; dst < npes; dst++ {
		msg := c.takeChargeMsg(dst)
		if err := s.coordGrp.Send(pe, dst, s.eCharges, msg, 8+12*len(msg.indices)); err != nil {
			panic(fmt.Sprintf("mdsim: charge send: %v", err))
		}
	}
}

// takeChargeMsg hands over (and clears) the staged contributions for one
// destination; called by the p2p loop or by an m2m fetch on a comm thread.
func (c *coordinator) takeChargeMsg(dst int) *chargeMsg {
	msg := &chargeMsg{srcPE: c.pe, indices: c.idxStage[dst], values: c.valStage[dst]}
	c.idxStage[dst] = nil
	c.valStage[dst] = nil
	return msg
}

// chargeRecv accumulates contributions into this PE's pencil block and
// starts the local FFT once every sending PE has reported.
func (c *coordinator) chargeRecv(pe *converse.PE, m *chargeMsg) {
	s := c.sim
	z := s.eng.ZData(c.pe)
	if c.chargesArrived == 0 {
		for i := range z {
			z[i] = 0
		}
		if c.requests == nil {
			c.requests = make([][]int32, s.rt.NumPEs())
			c.hasReq = make([]bool, s.rt.NumPEs())
		}
	}
	for k, idx := range m.indices {
		z[idx] += complex(m.values[k], 0)
	}
	c.requests[m.srcPE] = m.indices
	c.hasReq[m.srcPE] = true
	c.chargesArrived++
	if c.chargesArrived < s.sendingPEs {
		return
	}
	c.chargesArrived = 0
	if c.qCopy == nil {
		c.qCopy = make([]float64, len(z))
	}
	for i, v := range z {
		c.qCopy[i] = real(v)
	}
	s.eng.StartLocal(pe)
}

// fftDone runs after the engine's backward transform: the pencil block now
// holds ψ = IFFT(D·FFT(Q)). Scale to the potential grid φ, accumulate the
// reciprocal energy, and return φ at every requested point.
func (c *coordinator) fftDone(pe *converse.PE) {
	s := c.sim
	cfg := s.cfg.PME
	z := s.eng.ZData(c.pe)
	ktot := float64(cfg.Grid[0] * cfg.Grid[1] * cfg.Grid[2])
	scale := ktot / (math.Pi * s.cfg.System.Box.Volume())
	local := 0.0
	for i, v := range z {
		local += c.qCopy[i] * real(v)
	}
	local *= 0.5 * scale

	s.emu.Lock()
	s.recipAccum += local
	s.recipParts++
	if s.recipParts == s.rt.NumPEs() {
		s.recipEnergy = s.recipAccum
		s.recipAccum = 0
		s.recipParts = 0
		s.recipEvals++
	}
	s.emu.Unlock()

	if c.replyStage == nil {
		c.replyStage = make([]*recipBackMsg, s.rt.NumPEs())
	}
	for src, idxs := range c.requests {
		if !c.hasReq[src] {
			continue
		}
		vals := make([]float64, len(idxs))
		for k, idx := range idxs {
			vals[k] = real(z[idx]) * scale
		}
		c.requests[src] = nil
		c.hasReq[src] = false
		c.replyStage[src] = &recipBackMsg{srcPencil: c.pe, values: vals}
	}
	if s.hReply != nil {
		s.hReply.Start(pe)
		return
	}
	for src, msg := range c.replyStage {
		if msg == nil {
			continue
		}
		c.replyStage[src] = nil
		if err := s.coordGrp.Send(pe, src, s.eRecipBack, msg, 8+8*len(msg.values)); err != nil {
			panic(fmt.Sprintf("mdsim: recip reply: %v", err))
		}
	}
}

// takeReply hands over (and clears) the staged potential reply for one
// charge-sending PE.
func (c *coordinator) takeReply(dst int) *recipBackMsg {
	msg := c.replyStage[dst]
	c.replyStage[dst] = nil
	if msg == nil {
		// Pencil PEs reply to every sender slot in the persistent pattern;
		// an empty reply keeps the counts uniform.
		msg = &recipBackMsg{srcPencil: c.pe}
	}
	return msg
}

// recipBack folds returned potentials into per-atom reciprocal forces,
// walking the staged patches' grid points again to pair each potential
// with its atom; when every pencil has replied, the pending patches
// complete.
func (c *coordinator) recipBack(pe *converse.PE, m *recipBackMsg) {
	k := 0
	for _, p := range c.pendingPatches {
		c.sim.eachGridPoint(p, m.srcPencil, func(pt gridPoint) {
			if k < len(m.values) {
				phi := m.values[k]
				a := &p.atoms[pt.atom]
				a.recipF = a.recipF.Sub(md.Vec3{pt.g[0] * phi, pt.g[1] * phi, pt.g[2] * phi})
			}
			k++
		})
	}
	if k != len(m.values) {
		panic(fmt.Sprintf("mdsim: reply length %d != staged %d", len(m.values), k))
	}
	c.replies++
	if c.replies < c.sim.rt.NumPEs() {
		return
	}
	c.replies = 0
	pending := c.pendingPatches
	c.pendingPatches = nil
	for _, p := range pending {
		p.finishEval(pe)
	}
}

// declarePMEM2M registers the persistent many-to-many handles of the
// optimized PME: one for the charge-grid scatter (patch PEs → pencil
// owners) and one for the potential return. Communication operations are
// set up once; each PME evaluation only calls Start on the handles — the
// paper's CmiDirectManytomany_start pattern.
func (s *Simulation) declarePMEM2M(mgr *m2m.Manager) error {
	npes := s.rt.NumPEs()
	s.hCharges = mgr.NewHandle()
	s.hReply = mgr.NewHandle()
	var senders []int
	for pe := 0; pe < npes; pe++ {
		for i := 0; i < s.NumPatches(); i++ {
			if s.patchArr.HomePE(i) == pe {
				senders = append(senders, pe)
				break
			}
		}
	}
	coordOn := func(pe int) *coordinator { return s.coordGrp.ElementOn(pe).(*coordinator) }
	for _, src := range senders {
		src := src
		for dst := 0; dst < npes; dst++ {
			dst := dst
			err := s.hCharges.RegisterSend(src, dst, src, 4096, func() any {
				return coordOn(src).takeChargeMsg(dst)
			})
			if err != nil {
				return err
			}
		}
	}
	for dst := 0; dst < npes; dst++ {
		err := s.hCharges.RegisterRecv(dst, len(senders),
			func(pe *converse.PE, slot, srcPE int, data any) {
				s.coord(pe).chargeRecv(pe, data.(*chargeMsg))
			}, nil)
		if err != nil {
			return err
		}
	}
	for src := 0; src < npes; src++ {
		src := src
		for _, dst := range senders {
			dst := dst
			err := s.hReply.RegisterSend(src, dst, src, 4096, func() any {
				return coordOn(src).takeReply(dst)
			})
			if err != nil {
				return err
			}
		}
	}
	for _, dst := range senders {
		err := s.hReply.RegisterRecv(dst, npes,
			func(pe *converse.PE, slot, srcPE int, data any) {
				s.coord(pe).recipBack(pe, data.(*recipBackMsg))
			}, nil)
		if err != nil {
			return err
		}
	}
	return nil
}

func modInt(a, n int) int {
	a %= n
	if a < 0 {
		a += n
	}
	return a
}
