package mdsim

import (
	"fmt"
	"math"

	"blueq/internal/charm"
	"blueq/internal/converse"
	"blueq/internal/md"
)

// atomRec is the migrating per-atom state. Static properties (charge,
// mass, LJ, bonds, exclusions) are read from the replicated System by id.
type atomRec struct {
	id     int32
	pos    md.Vec3
	vel    md.Vec3
	f      md.Vec3 // total force from the last evaluation
	recipF md.Vec3 // reciprocal-space (PME) force, reused between PME evals
}

// idPos is a coordinate broadcast entry.
type idPos struct {
	id  int32
	pos md.Vec3
}

// exchangeMsg carries migrants and coordinates from one patch to a
// neighbour for one force evaluation.
type exchangeMsg struct {
	srcPatch int
	eval     int
	migrants []atomRec
	coords   []idPos
}

// patch is one spatial cell of the decomposition: a chare array element.
type patch struct {
	sim        *Simulation
	idx        int
	ix, iy, iz int
	lo, hi     md.Vec3

	atoms     []atomRec
	neighbors []int // distinct neighbour patch indices (excl. self)

	// per-evaluation state
	curEval    int
	exchRecv   int
	pending    []*exchangeMsg // early messages for the next evaluation
	cache      []idPos        // neighbour coordinates for this evaluation
	ownSet     map[int32]int  // atom id -> index in atoms (this evaluation)
	newF       []md.Vec3      // forces for this evaluation (parallel to atoms)
	nbDone     bool
	pmePending bool
	primed     bool

	// bonded terms already evaluated this evaluation, by index into
	// System.Bonds/Angles/Dihedrals; cleared, not reallocated, per
	// evaluation
	processedBonds, processedAngles, processedDihedrals map[int32]bool
}

// declarePatches builds the patch array and its entries.
func (s *Simulation) declarePatches() {
	n := s.NumPatches()
	s.patchArr = s.rt.NewArray("patches", n, func(idx int) charm.Element {
		return s.newPatch(idx)
	})
	s.ePatchStep = s.patchArr.Entry(func(pe *converse.PE, el charm.Element, _ int, payload any) {
		el.(*patch).beginEval(pe, payload.(*stepMsg))
	})
	s.eExchange = s.patchArr.Entry(func(pe *converse.PE, el charm.Element, _ int, payload any) {
		el.(*patch).recvExchange(pe, payload.(*exchangeMsg))
	})
}

func (s *Simulation) patchOf(pos md.Vec3) int {
	p := s.cfg.System.Box.Wrap(pos)
	ix := int(p[0] / s.cfg.System.Box.L[0] * float64(s.px))
	iy := int(p[1] / s.cfg.System.Box.L[1] * float64(s.py))
	iz := int(p[2] / s.cfg.System.Box.L[2] * float64(s.pz))
	if ix >= s.px {
		ix = s.px - 1
	}
	if iy >= s.py {
		iy = s.py - 1
	}
	if iz >= s.pz {
		iz = s.pz - 1
	}
	return (ix*s.py+iy)*s.pz + iz
}

func (s *Simulation) newPatch(idx int) *patch {
	// curEval = -1 so exchanges for the prime evaluation (eval 0) that
	// arrive before this patch's own beginEval are buffered, not applied.
	p := &patch{sim: s, idx: idx, curEval: -1}
	p.ix = idx / (s.py * s.pz)
	p.iy = (idx / s.pz) % s.py
	p.iz = idx % s.pz
	box := s.cfg.System.Box
	p.lo = md.Vec3{
		float64(p.ix) * box.L[0] / float64(s.px),
		float64(p.iy) * box.L[1] / float64(s.py),
		float64(p.iz) * box.L[2] / float64(s.pz),
	}
	p.hi = md.Vec3{
		float64(p.ix+1) * box.L[0] / float64(s.px),
		float64(p.iy+1) * box.L[1] / float64(s.py),
		float64(p.iz+1) * box.L[2] / float64(s.pz),
	}
	// Distinct periodic neighbours.
	seen := map[int]bool{idx: true}
	for dx := -1; dx <= 1; dx++ {
		for dy := -1; dy <= 1; dy++ {
			for dz := -1; dz <= 1; dz++ {
				ni := ((p.ix+dx+s.px)%s.px*s.py+(p.iy+dy+s.py)%s.py)*s.pz + (p.iz+dz+s.pz)%s.pz
				if !seen[ni] {
					seen[ni] = true
					p.neighbors = append(p.neighbors, ni)
				}
			}
		}
	}
	// Initial atom assignment.
	for i, pos := range s.cfg.System.Pos {
		if s.patchOf(pos) == idx {
			p.atoms = append(p.atoms, atomRec{
				id:  int32(i),
				pos: s.cfg.System.Box.Wrap(pos),
				vel: s.cfg.System.Vel[i],
			})
		}
	}
	return p
}

// beginEval starts force evaluation msg.eval on this patch: integrate the
// first half-kick and drift (unless priming), select migrants, and send
// the exchange messages.
func (p *patch) beginEval(pe *converse.PE, msg *stepMsg) {
	s := p.sim
	p.curEval = msg.eval
	p.nbDone = false
	p.pmePending = s.isPMEEval(msg.eval)
	p.cache = p.cache[:0]

	var migrants map[int][]atomRec
	if !msg.prime {
		dt := s.cfg.DT
		kept := p.atoms[:0]
		for _, a := range p.atoms {
			m := s.cfg.System.Mass[a.id]
			a.vel = a.vel.Add(a.f.Scale(0.5 * dt / m))
			a.pos = s.cfg.System.Box.Wrap(a.pos.Add(a.vel.Scale(dt)))
			dst := s.patchOf(a.pos)
			if dst == p.idx {
				kept = append(kept, a)
				continue
			}
			if migrants == nil {
				migrants = make(map[int][]atomRec)
			}
			migrants[dst] = append(migrants[dst], a)
		}
		p.atoms = kept
	}

	// Coordinates sent include atoms migrating away: their old owner still
	// advertises them so all neighbours see every atom exactly once. The
	// old owner also keeps them in its own cache — the new owner does not
	// advertise back to us this evaluation.
	coords := make([]idPos, 0, len(p.atoms)+8)
	for _, a := range p.atoms {
		coords = append(coords, idPos{id: a.id, pos: a.pos})
	}
	for _, ms := range migrants {
		for _, a := range ms {
			coords = append(coords, idPos{id: a.id, pos: a.pos})
			p.cache = append(p.cache, idPos{id: a.id, pos: a.pos})
		}
	}

	for _, ni := range p.neighbors {
		m := &exchangeMsg{srcPatch: p.idx, eval: msg.eval, coords: coords}
		if migrants != nil {
			m.migrants = migrants[ni]
			delete(migrants, ni)
		}
		if err := s.patchArr.Send(pe, ni, s.eExchange, m, 8+24*len(coords)); err != nil {
			panic(fmt.Sprintf("mdsim: exchange send: %v", err))
		}
	}
	if len(migrants) > 0 {
		for dst := range migrants {
			panic(fmt.Sprintf("mdsim: atom moved from patch %d beyond neighbours to %d in one step", p.idx, dst))
		}
	}
	if len(p.neighbors) == 0 {
		// Single-patch runs have no exchange; compute immediately.
		p.maybeCompute(pe)
		return
	}
	// Apply exchanges that arrived before this patch entered the
	// evaluation.
	p.drainPending(pe)
}

// recvExchange handles a neighbour's migrants and coordinates. Messages
// for the next evaluation can arrive before this patch's own beginEval;
// they are buffered.
func (p *patch) recvExchange(pe *converse.PE, m *exchangeMsg) {
	if m.eval != p.curEval {
		p.pending = append(p.pending, m)
		return
	}
	p.applyExchange(pe, m)
}

func (p *patch) applyExchange(pe *converse.PE, m *exchangeMsg) {
	for _, a := range m.migrants {
		p.atoms = append(p.atoms, a)
		p.sim.migrations.Add(1)
	}
	p.cache = append(p.cache, m.coords...)
	p.exchRecv++
	if p.exchRecv == len(p.neighbors) {
		p.exchRecv = 0
		p.maybeCompute(pe)
	}
}

// maybeCompute runs once all exchanges for the evaluation have arrived.
func (p *patch) maybeCompute(pe *converse.PE) {
	s := p.sim
	// Index own atoms; drop cached entries that are now owned here (their
	// coordinates came both from the migration and the old owner's list).
	if p.ownSet == nil {
		// Made on first use rather than in newPatch, which mdsim.New
		// runs for every patch.
		p.ownSet = make(map[int32]int, len(p.atoms))
		p.processedBonds = make(map[int32]bool)
		p.processedAngles = make(map[int32]bool)
		p.processedDihedrals = make(map[int32]bool)
	}
	clear(p.ownSet)
	for i, a := range p.atoms {
		p.ownSet[a.id] = i
	}
	cache := p.cache[:0]
	for _, c := range p.cache {
		if _, mine := p.ownSet[c.id]; !mine {
			cache = append(cache, c)
		}
	}
	p.cache = cache

	p.computeForces(pe)
	p.nbDone = true
	if p.pmePending {
		s.coord(pe).stagePatch(pe, p)
		return
	}
	p.finishEval(pe)
}

// lookup returns the position of atom id from own atoms or the cache.
func (p *patch) lookup(id int32) (md.Vec3, bool) {
	if i, ok := p.ownSet[id]; ok {
		return p.atoms[i].pos, true
	}
	for _, c := range p.cache {
		if c.id == id {
			return c.pos, true
		}
	}
	return md.Vec3{}, false
}

// computeForces evaluates nonbonded (LJ + real-space Ewald), bonded and
// exclusion-correction forces for the atoms this patch owns.
func (p *patch) computeForces(pe *converse.PE) {
	s := p.sim
	sys := s.cfg.System
	nb := s.cfg.Nonbonded
	cut2 := nb.Cutoff * nb.Cutoff
	ron2 := cut2
	if nb.SwitchDist > 0 {
		ron2 = nb.SwitchDist * nb.SwitchDist
	}
	beta := nb.EwaldBeta
	if len(p.newF) < len(p.atoms) {
		p.newF = make([]md.Vec3, len(p.atoms))
	}
	p.newF = p.newF[:len(p.atoms)]
	for i := range p.newF {
		p.newF[i] = md.Vec3{}
	}
	var elj, eel, ebond, eangle, edihedral float64

	half := sys.Box.L.Scale(0.5)
	pair := func(ai int, aID int32, apos md.Vec3, bID int32, bpos md.Vec3, bOwn int) {
		d := wrappedMinImage(apos.Sub(bpos), sys.Box.L, half)
		r2 := d.Norm2()
		// Most pairs fail the cutoff: test it before the exclusion search.
		if r2 >= cut2 || r2 == 0 || sys.IsExcluded(int(aID), int(bID)) {
			return
		}
		i, j := int(aID), int(bID)
		eps := math.Sqrt(sys.Eps[i] * sys.Eps[j])
		sig := 0.5 * (sys.Sigma[i] + sys.Sigma[j])
		countEnergy := bOwn >= 0 || aID < bID
		var fr float64
		if eps != 0 {
			sr2 := sig * sig / r2
			sr6 := sr2 * sr2 * sr2
			sr12 := sr6 * sr6
			e := 4 * eps * (sr12 - sr6)
			dljv := 24 * eps * (2*sr12 - sr6) / r2
			sw, dsw := ljSwitchLocal(r2, ron2, cut2)
			if countEnergy {
				elj += e * sw
			}
			fr += dljv*sw - e*dsw*2
		}
		if beta > 0 {
			qq := sys.Charge[i] * sys.Charge[j]
			if qq != 0 {
				r := math.Sqrt(r2)
				er := math.Erfc(beta * r)
				if countEnergy {
					eel += qq * er / r
				}
				fr += qq * (er/r + 2*beta/math.SqrtPi*math.Exp(-beta*beta*r2)) / r2
			}
		}
		f := d.Scale(fr)
		p.newF[ai] = p.newF[ai].Add(f)
		if bOwn >= 0 {
			p.newF[bOwn] = p.newF[bOwn].Sub(f)
		}
	}

	near := p.cache[:p.partitionNear(nb.Cutoff)]
	for ai := range p.atoms {
		a := &p.atoms[ai]
		for bi := ai + 1; bi < len(p.atoms); bi++ {
			b := &p.atoms[bi]
			pair(ai, a.id, a.pos, b.id, b.pos, bi)
		}
		for _, c := range near {
			pair(ai, a.id, a.pos, c.id, c.pos, -1)
		}
	}

	// Bonded terms: computed by every patch owning an endpoint, forces
	// accumulated only for owned atoms; energies counted once by the
	// canonical owner (bond: I; angle: the centre J).
	clear(p.processedBonds)
	clear(p.processedAngles)
	for _, a := range p.atoms {
		for _, bIdx := range s.bondsOf[a.id] {
			if p.processedBonds[bIdx] {
				continue
			}
			p.processedBonds[bIdx] = true
			b := sys.Bonds[bIdx]
			pi, okI := p.lookup(int32(b.I))
			pj, okJ := p.lookup(int32(b.J))
			if !okI || !okJ {
				panic(fmt.Sprintf("mdsim: bond %d (%d ok=%v, %d ok=%v) not visible from patch %d eval %d; own=%d cache=%d",
					bIdx, b.I, okI, b.J, okJ, p.idx, p.curEval, len(p.atoms), len(p.cache)))
			}
			d := sys.Box.MinImage(pi.Sub(pj))
			r := d.Norm()
			if r == 0 {
				continue
			}
			dr := r - b.R0
			fmag := -2 * b.K * dr / r
			f := d.Scale(fmag)
			if oi, ok := p.ownSet[int32(b.I)]; ok {
				p.newF[oi] = p.newF[oi].Add(f)
				ebond += b.K * dr * dr
			}
			if oj, ok := p.ownSet[int32(b.J)]; ok {
				p.newF[oj] = p.newF[oj].Sub(f)
			}
		}
		for _, aIdx := range s.anglesOf[a.id] {
			if p.processedAngles[aIdx] {
				continue
			}
			p.processedAngles[aIdx] = true
			an := sys.Angles[aIdx]
			pi, okI := p.lookup(int32(an.I))
			pj, okJ := p.lookup(int32(an.J))
			pk, okK := p.lookup(int32(an.K))
			if !okI || !okJ || !okK {
				panic(fmt.Sprintf("mdsim: angle %d atoms not visible from patch %d", aIdx, p.idx))
			}
			rij := sys.Box.MinImage(pi.Sub(pj))
			rkj := sys.Box.MinImage(pk.Sub(pj))
			lij, lkj := rij.Norm(), rkj.Norm()
			if lij == 0 || lkj == 0 {
				continue
			}
			cosT := rij.Dot(rkj) / (lij * lkj)
			cosT = math.Max(-1, math.Min(1, cosT))
			theta := math.Acos(cosT)
			dT := theta - an.Theta0
			sinT := math.Sqrt(1 - cosT*cosT)
			if sinT < 1e-8 {
				continue
			}
			c := 2 * an.Kth * dT / sinT
			fi := rkj.Scale(1 / (lij * lkj)).Sub(rij.Scale(cosT / (lij * lij))).Scale(c)
			fk := rij.Scale(1 / (lij * lkj)).Sub(rkj.Scale(cosT / (lkj * lkj))).Scale(c)
			if oi, ok := p.ownSet[int32(an.I)]; ok {
				p.newF[oi] = p.newF[oi].Add(fi)
			}
			if ok2, ok := p.ownSet[int32(an.K)]; ok {
				p.newF[ok2] = p.newF[ok2].Add(fk)
			}
			if oj, ok := p.ownSet[int32(an.J)]; ok {
				p.newF[oj] = p.newF[oj].Sub(fi.Add(fk))
				eangle += an.Kth * dT * dT
			}
		}
	}

	// Torsions: same ownership rule; energy counted by the owner of J.
	clear(p.processedDihedrals)
	for _, a := range p.atoms {
		for _, dIdx := range s.dihedralsOf[a.id] {
			if p.processedDihedrals[dIdx] {
				continue
			}
			p.processedDihedrals[dIdx] = true
			d := sys.Dihedrals[dIdx]
			pi, okI := p.lookup(int32(d.I))
			pj, okJ := p.lookup(int32(d.J))
			pk, okK := p.lookup(int32(d.K))
			pl, okL := p.lookup(int32(d.L))
			if !okI || !okJ || !okK || !okL {
				panic(fmt.Sprintf("mdsim: dihedral %d atoms not visible from patch %d", dIdx, p.idx))
			}
			fi, fj, fk, fl, e, ok := md.DihedralForces(sys.Box, pi, pj, pk, pl, d)
			if !ok {
				continue
			}
			if oi, own := p.ownSet[int32(d.I)]; own {
				p.newF[oi] = p.newF[oi].Add(fi)
			}
			if oj, own := p.ownSet[int32(d.J)]; own {
				p.newF[oj] = p.newF[oj].Add(fj)
				edihedral += e
			}
			if ok2, own := p.ownSet[int32(d.K)]; own {
				p.newF[ok2] = p.newF[ok2].Add(fk)
			}
			if ol, own := p.ownSet[int32(d.L)]; own {
				p.newF[ol] = p.newF[ol].Add(fl)
			}
		}
	}

	// Exclusion correction (PME runs only): subtract erf(βr)/r for
	// excluded pairs (see internal/pme).
	if s.cfg.PME != nil {
		for ai := range p.atoms {
			a := &p.atoms[ai]
			for _, ex := range sys.Excl[a.id] {
				qq := sys.Charge[a.id] * sys.Charge[ex]
				if qq == 0 {
					continue
				}
				bpos, ok := p.lookup(ex)
				if !ok {
					panic(fmt.Sprintf("mdsim: excluded partner %d of %d not visible", ex, a.id))
				}
				d := sys.Box.MinImage(a.pos.Sub(bpos))
				r2 := d.Norm2()
				r := math.Sqrt(r2)
				if r == 0 {
					continue
				}
				erf := math.Erf(beta * r)
				if a.id < ex {
					eel += -qq * erf / r
					// partner's energy share counted by its own patch when
					// it iterates the reverse direction? No: each pair is
					// visited from both sides; count energy once (a.id<ex).
				}
				fr := -qq * (erf/r - 2*beta/math.SqrtPi*math.Exp(-beta*beta*r2)) / r2
				p.newF[ai] = p.newF[ai].Add(d.Scale(fr))
			}
		}
	}

	s.emu.Lock()
	s.energies.LJEnergy += elj
	s.energies.ElecEnergy += eel
	s.energies.BondEnergy += ebond
	s.energies.AngleEnergy += eangle
	s.energies.DihedralEnergy += edihedral
	s.emu.Unlock()
}

// finishEval closes the evaluation: add reciprocal forces, second
// half-kick, store forces, and report to the driver.
func (p *patch) finishEval(pe *converse.PE) {
	s := p.sim
	dt := s.cfg.DT
	for i := range p.atoms {
		a := &p.atoms[i]
		total := p.newF[i]
		if s.cfg.PME != nil {
			total = total.Add(a.recipF)
		}
		a.f = total
		if p.primed {
			m := s.cfg.System.Mass[a.id]
			a.vel = a.vel.Add(total.Scale(0.5 * dt / m))
		}
	}
	p.primed = true
	if err := s.coordGrp.Send(pe, 0, s.eStepDone, nil, 8); err != nil {
		panic(fmt.Sprintf("mdsim: done send: %v", err))
	}
}

// drainPending is called at the next beginEval implicitly: buffered
// messages whose eval now matches are applied.
func (p *patch) drainPending(pe *converse.PE) {
	if len(p.pending) == 0 {
		return
	}
	rest := p.pending[:0]
	msgs := p.pending
	p.pending = nil
	for _, m := range msgs {
		if m.eval == p.curEval {
			p.applyExchange(pe, m)
		} else {
			rest = append(rest, m)
		}
	}
	p.pending = append(p.pending, rest...)
}

// partitionNear moves the cache entries that lie within cutoff of the
// patch box [lo, hi] to the front of p.cache, in place, and returns their
// count: only they can pair with an atom this patch owns. Distances to the
// box are measured on the periodic ring. The cutoff is padded so that
// rounding at patch faces, where an owned atom may sit an ulp outside
// [lo, hi], can never drop an in-cutoff pair.
func (p *patch) partitionNear(cutoff float64) int {
	l := p.sim.cfg.System.Box.L
	reach := cutoff + 1e-9
	reach2 := reach * reach
	n := 0
	for i, c := range p.cache {
		var g2 float64
		for k := 0; k < 3; k++ {
			g := ringGap(c.pos[k], p.lo[k], p.hi[k], l[k])
			g2 += g * g
		}
		if g2 < reach2 {
			p.cache[n], p.cache[i] = p.cache[i], p.cache[n]
			n++
		}
	}
	return n
}

// ringGap is the distance from x to the interval [lo, hi] on a ring of
// circumference l; x, lo and hi lie in [0, l].
func ringGap(x, lo, hi, l float64) float64 {
	switch {
	case x < lo:
		return math.Min(lo-x, x+l-hi)
	case x > hi:
		return math.Min(x-hi, l-x+lo)
	}
	return 0
}

// wrappedMinImage is Box.MinImage for the difference of two positions
// wrapped into [0, L] (Box.Wrap, which every mdsim position goes through):
// each component lies within one box length of zero, so a single ±L shift
// replaces the division and rounding.
func wrappedMinImage(d, l, half md.Vec3) md.Vec3 {
	for k := 0; k < 3; k++ {
		if d[k] >= half[k] {
			d[k] -= l[k]
		} else if d[k] <= -half[k] {
			d[k] += l[k]
		}
	}
	return d
}

func ljSwitchLocal(r2, ron2, roff2 float64) (sw, dswdr2 float64) {
	if r2 <= ron2 {
		return 1, 0
	}
	if r2 >= roff2 {
		return 0, 0
	}
	d := roff2 - ron2
	t := roff2 - r2
	sw = t * t * (roff2 + 2*r2 - 3*ron2) / (d * d * d)
	dswdr2 = 6 * t * (ron2 - r2) / (d * d * d)
	return sw, dswdr2
}
