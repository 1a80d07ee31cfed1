package charm

import (
	"encoding/binary"
	"sync/atomic"
	"testing"

	"blueq/internal/converse"
)

// counterElem is a minimal Checkpointable element: a running sum of the
// payloads it has executed.
type counterElem struct {
	sum uint64
}

func (c *counterElem) PackCheckpoint() []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, c.sum)
	return b
}

func (c *counterElem) UnpackCheckpoint(data []byte) {
	c.sum = binary.LittleEndian.Uint64(data)
}

// An element migrated mid-run carries its state to the new PE, executes
// only there afterwards, and messages racing the move — sent to the old
// home or arriving before the blob — are all delivered exactly once.
func TestMigrateElementMovesStateExactlyOnce(t *testing.T) {
	const hits = 64
	var a *Array
	var eHit, eMove int
	var executed atomic.Int64
	runRT(t, smallCfg(2, 2, converse.ModeSMP),
		func(rt *Runtime) {
			a = rt.NewArray("mig", 4, func(idx int) Element { return &counterElem{} })
			eHit = a.Entry(func(pe *converse.PE, elem Element, idx int, payload any) {
				if pe.Id() != a.HomePE(idx) {
					t.Errorf("entry for %d ran on PE %d, home %d", idx, pe.Id(), a.HomePE(idx))
				}
				elem.(*counterElem).sum += uint64(payload.(int))
				if executed.Add(1) == hits {
					pe.Machine().Shutdown()
				}
			})
			eMove = a.Entry(func(pe *converse.PE, elem Element, idx int, payload any) {
				if err := a.MigrateElement(pe, idx, payload.(int)); err != nil {
					t.Errorf("migrate: %v", err)
				}
				executed.Add(1)
			})
		},
		func(pe *converse.PE) {
			// Element 0 homes on PE 0; bombard it while moving it to the
			// last PE: sends issued before, around, and after the move.
			last := pe.NumPEs() - 1
			for i := 0; i < hits-1; i++ {
				if i == 8 {
					if err := a.Send(pe, 0, eMove, last, 8); err != nil {
						t.Errorf("send move: %v", err)
					}
				}
				if err := a.Send(pe, 0, eHit, 1, 8); err != nil {
					t.Errorf("send hit: %v", err)
				}
			}
		})
	if got := a.Element(0).(*counterElem).sum; got != hits-1 {
		t.Fatalf("element executed %d hits, want %d (lost or duplicated across migration)", got, hits-1)
	}
	if home := a.HomePE(0); home != 3 {
		t.Fatalf("element homed on PE %d after migration to 3", home)
	}
	for idx := 1; idx < 4; idx++ {
		if a.Element(idx).(*counterElem).sum != 0 {
			t.Fatalf("element %d executed messages addressed to element 0", idx)
		}
	}
}

// After every element moves, messages still reach each element exactly once
// and run on its new home (forwarding covers stragglers sent to the old one).
func TestSendsAfterMigration(t *testing.T) {
	const n = 8
	var a *Array
	var ePing, eMove int
	var pings, executed atomic.Int64
	dests := make([]int, n)
	runRT(t, smallCfg(2, 2, converse.ModeSMP),
		func(rt *Runtime) {
			a = rt.NewArray("mig", n, func(idx int) Element { return &counterElem{} })
			ePing = a.Entry(func(pe *converse.PE, elem Element, idx int, payload any) {
				if pe.Id() != a.HomePE(idx) {
					t.Errorf("entry for %d ran on PE %d, home %d", idx, pe.Id(), a.HomePE(idx))
				}
				elem.(*counterElem).sum++
				pings.Add(1)
				if executed.Add(1) == 2*n {
					pe.Machine().Shutdown()
				}
			})
			eMove = a.Entry(func(pe *converse.PE, elem Element, idx int, payload any) {
				if err := a.MigrateElement(pe, idx, payload.(int)); err != nil {
					t.Errorf("migrate: %v", err)
				}
				if executed.Add(1) == 2*n {
					pe.Machine().Shutdown()
				}
			})
		},
		func(pe *converse.PE) {
			for i := 0; i < n; i++ {
				dests[i] = (a.HomePE(i) + 1) % pe.NumPEs()
				if err := a.Send(pe, i, eMove, dests[i], 8); err != nil {
					t.Errorf("send move: %v", err)
				}
			}
			for i := 0; i < n; i++ {
				if err := a.Send(pe, i, ePing, nil, 8); err != nil {
					t.Errorf("send ping: %v", err)
				}
			}
		})
	if pings.Load() != n {
		t.Fatalf("delivered %d, want %d", pings.Load(), n)
	}
	for i := 0; i < n; i++ {
		if got := a.Element(i).(*counterElem).sum; got != 1 {
			t.Fatalf("element %d executed %d pings, want 1", i, got)
		}
		if home := a.HomePE(i); home != dests[i] {
			t.Fatalf("element %d homed on PE %d after migration to %d", i, home, dests[i])
		}
	}
}

// Migrating from a PE that is not the element's home is refused, as is a
// non-Checkpointable element; migrating to the current home is a no-op.
func TestMigrateElementValidation(t *testing.T) {
	var a, plain *Array
	var eGo, ePlain int
	runRT(t, smallCfg(2, 2, converse.ModeSMP),
		func(rt *Runtime) {
			a = rt.NewArray("v", 4, func(idx int) Element { return &counterElem{} })
			plain = rt.NewArray("p", 4, func(idx int) Element { return struct{}{} })
			eGo = a.Entry(func(pe *converse.PE, elem Element, idx int, payload any) {
				if err := a.MigrateElement(pe, 3, 0); err == nil {
					t.Error("migrating someone else's element was allowed")
				}
				if err := a.MigrateElement(pe, idx, pe.Id()); err != nil {
					t.Errorf("self-migration not a no-op: %v", err)
				}
				if err := a.MigrateElement(pe, idx, -1); err == nil {
					t.Error("destination -1 accepted")
				}
				pe.Machine().Shutdown()
			})
			ePlain = a.Entry(func(pe *converse.PE, elem Element, idx int, payload any) {
				if err := plain.MigrateElement(pe, idx, (pe.Id()+1)%pe.NumPEs()); err == nil {
					t.Error("non-Checkpointable element migrated")
				}
				_ = a.Send(pe, idx, eGo, nil, 8)
			})
		},
		func(pe *converse.PE) { _ = a.Send(pe, 0, ePlain, nil, 8) })
}
