package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"blueq/internal/aggregate"
	"blueq/internal/converse"
)

const (
	// floodCount is how many messages each PE streams to the other per
	// machine instance.
	floodCount = 50000
	// floodBurst is how many messages one burst handler sends before it
	// re-arms itself with a self-send.
	floodBurst = 64
	// floodBytes is the modelled size of every flood message.
	floodBytes = 32
	// floodInstanceLimit is an instance's deadline: past it the machine is
	// shut down and every message not delivered counts as failed.
	floodInstanceLimit = 10 * time.Second
)

// floodSlot is the payload of one flood message, preallocated so a send
// carries a pointer and allocates nothing of its own.
type floodSlot struct {
	val      uint64 // seeded checksum value
	msg      uint64 // trace message id
	sendSpan uint64
	sentNS   atomic.Int64
}

// floodPE is one PE's side of an instance, touched only on its scheduler
// goroutine until Wait returns.
type floodPE struct {
	sent, received int
	sum            uint64
	bursts         int
	bad            int
	firstAt        time.Time
}

func runFlood(o runOpts) phase {
	rng := rand.New(rand.NewSource(o.seed))
	var slots [2][]floodSlot // by sender
	var want [2]uint64       // checksum each PE must receive
	for s := range slots {
		slots[s] = make([]floodSlot, floodCount)
		for i := range slots[s] {
			slots[s][i].val = rng.Uint64()
			want[1-s] += slots[s][i].val
		}
	}
	var (
		rates, setup []float64
		mem          memTally
		acc          layerAcc
		delivered    int64
	)
	start := time.Now()
	for time.Since(start) < warmup {
		floodInstance(nil, &slots, want, &mem, &acc)
	}
	mem, acc = memTally{}, layerAcc{}
	o.warmedUp()
	start = time.Now()
	for time.Since(start) < o.budget {
		r, s, n := floodInstance(o.tr, &slots, want, &mem, &acc)
		delivered += n
		if r > 0 {
			rates = append(rates, r)
			setup = append(setup, s)
		}
	}
	rate := median(rates)
	opUS := 1e6 / rate
	fmt.Printf("flood: %d instances of 2x%d messages of %d B, median %.0f msg/s\n", len(rates), floodCount, floodBytes, rate)
	p := phase{e2e: metrics{}, opUS: opUS}
	p.e2e.set("op_time_us", opUS, "us")
	p.e2e.set("setup_s", median(setup), "s")
	p.e2e.set("allocs_per_op", mem.allocsPerOp(), "count")
	p.e2e.set("peak_heap_mb", mem.peakMiB(), "MiB")
	if o.tr != nil {
		acc.ops = delivered
		p.layer = layerMetrics(&acc, o.tr, o.refOpUS, kernelTimes{})
	}
	return p
}

// floodInstance runs one machine in which both PEs stream floodCount
// messages to each other. It returns the delivery rate (0 when the
// instance failed), the set-up time in seconds and the messages delivered.
func floodInstance(tr *tracer, slots *[2][]floodSlot, want [2]uint64, mem *memTally, acc *layerAcc) (float64, float64, int64) {
	attempted := int64(2 * floodCount)
	if tr != nil {
		for s := range slots {
			for i := range slots[s] {
				slots[s][i].sentNS.Store(0)
			}
		}
	}
	t0 := time.Now()
	var ts int64
	if tr != nil {
		ts = tr.now()
	}
	m, err := converse.NewMachine(converse.Config{
		Nodes: 2, WorkersPerNode: 1, Mode: converse.ModeSMP, Aggregation: &aggregate.Config{},
	})
	if err != nil {
		fail("flood: NewMachine: %v", err)
		ops(attempted, attempted)
		return 0, 0, 0
	}
	if tr != nil {
		tr.record(mainLane, spanNewMachine, 0, 0, 0, ts, tr.now())
	}
	var (
		pes         [2]floodPE
		finished    atomic.Int32
		endAt       time.Time // written by the PE that finishes last
		hData, hArm int
	)
	hData = m.RegisterHandler(func(pe *converse.PE, msg *converse.Message) {
		me := pe.Id()
		slot := msg.Payload.(*floodSlot)
		var entry int64
		if tr != nil {
			entry = tr.now()
			tr.delivered(me, slot.sentNS.Load(), entry)
		}
		st := &pes[me]
		if msg.Bytes != floodBytes {
			st.bad++
		}
		st.received++
		st.sum += slot.val
		if st.received == floodCount && finished.Add(1) == 2 {
			endAt = time.Now()
			m.Shutdown()
		}
		if tr != nil {
			tr.record(me, spanHandler, 0, slot.sendSpan, slot.msg, entry, tr.now())
		}
	})
	// hArm sends the next burst toward the peer, then re-arms itself with a
	// self-send until this PE has sent floodCount messages.
	hArm = m.RegisterHandler(func(pe *converse.PE, _ *converse.Message) {
		me := pe.Id()
		st := &pes[me]
		if st.firstAt.IsZero() {
			st.firstAt = time.Now()
		}
		st.bursts++
		var self uint64
		var entry int64
		if tr != nil {
			self = tr.newID(me)
			entry = tr.now()
		}
		for n := 0; n < floodBurst && st.sent < floodCount; n++ {
			slot := &slots[me][st.sent]
			var nm int64
			if tr != nil {
				slot.msg = tr.newMsg(me)
				slot.sendSpan = tr.newID(me)
				nm = tr.now()
			}
			msg := pe.NewMessage()
			var sb int64
			if tr != nil {
				sb = tr.now()
				tr.record(me, spanNewMessage, 0, self, slot.msg, nm, sb)
			}
			msg.Handler = hData
			msg.Bytes = floodBytes
			msg.Payload = slot
			err := pe.Send(1-me, msg)
			if tr != nil {
				se := tr.now()
				tr.record(me, spanSend, slot.sendSpan, self, slot.msg, sb, se)
				slot.sentNS.Store(se)
			}
			if err != nil {
				st.bad++
			}
			st.sent++
		}
		if st.sent < floodCount {
			rearm(pe, hArm)
		}
		if tr != nil {
			tr.record(me, spanHandler, self, 0, 0, entry, tr.now())
		}
	})
	watchdog := time.AfterFunc(floodInstanceLimit, m.Shutdown)
	mem.begin()
	if tr != nil {
		ts = tr.now()
	}
	m.Start(func(pe *converse.PE) { rearm(pe, hArm) })
	if tr != nil {
		tr.record(mainLane, spanStart, 0, 0, 0, ts, tr.now())
	}
	m.Wait()
	watchdog.Stop()
	received := int64(pes[0].received + pes[1].received)
	mem.end(received)

	// Exactly once: one execution per data message plus one per burst, and
	// each PE received exactly its peer's seeded checksum.
	var executed int64
	for i := 0; i < m.NumPEs(); i++ {
		executed += m.PE(i).Executed()
	}
	bursts := int64(pes[0].bursts + pes[1].bursts)
	ok := true
	for i := range pes {
		if pes[i].bad > 0 {
			fail("flood: PE %d saw %d refused sends or wrong sizes", i, pes[i].bad)
			ok = false
		}
		if pes[i].received == floodCount && pes[i].sum != want[i] {
			fail("flood: PE %d checksum %x, want %x", i, pes[i].sum, want[i])
			ok = false
		}
	}
	if executed != received+bursts {
		fail("flood: %d handler executions for %d messages and %d bursts", executed, received, bursts)
		ok = false
	}
	if received != attempted {
		fail("flood: %d of %d messages delivered before the %v deadline", received, attempted, floodInstanceLimit)
		ok = false
	}
	if !ok {
		// An instance that lost, duplicated or corrupted anything counts
		// every message it attempted as failed.
		ops(attempted, attempted)
		return 0, 0, received
	}
	ops(attempted, 0)
	if tr != nil {
		acc.addMachine(m)
	}
	begin := pes[0].firstAt
	if pes[1].firstAt.Before(begin) {
		begin = pes[1].firstAt
	}
	return float64(attempted) / endAt.Sub(begin).Seconds(), begin.Sub(t0).Seconds(), received
}

// rearm queues a burst handler on pe itself.
func rearm(pe *converse.PE, h int) {
	msg := pe.NewMessage()
	msg.Handler = h
	msg.Bytes = 8
	if err := pe.Send(pe.Id(), msg); err != nil {
		fail("flood: self-send refused: %v", err)
	}
}
