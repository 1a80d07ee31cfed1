package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"blueq/internal/aggregate"
	"blueq/internal/converse"
)

// pingRounds is the number of round trips per machine instance. Latency is
// bimodal per instance (README.md), so a run pools many short instances
// rather than timing one long one.
const pingRounds = 1000

// pingInstanceLimit is an instance's deadline: past it the machine is shut
// down and every hop not delivered counts as failed.
const pingInstanceLimit = 5 * time.Second

// pingWindow is the span over which one p99 is taken. A run reports the
// median of its windows' p99s, so one burst of host noise moves one window,
// not the run's figure.
const pingWindow = time.Second

// pingLeg is one ping-pong workload: a 32 B message between two PEs of
// one node (intra), the same between two nodes with aggregation armed
// (inter), or a 64 KiB modelled payload that takes the rendezvous path
// (rzv).
type pingLeg struct {
	name    string
	nodes   int
	workers int
	bytes   int
	agg     bool
	rtt     *hist     // round-trip samples over the run, ns
	win     *hist     // round-trip samples of the current window
	inst    []float64 // round-trip samples of the current instance
	instP50 []float64 // each finished instance's median round trip
	winP99  []float64
}

// closeWindow records the window's p99 round trip and empties it.
func (l *pingLeg) closeWindow() {
	if v, ok := l.win.quantile(0.99); ok {
		l.winP99 = append(l.winP99, v)
	}
	l.win.reset()
}

var (
	intraLeg = pingLeg{name: "intra", nodes: 1, workers: 2, bytes: 32}
	interLeg = pingLeg{name: "inter", nodes: 2, workers: 1, bytes: 32, agg: true}
	rzvLeg   = pingLeg{name: "rzv", nodes: 2, workers: 1, bytes: 64 << 10}
)

// pingWorkload returns the runner of one leg's workload.
func pingWorkload(leg pingLeg) func(runOpts) phase {
	return func(o runOpts) phase {
		l := leg
		l.rtt, l.win = newHist(), newHist()
		l.inst = make([]float64, 0, pingRounds)
		return runPingPong(o, &l)
	}
}

func (l *pingLeg) config() converse.Config {
	cfg := converse.Config{Nodes: l.nodes, WorkersPerNode: l.workers, Mode: converse.ModeSMP}
	if l.agg {
		cfg.Aggregation = &aggregate.Config{}
	}
	return cfg
}

// pingTok is the payload of one hop. The benchmark preallocates one per
// hop, so a send carries a pointer and allocates nothing of its own.
type pingTok struct {
	hop      int
	val      uint64 // seeded checksum value of this hop
	msg      uint64 // trace message id
	sendSpan uint64 // trace id of the Send span that carried it
	sentNS   atomic.Int64
}

// pingSide is one PE's view of an instance, padded to its own cache lines.
// at is PE 0's last send (for the round-trip sample) and PE 1's first
// handler entry (the end of set-up).
type pingSide struct {
	next     int // next hop this PE expects
	received int
	sum      uint64
	bad      int
	at       time.Time
	_        [128 - 56]byte
}

// pingState is one run's shared ping-pong inputs and tallies.
type pingState struct {
	o      runOpts
	toks   []pingTok
	setup  []float64 // seconds, per instance
	mem    memTally
	acc    layerAcc
	hops   int64 // hops delivered in finished instances
	window time.Duration
}

func runPingPong(o runOpts, l *pingLeg) phase {
	rng := rand.New(rand.NewSource(o.seed))
	st := &pingState{o: o, toks: make([]pingTok, 2*pingRounds)}
	for i := range st.toks {
		st.toks[i].hop = i
		st.toks[i].val = rng.Uint64()
	}
	// The warm-up is untraced.
	st.o.tr = nil
	start := time.Now()
	for time.Since(start) < warmup {
		st.instance(l)
	}
	l.rtt.reset()
	l.win.reset()
	l.instP50 = l.instP50[:0]
	st.setup, st.mem, st.hops = nil, memTally{}, 0
	st.o.tr = o.tr
	o.warmedUp()
	start = time.Now()
	winStart := start
	for time.Since(start) < o.budget {
		st.instance(l)
		// A window closes after the instance that fills it; the run's last,
		// partial window counts only if it is at least half full.
		if d := time.Since(winStart); d >= pingWindow || time.Since(start) >= o.budget && d >= pingWindow/2 {
			l.closeWindow()
			winStart = time.Now()
		}
	}
	st.window = time.Since(start)

	// op_time_us is the mean of the instances' median one-way latencies.
	// Instances run in one of two modes (README.md, known issues); the mean
	// moves in proportion to the share of each mode, where a pooled median
	// would jump between them.
	var sum float64
	for _, v := range l.instP50 {
		sum += v
	}
	mean := sum / float64(len(l.instP50)) / 2e3 // round trip ns -> one-way us
	p50, _ := l.rtt.quantile(0.5)
	p50 /= 2e3
	// The p99 is printed, not reported as a metric: it sits on the
	// idle-spin/futex-wake cliff and moves more between sets of runs of
	// unchanged code than a bound may allow (README.md, known issues).
	p99 := median(l.winP99) / 2e3
	fmt.Printf("%s one-way latency: mean of %d instance medians %.4f us; pooled p50 %.4f us over %d samples; p99 %.4f us, median of %d windows of %v\n",
		l.name, len(l.instP50), mean, p50, l.rtt.n, p99, len(l.winP99), pingWindow)
	fmt.Printf("%s: %d instances, %d hops in %v\n", l.name, len(st.setup), st.hops, st.window.Round(time.Millisecond))
	p := phase{e2e: metrics{}, opUS: mean}
	p.e2e.set("op_time_us", mean, "us")
	p.e2e.set("setup_s", median(st.setup), "s")
	p.e2e.set("allocs_per_op", st.mem.allocsPerOp(), "count")
	p.e2e.set("peak_heap_mb", st.mem.peakMiB(), "MiB")
	if o.tr != nil {
		st.acc.ops = st.hops
		p.layer = layerMetrics(&st.acc, o.tr, o.refOpUS, kernelTimes{})
	}
	return p
}

// instance runs one machine for pingRounds round trips and folds its
// samples, checks and counters into the run.
func (st *pingState) instance(l *pingLeg) {
	tr := st.o.tr
	hops := 2 * pingRounds
	for i := range st.toks {
		st.toks[i].sentNS.Store(0)
	}
	t0 := time.Now()
	var ts int64
	if tr != nil {
		ts = tr.now()
	}
	m, err := converse.NewMachine(l.config())
	if err != nil {
		fail("%s: NewMachine: %v", l.name, err)
		ops(int64(hops), int64(hops))
		return
	}
	if tr != nil {
		tr.record(mainLane, spanNewMachine, 0, 0, 0, ts, tr.now())
	}
	// Every leg has exactly two PEs, 0 and 1, which send to each other. PE 1
	// receives the even hops and PE 0 the odd ones; each PE keeps its own
	// tallies on its own cache lines, so the benchmark adds no shared writes
	// to the runtime's.
	sides := new([2]pingSide)
	sides[0].next, sides[1].next = 1, 0
	var h int
	send := func(pe *converse.PE, hop int, parent uint64) {
		tok := &st.toks[hop]
		lane := pe.Id()
		var nm int64
		if tr != nil {
			tok.msg = tr.newMsg(lane)
			tok.sendSpan = tr.newID(lane)
			nm = tr.now()
		}
		msg := pe.NewMessage()
		var sb int64
		if tr != nil {
			sb = tr.now()
			tr.record(lane, spanNewMessage, 0, parent, tok.msg, nm, sb)
		}
		msg.Handler = h
		msg.Bytes = l.bytes
		msg.Payload = tok
		if lane == 0 {
			sides[0].at = time.Now()
		}
		err := pe.Send(1-lane, msg)
		if tr != nil {
			se := tr.now()
			tr.record(lane, spanSend, tok.sendSpan, parent, tok.msg, sb, se)
			tok.sentNS.Store(se)
		}
		if err != nil {
			sides[lane].bad++
			m.Shutdown()
		}
	}
	h = m.RegisterHandler(func(pe *converse.PE, msg *converse.Message) {
		tok := msg.Payload.(*pingTok)
		lane := pe.Id()
		me := &sides[lane]
		var now time.Time
		if lane == 0 || tok.hop == 0 {
			now = time.Now()
		}
		var entry int64
		if tr != nil {
			entry = tr.now()
			tr.delivered(lane, tok.sentNS.Load(), entry)
		}
		if tok.hop == 0 {
			me.at = now // PE 1's first handler entry: the end of set-up
		}
		if tok.hop != me.next || tok.val != st.toks[me.next].val || msg.Bytes != l.bytes {
			me.bad++
			m.Shutdown()
			return
		}
		me.next += 2
		me.received++
		me.sum += tok.val
		var self uint64
		if tr != nil {
			self = tr.newID(lane)
		}
		if lane == 0 {
			rtt := int64(now.Sub(me.at))
			l.rtt.add(rtt)
			l.win.add(rtt)
			l.inst = append(l.inst, float64(rtt))
		}
		if tok.hop == hops-1 {
			m.Shutdown()
		} else {
			send(pe, tok.hop+1, self)
		}
		if tr != nil {
			tr.record(lane, spanHandler, self, tok.sendSpan, tok.msg, entry, tr.now())
		}
	})
	watchdog := time.AfterFunc(pingInstanceLimit, m.Shutdown)
	st.mem.begin()
	if tr != nil {
		ts = tr.now()
	}
	m.Start(func(pe *converse.PE) {
		if pe.Id() == 0 {
			send(pe, 0, 0)
		}
	})
	if tr != nil {
		tr.record(mainLane, spanStart, 0, 0, 0, ts, tr.now())
	}
	m.Wait()
	watchdog.Stop()
	received := sides[0].received + sides[1].received
	st.mem.end(int64(received))

	// Exactly once: the machine ran one handler per hop delivered, and the
	// seeded checksum of those hops matches.
	var executed int64
	for i := 0; i < m.NumPEs(); i++ {
		executed += m.PE(i).Executed()
	}
	sum := sides[0].sum + sides[1].sum
	bad := sides[0].bad + sides[1].bad
	var want uint64
	for i := 0; i < received; i++ {
		want += st.toks[i].val
	}
	failed := int64(hops - received)
	switch {
	case bad > 0:
		fail("%s: %d hops out of sequence, corrupted or refused", l.name, bad)
	case executed != int64(received):
		fail("%s: %d handler executions for %d hops delivered", l.name, executed, received)
	case sum != want:
		fail("%s: checksum %x, want %x", l.name, sum, want)
	case received != hops:
		fail("%s: %d of %d hops delivered before the %v deadline", l.name, received, hops, pingInstanceLimit)
	}
	if bad > 0 || executed != int64(received) || sum != want {
		failed = int64(hops)
	}
	ops(int64(hops), failed)
	st.hops += int64(received)
	if len(l.inst) > 0 {
		l.instP50 = append(l.instP50, median(l.inst))
		l.inst = l.inst[:0]
	}
	if first := sides[1].at; !first.IsZero() {
		st.setup = append(st.setup, first.Sub(t0).Seconds())
	}
	if tr != nil {
		st.acc.addMachine(m)
	}
}
