package main

import (
	"math"

	"blueq/internal/aggregate"
	"blueq/internal/converse"
	"blueq/internal/obs"
)

// layerAcc sums the runtime's own counters over every machine instance of
// a traced phase, read through the accessors the packages export.
type layerAcc struct {
	ops               int64 // operations of the workload: hops, messages or steps
	executed, idle    int64
	rzvCompleted      int64
	envHit, envMiss   int64
	envLocal, envRem  int64
	envHeap           int64
	aggBatch, aggMsgs int64
	aggFlush          [4]int64
	pamiInject        int64
	pamiRget          int64
	pamiAdvanced      int64
	packets           int64
}

// addMachine folds one finished (Wait returned) machine into the sums.
func (a *layerAcc) addMachine(m *converse.Machine) {
	for i := 0; i < m.NumPEs(); i++ {
		pe := m.PE(i)
		a.executed += pe.Executed()
		a.idle += pe.IdleCycles()
	}
	if ep := m.EnvelopePool(); ep != nil {
		s := ep.Stats()
		a.envHit += s.Hits.Load()
		a.envMiss += s.Misses.Load()
		a.envLocal += s.LocalFrees.Load()
		a.envRem += s.RemoteFrees.Load()
		a.envHeap += s.HeapFrees.Load()
	}
	a.rzvCompleted += m.RendezvousStats().Completed.Load()
	client := m.PAMIClient()
	for r := 0; r < m.NumNodes(); r++ {
		if ag := m.Node(r).Aggregator(); ag != nil {
			s := ag.Stats()
			a.aggBatch += s.Batches
			a.aggMsgs += s.Messages
			for i := range a.aggFlush {
				a.aggFlush[i] += s.Flushes[i]
			}
		}
		node := client.Node(r)
		for c := 0; c < node.ContextCount(); c++ {
			imm, sends, rgets, adv := node.Context(c).Stats()
			a.pamiInject += imm + sends
			a.pamiRget += rgets
			a.pamiAdvanced += adv
		}
	}
	a.packets += m.Transport().Stats().Injected
}

// share is num/den for the per-layer figures, 0 when den is 0: a layer the
// workload does not exercise did none of its work.
func share(num, den float64) float64 {
	if den == 0 || math.IsNaN(num) {
		return 0
	}
	return num / den
}

// kernelTimes are md's serial kernel figures, zero on workloads that run
// no kernel: the serial force field and the serial PME-grid FFT in ns per
// step, and the FFT's allocations per transform.
type kernelTimes struct {
	forceNSPerOp, fftNSPerOp, fftAllocs float64
}

// obsValues indexes an obs snapshot by "subsystem/name": counters and
// gauges by value, histograms by count, and histogram sums by
// "subsystem/name.sum".
func obsValues() map[string]int64 {
	out := map[string]int64{}
	for _, m := range obs.Default.Snapshot(obs.SnapshotOptions{}).Metrics {
		v := m.Value
		if m.Kind == obs.KindHistogram {
			v = m.Count
			out[m.Subsystem+"/"+m.Name+".sum"] = m.Sum
		}
		out[m.Subsystem+"/"+m.Name] = v
	}
	return out
}

// layerMetrics turns a traced phase's sums, the obs registry, the spans and
// the kernel timings into the per-layer figures. Every workload reports
// every figure; one a workload does not exercise reads 0. Times are given
// as shares of refOpUS, the untraced run's op_time_us, so every one of them
// is measured on every workload.
func layerMetrics(a *layerAcc, tr *tracer, refOpUS float64, k kernelTimes) metrics {
	o := obsValues()
	i := func(v int64) float64 { return float64(v) }
	msgs := i(a.executed)
	frees := i(a.envLocal + a.envRem + a.envHeap)
	flushes := i(a.aggFlush[aggregate.FlushFull] + a.aggFlush[aggregate.FlushTimer] +
		a.aggFlush[aggregate.FlushIdle] + a.aggFlush[aggregate.FlushExplicit])
	wakes := i(o["wakeup/productive_wake_total"] + o["wakeup/spurious_wake_total"])
	opNS := refOpUS * 1e3
	m := metrics{}
	m.set("converse.send_share", share(tr.kindP50(spanSend), opNS), "ratio")
	m.set("converse.deliver_share", share(tr.deliverP50(), opNS), "ratio")
	m.set("converse.sched_residency_us_mean", share(i(o["converse/deliver_latency_ns.sum"]), 1e3*i(o["converse/deliver_latency_ns"])), "us")
	m.set("converse.msgs_per_op", share(msgs, i(a.ops)), "count")
	m.set("converse.idle_cycles_per_msg", share(i(a.idle), msgs), "count")
	m.set("converse.sched_block_per_msg", share(i(o["converse/sched_block_total"]), i(o["converse/deliver_total"])), "count")
	m.set("converse.rzv_completed_per_msg", share(i(a.rzvCompleted), msgs), "count")
	m.set("mempool.newmsg_share", share(tr.kindP50(spanNewMessage), opNS), "ratio")
	m.set("mempool.env_hit_ratio", share(i(a.envHit), i(a.envHit+a.envMiss)), "ratio")
	m.set("mempool.env_remote_free_frac", share(i(a.envRem), frees), "ratio")
	m.set("mempool.env_heap_free_per_msg", share(i(a.envHeap), msgs), "count")
	m.set("lockless.spill_ratio", share(i(o["lockless/overflow_spill_total"]), i(o["lockless/enqueue_total"])), "ratio")
	m.set("lockless.ring_depth_high_water", i(o["lockless/ring_depth_high_water"]), "count")
	m.set("wakeup.signals_per_msg", share(i(o["wakeup/signal_total"]), msgs), "count")
	m.set("wakeup.productive_wake_ratio", share(i(o["wakeup/productive_wake_total"]), wakes), "ratio")
	m.set("aggregate.msgs_per_batch", share(i(a.aggMsgs), i(a.aggBatch)), "count")
	m.set("aggregate.flush_idle_frac", share(i(a.aggFlush[aggregate.FlushIdle]), flushes), "ratio")
	m.set("aggregate.flush_full_frac", share(i(a.aggFlush[aggregate.FlushFull]), flushes), "ratio")
	m.set("aggregate.flush_timer_frac", share(i(a.aggFlush[aggregate.FlushTimer]), flushes), "ratio")
	m.set("pami.injects_per_msg", share(i(a.pamiInject), msgs), "count")
	m.set("pami.rgets_per_msg", share(i(a.pamiRget), msgs), "count")
	m.set("pami.advanced_per_msg", share(i(a.pamiAdvanced), msgs), "count")
	m.set("transport.packets_per_msg", share(i(a.packets), msgs), "count")
	// md's kernels as shares of the PEs' time per step: the force field's
	// share is the parallel efficiency, and a drop in it with no change in
	// the kernel means runtime overhead.
	m.set("md.parallel_eff", share(k.forceNSPerOp, mdPEs*opNS), "ratio")
	m.set("fft3d.pe_time_share", share(k.fftNSPerOp, mdPEs*opNS), "ratio")
	m.set("fft3d.allocs_per_transform", k.fftAllocs, "count")
	return m
}
