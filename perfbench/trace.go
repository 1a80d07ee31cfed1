package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanKind names the layer boundary a span covers. Every span is recorded
// by the benchmark around a call into a public API of the runtime.
type spanKind uint8

const (
	spanNewMachine   spanKind = iota // converse.NewMachine
	spanStart                        // Machine.Start
	spanNewMessage                   // PE.NewMessage
	spanSend                         // PE.Send
	spanHandler                      // a handler body the benchmark registered
	spanMDNew                        // mdsim.New
	spanMDRun                        // Simulation.Run
	spanSerialForces                 // md.ComputeNonbonded + md.ComputeBonded
	spanSerialFFT                    // fft3d.SerialForward + fft3d.SerialInverse
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"converse.NewMachine", "converse.Start", "converse.PE.NewMessage", "converse.PE.Send",
	"handler", "mdsim.New", "mdsim.Run", "md.serial_forces", "fft3d.serial",
}

// span is one timed interval. Spans of one message share Msg; Parent is
// the span that caused this one (a handler's parent is the Send of the
// message it runs).
type span struct {
	ID, Parent, Msg uint64
	Kind            spanKind
	Lane            int
	Start, End      int64 // ns since the tracer's epoch
}

// Lanes: one per PE id (a PE records only on its own scheduler goroutine)
// and one for the goroutine that runs the workload, so recording takes no
// lock.
const (
	numPELanes = 2
	mainLane   = numPELanes
	numLanes   = numPELanes + 1
)

// laneCap bounds the spans kept per lane. Past it spans still feed the
// duration histograms but are not kept for the trace file.
const laneCap = 1 << 15

type lane struct {
	spans   []span
	dropped int64
	nextID  uint64
	nextMsg uint64
	dur     [numSpanKinds]*hist
	deliver *hist // handler entry minus the sender's Send return
}

// tracer keeps spans in memory for one traced phase and writes them out
// when the benchmark ends.
type tracer struct {
	epoch time.Time
	lanes [numLanes]lane
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	for i := range t.lanes {
		l := &t.lanes[i]
		l.spans = make([]span, 0, laneCap)
	}
	return t
}

// now returns nanoseconds since the tracer's epoch, never 0.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) + 1 }

// newID returns a span id unique across lanes.
func (t *tracer) newID(ln int) uint64 {
	l := &t.lanes[ln]
	l.nextID++
	return uint64(ln+1)<<48 | l.nextID
}

// newMsg returns a message id unique across lanes.
func (t *tracer) newMsg(ln int) uint64 {
	l := &t.lanes[ln]
	l.nextMsg++
	return uint64(ln+1)<<40 | l.nextMsg
}

// record stores a finished span on lane ln. id 0 draws a fresh one.
func (t *tracer) record(ln int, kind spanKind, id, parent, msg uint64, start, end int64) uint64 {
	l := &t.lanes[ln]
	if id == 0 {
		id = t.newID(ln)
	}
	if l.dur[kind] == nil {
		l.dur[kind] = newHist()
	}
	l.dur[kind].add(end - start)
	if len(l.spans) < laneCap {
		l.spans = append(l.spans, span{ID: id, Parent: parent, Msg: msg, Kind: kind, Lane: ln, Start: start, End: end})
	} else {
		l.dropped++
	}
	return id
}

// delivered records, on the receiving lane, the time from the sender's
// Send return to handler entry. sentNS is 0 when the handler started before
// Send returned; that delivery counts as 0 ns.
func (t *tracer) delivered(ln int, sentNS, entry int64) {
	d := int64(0)
	if sentNS > 0 {
		d = entry - sentNS
	}
	l := &t.lanes[ln]
	if l.deliver == nil {
		l.deliver = newHist()
	}
	l.deliver.add(d)
}

// kindP50 merges the lanes' histograms for kind and returns their median,
// NaN when nothing was recorded.
func (t *tracer) kindP50(kind spanKind) float64 {
	return t.mergedP50(func(l *lane) *hist { return l.dur[kind] })
}

func (t *tracer) deliverP50() float64 {
	return t.mergedP50(func(l *lane) *hist { return l.deliver })
}

func (t *tracer) mergedP50(pick func(*lane) *hist) float64 {
	all := newHist()
	for i := range t.lanes {
		h := pick(&t.lanes[i])
		if h == nil {
			continue
		}
		for ns, c := range h.counts {
			all.counts[ns] += c
		}
		all.overflow = append(all.overflow, h.overflow...)
		all.n += h.n
	}
	v, ok := all.quantile(0.5)
	if !ok {
		return nanValue
	}
	return v
}

// write stores the kept spans as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		ID      uint64 `json:"id"`
		Parent  uint64 `json:"parent,omitempty"`
		Msg     uint64 `json:"msg,omitempty"`
		Name    string `json:"name"`
		Lane    int    `json:"lane"`
		StartNS int64  `json:"start_ns"`
		EndNS   int64  `json:"end_ns"`
	}
	var dropped int64
	for i := range t.lanes {
		l := &t.lanes[i]
		dropped += l.dropped
		for _, s := range l.spans {
			if err := enc.Encode(line{s.ID, s.Parent, s.Msg, spanNames[s.Kind], s.Lane, s.Start, s.End}); err != nil {
				return "", err
			}
		}
	}
	if dropped > 0 {
		if err := enc.Encode(map[string]int64{"dropped_spans": dropped}); err != nil {
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close %s: %w", path, err)
	}
	return path, nil
}
