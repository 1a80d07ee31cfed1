package pami

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blueq/internal/torus"
	"blueq/internal/transport"
)

// tightRetries shrinks the retransmission timers for the duration of a
// test so recovery from injected drops takes milliseconds, not seconds.
func tightRetries(t *testing.T) {
	t.Helper()
	base, max := RetryBase, RetryMax
	RetryBase, RetryMax = 200*time.Microsecond, 2*time.Millisecond
	t.Cleanup(func() { RetryBase, RetryMax = base, max })
}

// The acceptance test for the reliability sublayer: a faulty transport
// with a 5% drop rate (plus duplicates) must deliver every eager message
// exactly once, in per-channel FIFO order, with a fixed seed making the
// fault pattern reproducible.
func TestFaultyTransportDeliversExactlyOnce(t *testing.T) {
	tightRetries(t)
	tr, err := transport.New("faulty:seed=12345,drop=0.05,dup=0.02", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := NewClient(tr, 1)
	defer c.Node(0).Shutdown()
	defer c.Node(1).Shutdown()

	const msgs = 600
	var mu sync.Mutex
	counts := make(map[int]int, msgs)
	order := make([]int, 0, msgs)
	c.Node(1).Context(0).RegisterDispatch(1, func(src int, data any, bytes int) {
		mu.Lock()
		counts[data.(int)]++
		order = append(order, data.(int))
		mu.Unlock()
	})

	for i := 0; i < msgs; i++ {
		if err := c.Node(0).Context(0).SendImmediate(1, 0, 1, i, 8); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		c.Node(1).Context(0).Advance() // deliver + ack
		c.Node(0).Context(0).Advance() // consume acks
		tr.Advance()
		mu.Lock()
		n := len(counts)
		mu.Unlock()
		if n == msgs {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d/%d distinct messages", n, msgs)
		}
		time.Sleep(100 * time.Microsecond)
	}
	// Let trailing retransmissions and duplicates land, then verify
	// exactly-once and FIFO order.
	time.Sleep(20 * time.Millisecond)
	c.Node(1).Context(0).Advance()
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < msgs; i++ {
		if counts[i] != 1 {
			t.Fatalf("message %d dispatched %d times, want exactly once", i, counts[i])
		}
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("position %d got message %d: channel FIFO order broken", i, v)
		}
	}

	ts := tr.Stats()
	if ts.Dropped == 0 {
		t.Fatalf("5%% drop rate over %d+ packets dropped nothing: %+v", msgs, ts)
	}
	rs := c.Node(0).ReliabilityStats()
	if rs.Retries == 0 {
		t.Fatalf("drops occurred but the sender never retransmitted: %+v", rs)
	}
	if rr := c.Node(1).ReliabilityStats(); rr.Redelivered == 0 {
		t.Fatalf("retransmissions+dups occurred but the receiver deduped nothing: %+v", rr)
	}
}

// A reliable transport must not arm the sublayer at all: no sequence
// wrappers, no acks, no timers.
func TestReliableTransportSkipsSublayer(t *testing.T) {
	c := newTestClient(2, 1)
	got := 0
	c.Node(1).Context(0).RegisterDispatch(1, func(int, any, int) { got++ })
	if err := c.Node(0).Context(0).SendImmediate(1, 0, 1, nil, 8); err != nil {
		t.Fatal(err)
	}
	c.Node(1).Context(0).Advance()
	if got != 1 {
		t.Fatalf("delivered %d, want 1", got)
	}
	if rs := c.Node(0).ReliabilityStats(); rs != (ReliabilityStats{}) {
		t.Fatalf("reliable transport accrued reliability stats: %+v", rs)
	}
}

// Shutdown must stop retransmission timers so no retry fires into a
// torn-down machine.
func TestNodeShutdownStopsRetries(t *testing.T) {
	tightRetries(t)
	tr, err := transport.New("faulty:seed=9,drop=1", 2, 1) // every packet lost
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	c := NewClient(tr, 1)
	if err := c.Node(0).Context(0).SendImmediate(1, 0, 1, nil, 8); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond) // let a few retries fire
	c.Node(0).Shutdown()
	r1 := c.Node(0).ReliabilityStats().Retries
	time.Sleep(5 * time.Millisecond)
	r2 := c.Node(0).ReliabilityStats().Retries
	if r2 != r1 {
		t.Fatalf("retries continued after Shutdown: %d -> %d", r1, r2)
	}
}

// slowTransport hands out a slowEndpoint for node 0 and the inner
// transport's endpoints for every other node.
type slowTransport struct {
	transport.Transport
	ep *slowEndpoint
}

func (s *slowTransport) Endpoint(rank int) transport.Endpoint {
	if rank == 0 {
		return s.ep
	}
	return s.Transport.Endpoint(rank)
}

// slowEndpoint blocks every inject of a dispatch-1 packet for delay once
// armed, and records how many such injects were ever blocked at once.
// A retransmission round injects its window one packet at a time, so
// that peak is the peak number of rounds in flight.
type slowEndpoint struct {
	transport.Endpoint
	delay          time.Duration
	armed          atomic.Bool
	inFlight, peak atomic.Int32
}

func (e *slowEndpoint) Inject(p torus.Packet) error {
	if pl, ok := p.Payload.(relPacket); ok && pl.am.dispatch == 1 && e.armed.Load() {
		n := e.inFlight.Add(1)
		for {
			old := e.peak.Load()
			if n <= old || e.peak.CompareAndSwap(old, n) {
				break
			}
		}
		time.Sleep(e.delay)
		e.inFlight.Add(-1)
	}
	return e.Endpoint.Inject(p)
}

// A retransmission round slower than RetryMax (the race detector, a
// congested transport) must delay the next round, not overlap it: rounds
// that each re-armed the timer before injecting piled up without bound.
// Fresh sends landing mid-round must not arm a second timer either.
func TestRetryRoundsNeverOverlap(t *testing.T) {
	tightRetries(t)
	inner, err := transport.New("faulty:seed=3,drop=1", 2, 1) // nothing is ever acked
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	ep := &slowEndpoint{Endpoint: inner.Endpoint(0), delay: 3 * RetryMax}
	c := NewClient(&slowTransport{Transport: inner, ep: ep}, 1)
	defer c.Node(1).Shutdown()
	ctx := c.Node(0).Context(0)

	// The window every round retransmits: three packets, each inject
	// blocking 3×RetryMax once armed.
	for i := 0; i < 3; i++ {
		if err := ctx.SendImmediate(1, 0, 1, nil, 8); err != nil {
			t.Fatal(err)
		}
	}
	ep.armed.Store(true)
	// Dispatch-2 sends pass straight through, arriving while rounds run.
	for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); {
		if err := ctx.SendImmediate(1, 0, 2, nil, 8); err != nil {
			t.Fatal(err)
		}
		time.Sleep(RetryMax / 2)
	}
	c.Node(0).Shutdown()
	if rs := c.Node(0).ReliabilityStats(); rs.Retries < 6 {
		t.Fatalf("only %d packets retransmitted: fewer than two rounds ran", rs.Retries)
	}
	if peak := ep.peak.Load(); peak != 1 {
		t.Fatalf("peak concurrent retransmission rounds = %d, want 1", peak)
	}
	// Let the round in flight at Shutdown finish before the transport
	// closes under it.
	for deadline := time.Now().Add(5 * time.Second); ep.inFlight.Load() > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}
