// Package buffer provides the input-buffer and link-level flow-control
// primitives shared by the buffered designs: a fixed-depth serial queue (the
// paper's buffer slots are "connected serially, thus eliminating VCs and the
// corresponding virtual-channel allocator", §II) and a credit counter with a
// delayed return pipeline that models the one-cycle credit signalling delay
// on the reverse link.
package buffer

import (
	"fmt"
	"math/bits"

	"dxbar/internal/flit"
)

// Entry is a buffered flit plus what its buffer write computed for it: Ready,
// the cycle it becomes eligible for switch allocation (the baselines' RC
// pipeline stage), and the route at this router — Want, the output-request
// mask, and Route, the ordered productive list in the routing table's packed
// form. The routing table is immutable and faults live inside crossbars,
// never in links, so neither can go stale while the flit waits; both are
// derived state, never serialized, and rebuilt from the table after a load.
type Entry struct {
	F     *flit.Flit
	Ready uint64
	Want  uint8
	Route uint16
}

// Queue is a fixed-depth ring FIFO of entries, held by value in the routers'
// input stages. The ring's capacity is the power of two at or above the
// depth, so the index wraps with a mask; the depth bounds the occupancy and
// the codec's count.
type Queue struct {
	ring        []Entry
	head, count int
	depth       int
}

// RingLen returns the ring capacity of a queue of the given depth: the power
// of two at or above it.
func RingLen(depth int) int { return 1 << bits.Len(uint(depth-1)) }

// InitQueues gives every queue of qs an empty ring of the given depth, all
// carved in order from store when it holds len(qs)·RingLen(depth) entries —
// storage the caller owns, such as the engine's per-node slab
// (sim.Env.QueueStore) — and from one new array otherwise (a nil store). It
// panics on a non-positive depth. Entries left in store by a previous owner
// are dead: a queue reads only the slots it has written since.
func InitQueues(qs []Queue, depth int, store []Entry) {
	if depth <= 0 {
		panic(fmt.Sprintf("buffer: invalid queue depth %d", depth))
	}
	c := RingLen(depth)
	if len(store) < len(qs)*c {
		store = make([]Entry, len(qs)*c)
	}
	for i := range qs {
		qs[i] = Queue{ring: store[i*c : (i+1)*c : (i+1)*c], depth: depth}
	}
}

// Len returns the number of buffered flits.
func (q *Queue) Len() int { return q.count }

// Full reports whether the queue holds depth flits.
func (q *Queue) Full() bool { return q.count == q.depth }

// Push appends e and returns the new length; it panics on overflow because
// flow control is supposed to make overflow impossible — a push into a full
// queue is a simulator bug, not a network condition.
func (q *Queue) Push(e Entry) int {
	if q.count == q.depth {
		panic("buffer: queue overflow (flow-control violation)")
	}
	q.ring[(q.head+q.count)&(len(q.ring)-1)] = e
	q.count++
	return q.count
}

// At returns the i-th oldest entry, 0 <= i < Len; At(0) is the head.
func (q *Queue) At(i int) *Entry { return &q.ring[(q.head+i)&(len(q.ring)-1)] }

// Pop removes the oldest entry and returns its flit (nil if empty).
func (q *Queue) Pop() *flit.Flit {
	if q.count == 0 {
		return nil
	}
	f := q.ring[q.head].F
	q.ring[q.head] = Entry{}
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.count--
	return f
}

// Credits tracks the free buffer space at the downstream end of one link.
// The upstream router decrements on send; returned credits ride a small
// delay pipeline that models the reverse-channel signalling latency.
type Credits struct {
	available int
	max       int
	// inflight[i] credits become available after i+1 more Tick calls. The
	// default delay-1 counter has no array: its single slot is pendingCnt,
	// so Return and Tick touch only the counter's own cache line (State
	// writes pendingCnt in the slot's place).
	inflight []int
	// pendingCnt caches the sum of inflight so Return and Tick are O(1):
	// the tick loop runs once per counter per cycle across the whole
	// network, and most counters are idle most cycles.
	pendingCnt int
}

// NewCredits returns a counter with the given capacity and credit-return
// delay in cycles (delay >= 1; the paper's fairness discussion assumes a
// non-zero credit round trip).
func NewCredits(capacity, delay int) *Credits {
	if capacity <= 0 || delay < 1 {
		panic(fmt.Sprintf("buffer: invalid credits capacity=%d delay=%d", capacity, delay))
	}
	return &Credits{available: capacity, max: capacity, inflight: pipeline(1, delay)}
}

// pipeline returns the backing of n counters' delay pipelines: none at delay
// 1, whose one slot is each counter's pendingCnt.
func pipeline(n, delay int) []int {
	if delay == 1 {
		return nil
	}
	return make([]int, n*delay)
}

// NewCreditsSlab returns n independent counters in one contiguous
// allocation (with one shared backing array for the delay pipelines). The
// engine's per-cycle credit sweep and the routers' send probes touch
// counters all over the network; packing them keeps that traffic on a
// handful of cache lines instead of n scattered heap objects.
func NewCreditsSlab(n, capacity, delay int) []Credits {
	if capacity <= 0 || delay < 1 {
		panic(fmt.Sprintf("buffer: invalid credits capacity=%d delay=%d", capacity, delay))
	}
	slab := make([]Credits, n)
	backing := pipeline(n, delay)
	for i := range slab {
		slab[i] = Credits{available: capacity, max: capacity}
		if backing != nil {
			slab[i].inflight = backing[i*delay : (i+1)*delay : (i+1)*delay]
		}
	}
	return slab
}

// Available returns the number of usable credits.
func (c *Credits) Available() int { return c.available }

// CanSend reports whether at least one credit is available.
func (c *Credits) CanSend() bool { return c.available > 0 }

// Consume spends one credit; it panics if none is available (an upstream
// send without a credit is a flow-control violation).
func (c *Credits) Consume() {
	if c.available == 0 {
		panic("buffer: credit underflow (flow-control violation)")
	}
	c.available--
}

// Return schedules one credit to become available after the configured
// delay (called by the downstream router when a buffer slot frees).
func (c *Credits) Return() {
	if d := len(c.inflight); d > 0 {
		c.inflight[d-1]++
	}
	c.pendingCnt++
	if c.pendingCnt+c.available > c.max {
		panic("buffer: credit overflow (more credits returned than consumed)")
	}
}

// ReturnLate is Return for a caller that runs after this cycle's Tick has
// already advanced the pipeline (the sharded engine's barrier replaying a
// credit return that crossed a tile boundary): the credit enters one stage
// further along — on the default delay-1 pipeline it matures at once — so the
// counter ends the cycle in exactly the state Return followed by Tick leaves.
func (c *Credits) ReturnLate() {
	if d := len(c.inflight); d == 0 {
		c.available++
	} else {
		c.inflight[d-2]++
		c.pendingCnt++
	}
	if c.pendingCnt+c.available > c.max {
		panic("buffer: credit overflow (more credits returned than consumed)")
	}
}

// Tick advances the return pipeline by one cycle. The idle check is split
// from the pipeline shift so Tick inlines into the engine's per-cycle
// credit sweep — most counters are idle most cycles, and the sweep visits
// every counter in the network.
func (c *Credits) Tick() {
	if c.pendingCnt == 0 {
		return
	}
	c.tickPending()
}

func (c *Credits) tickPending() {
	if len(c.inflight) == 0 {
		// The default delay-1 pipeline: everything pending matures now.
		c.available += c.pendingCnt
		c.pendingCnt = 0
		return
	}
	matured := c.inflight[0]
	c.available += matured
	c.pendingCnt -= matured
	copy(c.inflight, c.inflight[1:])
	c.inflight[len(c.inflight)-1] = 0
}

func (c *Credits) pending() int { return c.pendingCnt }

// HasPending reports whether returned credits are still riding the delay
// pipeline (the engine's credit sweep uses it to keep a counter on its
// active list until the pipeline drains).
func (c *Credits) HasPending() bool { return c.pendingCnt > 0 }

// Outstanding returns credits consumed but not yet returned or in flight —
// i.e. flits currently occupying downstream resources.
func (c *Credits) Outstanding() int { return c.max - c.available - c.pending() }

// Reset restores the counter to its initial full-capacity state, clearing
// the return pipeline (engine reuse between runs).
func (c *Credits) Reset() {
	c.available = c.max
	c.pendingCnt = 0
	for i := range c.inflight {
		c.inflight[i] = 0
	}
}
