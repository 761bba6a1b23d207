package router

import (
	"dxbar/internal/arbiter"
	"dxbar/internal/bitarb"
	"dxbar/internal/events"
	"dxbar/internal/flit"
	"dxbar/internal/routing"
	"dxbar/internal/sim"
)

// bufEntry is a buffered flit plus the cycle it becomes eligible for switch
// allocation (the extra cycle models the baseline's RC pipeline stage).
type bufEntry struct {
	f     *flit.Flit
	ready uint64
}

// entryQueue is a small fixed-capacity ring FIFO of bufEntry (the baseline
// needs the eligibility timestamp, which buffer.FIFO deliberately does not
// carry). Capacity is fifoDepth: credit flow control guarantees a FIFO never
// holds more, so the ring allocates nothing after construction.
type entryQueue struct {
	entries [fifoDepth]bufEntry
	headIdx int
	count   int
}

func (q *entryQueue) push(e bufEntry) {
	if q.count == fifoDepth {
		panic("router: entryQueue overflow (credit violation)")
	}
	q.entries[(q.headIdx+q.count)%fifoDepth] = e
	q.count++
}
func (q *entryQueue) len() int { return q.count }
func (q *entryQueue) head() *bufEntry {
	if q.count == 0 {
		return nil
	}
	return &q.entries[q.headIdx]
}
func (q *entryQueue) pop() bufEntry {
	e := q.entries[q.headIdx]
	q.entries[q.headIdx] = bufEntry{}
	q.headIdx = (q.headIdx + 1) % fifoDepth
	q.count--
	return e
}

// Buffered is the generic input-buffered baseline router: per-input serial
// FIFOs (no virtual channels), a separable output-first switch allocator,
// credit flow control, and the 3-stage RC·SA/ST·LT pipeline (one eligibility
// cycle in the buffer before a flit may compete for the switch).
//
// With split=false it is the paper's Buffered 4 (one 4-flit FIFO per input,
// subject to head-of-line blocking); with split=true it is Buffered 8 (two
// 4-flit FIFOs per input whose heads both compete, removing HoL blocking —
// "the split design resembles DXbar only at the buffering and provides for
// a fair comparison").
type Buffered struct {
	env   *sim.Env
	algo  routing.Algorithm
	split bool
	fifos [flit.NumLinkPorts][]*entryQueue
	// nextFIFO alternates arrivals between the two FIFOs of a split input
	// (the split design steers arrivals round-robin; it falls back to the
	// other FIFO only when the preferred one is full).
	nextFIFO [flit.NumLinkPorts]int
	// alloc is the branchy reference allocator, fast its bit-parallel twin
	// (grant-for-grant identical; reference selects which one runs).
	alloc     *arbiter.Separable
	fast      *bitarb.Separable
	reference bool

	// table is the precomputed form of algo (shared network-wide when the
	// factory passes a *routing.Table).
	table *routing.Table

	// Per-Step allocator scratch, reused every cycle: the request matrix as
	// one output-mask word per input, the sendable-output mask, and the
	// candidate behind each set request bit (stale entries are never read —
	// a grant only lands on a bit set this cycle).
	req      [flit.NumPorts]uint64
	sendable uint64
	cand     [flit.NumPorts][flit.NumPorts]candidate
}

// candidate is the flit (and its source queue; nil = injection port) behind
// one request-matrix entry.
type candidate struct {
	q *entryQueue
	f *flit.Flit
}

// NewBuffered builds a Buffered 4 (split=false) or Buffered 8 (split=true)
// router. The engine must be configured with BufferDepth 4 or 8
// respectively so credits match buffer capacity.
func NewBuffered(env *sim.Env, algo routing.Algorithm, split bool) *Buffered {
	mesh := env.Mesh()
	b := &Buffered{
		env:   env,
		algo:  algo,
		split: split,
		alloc: arbiter.NewSeparable(flit.NumPorts, flit.NumPorts),
		fast:  bitarb.NewSeparable(flit.NumPorts, flit.NumPorts),
		table: routing.NewTable(algo, mesh, mesh.Nodes()),
	}
	for p := range b.fifos {
		if split {
			b.fifos[p] = []*entryQueue{{}, {}}
		} else {
			b.fifos[p] = []*entryQueue{{}}
		}
	}
	return b
}

// SetReferenceArbitration switches the router to the branchy reference
// allocator (the oracle the bit-parallel one is proven grant-for-grant
// identical to). Call before the first Step.
func (b *Buffered) SetReferenceArbitration(on bool) { b.reference = on }

// fifoDepth is the per-FIFO capacity (4 flits, paper §III.A).
const fifoDepth = 4

// Step implements sim.Router. It reports quiescent when every input FIFO is
// empty after the step: the FIFOs (with their RC eligibility stamps) are the
// router's only cross-cycle flit storage, the round-robin arbiters move only
// on a grant, and returned credits matter only to a router with something to
// send — so with nothing buffered, latched or queued another Step is a no-op.
func (b *Buffered) Step(cycle uint64) (quiescent bool) {
	env := b.env

	// Buffer writes (BW stage): flits become eligible next cycle (RC).
	for p := flit.North; p <= flit.West; p++ {
		f := env.In[p]
		if f == nil {
			continue
		}
		env.In[p] = nil
		env.InMask &^= 1 << uint(p)
		q := b.pickQueue(p)
		if q == nil {
			panic("router: buffered input overflow (credit violation)")
		}
		q.push(bufEntry{f: f, ready: cycle + 1})
		f.Buffered++
		env.Meter().BufferWrite()
		env.Stats().BufferingEvent(cycle)
		env.Events().Record(cycle, events.Buffered, env.Node, p, f.PacketID, f.ID, int32(q.len()))
	}

	// Build the request matrix: inputs 0..3 are the link FIFOs, input 4 is
	// the PE injection port. One mask word per input; candidate entries are
	// only written under freshly set bits, so no clearing pass is needed.
	// Sendability is one bitmask for the whole round — nothing launches
	// before allocation, so it equals a CanSend call per probe.
	for i := range b.req {
		b.req[i] = 0
	}
	b.sendable = uint64(env.SendableMask())

	for p := flit.North; p <= flit.West; p++ {
		for _, q := range b.fifos[p] {
			if h := q.head(); h != nil && h.ready <= cycle {
				b.requestPorts(int(p), q, h.f)
			}
		}
	}
	if f := env.InjectionHead(); f != nil {
		b.requestPorts(int(flit.Local), nil, f)
	}

	// Switch allocation and traversal.
	var grants []int
	if b.reference {
		grants = b.alloc.AllocateMask(b.req[:])
	} else {
		grants = b.fast.Allocate(b.req[:])
	}
	for i, o := range grants {
		if o == -1 {
			continue
		}
		c := b.cand[i][o]
		outPort := flit.Port(o)
		if c.q != nil {
			e := c.q.pop()
			env.Meter().BufferRead()
			env.ReturnCredit(flit.Port(i))
			b.send(outPort, e.f, cycle)
		} else {
			env.ConsumeInjection(cycle)
			b.send(outPort, c.f, cycle)
		}
	}
	return b.Occupancy() == 0
}

// pickQueue selects the FIFO an arrival on port p is written to:
// round-robin between the two FIFOs of a split input (falling back to the
// other when the preferred one is full), the only FIFO otherwise; nil when
// everything is full.
func (b *Buffered) pickQueue(p flit.Port) *entryQueue {
	qs := b.fifos[p]
	for i := 0; i < len(qs); i++ {
		q := qs[(b.nextFIFO[p]+i)%len(qs)]
		if q.len() < fifoDepth {
			b.nextFIFO[p] = (b.nextFIFO[p] + i + 1) % len(qs)
			return q
		}
	}
	return nil
}

// requestPorts registers input i's candidate flit f (from queue q; q == nil
// for the injection port) against every sendable desired output.
func (b *Buffered) requestPorts(i int, q *entryQueue, f *flit.Flit) {
	ports := b.desiredPorts(f)
	for k := 0; k < ports.Len(); k++ {
		p := ports.At(k)
		bit := uint64(1) << uint(p)
		if b.sendable&bit == 0 {
			continue
		}
		o := int(p)
		if b.req[i]&bit == 0 || (b.cand[i][o].f != nil && f.Older(b.cand[i][o].f)) {
			b.req[i] |= bit
			b.cand[i][o] = candidate{q: q, f: f}
		}
	}
}

// desiredPorts returns the output ports the flit may request here: Local
// when arrived, otherwise the algorithm's productive set (all of it for the
// adaptive WF, the single DOR port otherwise).
func (b *Buffered) desiredPorts(f *flit.Flit) routing.PortList {
	if int(f.Dst) == b.env.Node {
		return routing.Ports(flit.Local)
	}
	return b.table.ProductiveAt(b.env.Node, int(f.Dst))
}

func (b *Buffered) send(p flit.Port, f *flit.Flit, cycle uint64) {
	env := b.env
	env.Meter().CrossbarTraversal()
	env.Stats().RoutedEvent(cycle)
	if p != flit.Local {
		f.Route = b.table.RequestAt(env.Neighbor(p), int(f.Dst))
	}
	env.Send(p, f)
}

// Occupancy returns the number of buffered flits (test/diagnostic hook).
func (b *Buffered) Occupancy() int {
	total := 0
	for p := range b.fifos {
		for _, q := range b.fifos[p] {
			total += q.len()
		}
	}
	return total
}
