package coherence

import (
	"fmt"
	"math/bits"
	"math/rand"

	"dxbar/internal/flit"
	"dxbar/internal/topology"
	"dxbar/internal/traffic"
)

// System is a closed-loop multiprocessor workload: it implements
// sim.Source (emitting protocol request packets), sim.Sink (consuming
// deliveries) and a PreCycle hook (advancing processors, directories and
// the latency event calendar). Wire all three into sim.Config.
type System struct {
	prof Profile

	tiles    []tile
	dirNodes []int
	// dirs[node] maps block address to directory entry at a directory node
	// (nil elsewhere); slab and slabBits are the rest of the chunk that
	// entries and their sharer sets are carved from.
	dirs     []map[uint64]*dirEntry
	slab     []dirEntry
	slabBits []uint64
	// nodes backs every fifo — the event calendar's slots, the directory
	// entries' wait queues — and free heads its recycled nodes (links are
	// 1-based indices, 0 = none).
	nodes []event
	free  int32

	// flights holds the messages travelling the network, at slot packet ID
	// mod len (a power of two, doubled when two live IDs collide; id 0 = free).
	flights  []flight
	nFlights int

	// outbox[n] queues node n's packets until Generate drains them into specs;
	// pending is the set of nodes with any.
	outbox  [][]traffic.PacketSpec
	specs   []*traffic.PacketSpec
	pending nodeSet

	// The event calendar: events[c%eventRing] holds the events due at cycle
	// c in scheduling order, nEvents their total.
	events  [eventRing]fifo
	nEvents int

	// The ready calendar: ready[(c%readyLen)*len(due):] is the set of tiles
	// whose next operation may issue at cycle c; PreCycle moves it into due,
	// where a tile stays while its MSHRs are full.
	ready    []uint64
	readyLen uint64
	due      nodeSet

	nextPkt   uint64
	cycle     uint64
	finished  int
	doneCycle uint64

	// MsgCounts tallies sent messages by type (diagnostics and tests): the
	// per-message tally is counts, which Quiesced copies here when it holds.
	MsgCounts map[MsgType]uint64
	counts    [UpgAck + 1]uint64
}

// tile is one processor + private cache hierarchy. The 2-issue in-order
// core overlaps misses through its MSHRs (Table I): it keeps issuing until
// MissConcurrency misses are outstanding, then stalls.
type tile struct {
	node           int
	opsLeft        int
	nextReadyCycle uint64

	// mshr[:nMiss] are the in-flight misses (MSHR entries), one per block
	// address, in no particular order.
	mshr     [MissConcurrency]miss
	nMiss    int
	finished bool

	// dirty[:nDirty] are the recently dirtied blocks eligible for writeback
	// eviction, oldest first (probabilistic mode only).
	dirty  [MSHREntries]uint64
	nDirty int

	// l1 and l2 are the real caches of detailed mode (nil otherwise).
	l1, l2 *Cache

	// rng draws from src, the tile's own stream, held in place.
	rng *rand.Rand
	src traffic.Source
}

// outstanding returns the tile's in-flight miss on addr, or nil.
func (t *tile) outstanding(addr uint64) *miss {
	for i := range t.mshr[:t.nMiss] {
		if t.mshr[i].addr == addr {
			return &t.mshr[i]
		}
	}
	return nil
}

// miss is one outstanding MSHR entry.
type miss struct {
	addr         uint64
	home         int
	isWrite      bool
	dataArrived  bool
	expectedAcks int
	receivedAcks int
}

// MissConcurrency is the number of overlapped misses a tile sustains
// before stalling (hit-under-miss / miss-under-miss through the MSHRs).
const MissConcurrency = 16

// flight is one slot of the in-flight message table.
type flight struct {
	id uint64
	m  message
}

func (s *System) flight(id uint64) *flight { return &s.flights[id&uint64(len(s.flights)-1)] }

// event is what a closure in a func-valued queue would capture, as data. A
// request queued at a busy directory entry is the evProcess it will become.
type event struct {
	kind eventKind
	m    message
	e    *dirEntry
	next int32
}

// fifo is a queue of events linked through System.nodes (zero = empty).
type fifo struct{ head, tail int32 }

// push appends ev to q on a recycled node.
func (s *System) push(q *fifo, ev event) {
	i := s.free
	if i != 0 {
		s.free = s.nodes[i-1].next
	} else {
		s.nodes = append(s.nodes, event{})
		i = int32(len(s.nodes))
	}
	ev.next = 0
	s.nodes[i-1] = ev
	if q.tail != 0 {
		s.nodes[q.tail-1].next = i
	} else {
		q.head = i
	}
	q.tail = i
}

// pop removes the head of q, which must not be empty.
func (s *System) pop(q *fifo) event {
	i := q.head
	ev := s.nodes[i-1]
	if q.head = ev.next; q.head == 0 {
		q.tail = 0
	}
	s.nodes[i-1].next, s.free = s.free, i
	return ev
}

type eventKind uint8

const (
	evDispatch eventKind = iota // m arrives at its own node (a tile that is its own home)
	evProcess                   // the directory access of request m on entry e ends
	evSend                      // a memory fetch ends: m leaves the home
	evPut                       // the directory access of writeback m on entry e ends
)

// eventRing is the event calendar's length, above the longest delay (events
// are scheduled 1, DirectoryLatency or MemoryLatency ahead); entryChunk is
// the number of directory entries allocated at a time.
const (
	eventRing  = MemoryLatency + 1
	entryChunk = 512
)

// NewSystem builds the workload over the given mesh. Every node hosts a
// processor tile; NumDirectories nodes (evenly spread) additionally host a
// directory+memory controller.
func NewSystem(mesh *topology.Mesh, prof Profile, seed int64) (*System, error) {
	n := mesh.Nodes()
	if n < NumDirectories {
		return nil, fmt.Errorf("coherence: mesh of %d nodes cannot host %d directories", n, NumDirectories)
	}
	words := (n + 63) / 64
	// A tile is re-armed at most 2·ComputeGap + L2AccessLatency cycles ahead
	// (issueOp), and start-up staggers the tiles over eight cycles.
	readyLen := uint64(8)
	for readyLen <= uint64(2*prof.ComputeGap+L2AccessLatency) {
		readyLen *= 2
	}
	s := &System{
		prof:      prof,
		tiles:     make([]tile, n),
		dirs:      make([]map[uint64]*dirEntry, n),
		flights:   make([]flight, 64),
		outbox:    make([][]traffic.PacketSpec, n),
		pending:   make(nodeSet, words),
		ready:     make([]uint64, int(readyLen)*words),
		readyLen:  readyLen,
		due:       make(nodeSet, words),
		nextPkt:   1,
		MsgCounts: make(map[MsgType]uint64),
	}
	for i := 0; i < NumDirectories; i++ {
		node := i * n / NumDirectories
		s.dirNodes = append(s.dirNodes, node)
		s.dirs[node] = make(map[uint64]*dirEntry)
	}
	for i := range s.tiles {
		t := &s.tiles[i]
		t.node = i
		t.opsLeft = prof.OpsPerProc
		t.nextReadyCycle = uint64(i % 8) // stagger startup slightly
		t.src.Seed(seed + int64(i)*7919)
		t.rng = rand.New(&t.src)
		if prof.DetailedCaches {
			t.l1 = MustCache(L1Blocks, L1Ways)
			t.l2 = MustCache(L2Blocks, L2Ways)
		}
		if t.opsLeft > 0 {
			s.arm(t)
		}
	}
	return s, nil
}

// arm enters t into the ready calendar at its nextReadyCycle.
func (s *System) arm(t *tile) {
	nodeSet(s.ready[int(t.nextReadyCycle%s.readyLen)*len(s.due):]).add(t.node)
}

// entry returns the directory entry of addr at a directory node, creating it
// on first touch.
func (s *System) entry(node int32, addr uint64) *dirEntry {
	d := s.dirs[node]
	if d == nil {
		panic(fmt.Sprintf("coherence: node %d is not a directory", node))
	}
	e, ok := d[addr]
	if !ok {
		if len(s.slab) == 0 {
			s.slab = make([]dirEntry, entryChunk)
			s.slabBits = make([]uint64, entryChunk*len(s.due))
		}
		e = &s.slab[0]
		e.sharers = s.slabBits[:len(s.due):len(s.due)]
		s.slab, s.slabBits = s.slab[1:], s.slabBits[len(s.due):]
		d[addr] = e
	}
	return e
}

// home returns the directory node owning addr.
func (s *System) home(addr uint64) int {
	return s.dirNodes[addr%NumDirectories]
}

// sharedAddr and privateAddr partition the block address space: shared
// blocks live below 1<<32; each tile's private pool above it.
func (s *System) sharedAddr(t *tile) uint64 {
	return uint64(t.rng.Intn(s.poolScale() * s.prof.SharedBlocks))
}

func (s *System) privateAddr(t *tile) uint64 {
	return (1 << 32) + uint64(t.node)<<20 + uint64(t.rng.Intn(s.poolScale()*s.prof.PrivateBlocksPerTile))
}

// poolScale widens the address pools in detailed mode so working sets
// exceed the real cache capacities.
func (s *System) poolScale() int {
	if s.prof.DetailedCaches {
		return DetailedWorkingSetScale
	}
	return 1
}

// send queues a protocol message for injection at its source node.
func (s *System) send(typ MsgType, addr uint64, from, to, requester, acks int, cycle uint64) {
	m := message{typ: typ, addr: addr, from: int32(from), to: int32(to), requester: int32(requester), acks: int32(acks)}
	s.counts[typ]++
	if from == to {
		// Local delivery (e.g. a tile is its own home): dispatch directly
		// next cycle without touching the network.
		s.schedule(cycle+1, event{kind: evDispatch, m: m})
		return
	}
	id := s.nextPkt
	s.nextPkt++
	for s.flight(id).id != 0 {
		// Doubling keeps IDs that differed modulo the old length apart.
		old := s.flights
		s.flights = make([]flight, 2*len(old))
		for _, f := range old {
			if f.id != 0 {
				*s.flight(f.id) = f
			}
		}
	}
	*s.flight(id) = flight{id: id, m: m}
	s.nFlights++
	kind := flit.Request
	switch typ {
	case Data, Put:
		kind = flit.Data
	case InvAck, PutAck, Unblock:
		kind = flit.Response
	}
	s.outbox[from] = append(s.outbox[from], traffic.PacketSpec{
		ID:       id,
		Src:      from,
		Dst:      to,
		NumFlits: uint16(typ.Flits()),
		Kind:     kind,
		Cycle:    cycle,
	})
	s.pending.add(from)
}

// schedule enters ev into the event calendar at the given cycle (>= next
// PreCycle, and less than eventRing cycles ahead).
func (s *System) schedule(at uint64, ev event) {
	if at <= s.cycle {
		at = s.cycle + 1
	}
	s.push(&s.events[at%eventRing], ev)
	s.nEvents++
}

// PreCycle advances the workload by one cycle: runs due events, then lets
// every ready processor issue one memory operation, in ascending tile order
// (misses overlap through the MSHRs; a core stalls only when all are in use).
// The engine calls it once per cycle, from cycle 0 on.
func (s *System) PreCycle(cycle uint64) {
	s.cycle = cycle
	// Nothing below schedules into the slot being run: delays are at least
	// one cycle and shorter than the ring.
	for q := &s.events[cycle%eventRing]; q.head != 0; s.nEvents-- {
		switch ev := s.pop(q); ev.kind {
		case evDispatch:
			s.dispatch(ev.m, cycle)
		case evProcess:
			s.dirProcess(ev.e, ev.m, cycle)
		case evSend:
			s.send(ev.m.typ, ev.m.addr, int(ev.m.from), int(ev.m.to), int(ev.m.requester), int(ev.m.acks), cycle)
		case evPut:
			s.dirPutDone(ev.e, ev.m, cycle)
		}
	}
	ready := s.ready[int(cycle%s.readyLen)*len(s.due):][:len(s.due)]
	for w := range s.due {
		s.due[w] |= ready[w]
		ready[w] = 0
		for x := s.due[w]; x != 0; x &= x - 1 {
			t := &s.tiles[w<<6+bits.TrailingZeros64(x)]
			if t.nMiss >= MissConcurrency {
				continue // stalled on its MSHRs: stays due
			}
			s.due[w] &^= x & -x
			t.opsLeft--
			s.issueOp(t, cycle)
			if t.opsLeft > 0 {
				s.arm(t)
			} else if t.nMiss == 0 {
				s.tileFinished(t)
			}
		}
	}
}

// issueOp performs the tile's next memory operation: a cache hit only
// advances nextReadyCycle; an L2 miss opens a directory transaction.
func (s *System) issueOp(t *tile, cycle uint64) {
	gap := uint64(1)
	if s.prof.ComputeGap > 0 {
		gap = uint64(t.rng.Intn(2*s.prof.ComputeGap) + 1) // mean ≈ ComputeGap
	}
	// Hit/miss determination: emergent from real caches in detailed mode,
	// drawn from the profile rates otherwise. Both paths agree on the
	// access latencies charged into nextReadyCycle.
	var addr uint64
	isWrite := t.rng.Float64() < s.prof.Write
	if s.prof.DetailedCaches {
		if t.rng.Float64() < s.prof.Share {
			addr = s.sharedAddr(t)
		} else {
			addr = s.privateAddr(t)
		}
		if t.outstanding(addr) != nil {
			// MSHR coalescing: the block is already on its way.
			t.nextReadyCycle = cycle + gap
			return
		}
		if t.l1.Access(addr, isWrite) {
			t.nextReadyCycle = cycle + gap
			return
		}
		if t.l2.Access(addr, isWrite) {
			// Inclusive fill into L1; a dirty L1 victim writes back into
			// the on-chip L2 silently.
			if ev := t.l1.Fill(addr, isWrite); ev.Valid && ev.Dirty {
				t.l2.MarkDirty(ev.Addr)
			}
			t.nextReadyCycle = cycle + gap + L2AccessLatency
			return
		}
		t.nextReadyCycle = cycle + gap
	} else {
		if t.rng.Float64() < s.prof.L1Hit {
			t.nextReadyCycle = cycle + gap
			return
		}
		if t.rng.Float64() < s.prof.L2Hit {
			t.nextReadyCycle = cycle + gap + L2AccessLatency
			return
		}
		// L2 miss: a directory transaction over the network.
		if t.rng.Float64() < s.prof.Share {
			addr = s.sharedAddr(t)
		} else {
			addr = s.privateAddr(t)
		}
		t.nextReadyCycle = cycle + gap
		if t.outstanding(addr) != nil {
			// MSHR coalescing: the block is already on its way.
			return
		}
	}
	home := s.home(addr)
	t.mshr[t.nMiss] = miss{addr: addr, home: home, isWrite: isWrite}
	t.nMiss++
	typ := GetS
	if isWrite {
		typ = GetM
	}
	s.send(typ, addr, t.node, home, t.node, 0, cycle)

	// Capacity eviction (probabilistic mode): a dirty block leaves
	// alongside the miss. The victim is the oldest dirty block with no
	// outstanding miss (a block being refetched cannot be written back).
	// Detailed mode generates writebacks from real L2 evictions instead
	// (see maybeCompleteMiss).
	if !s.prof.DetailedCaches && t.nDirty > 0 && t.rng.Float64() < s.prof.Writeback {
		for i, victim := range t.dirty[:t.nDirty] {
			if t.outstanding(victim) != nil {
				continue
			}
			copy(t.dirty[i:], t.dirty[i+1:t.nDirty])
			t.nDirty--
			s.send(Put, victim, t.node, s.home(victim), t.node, 0, cycle)
			break
		}
	}
}

func (s *System) tileFinished(t *tile) {
	if t.finished {
		return
	}
	t.finished = true
	s.finished++
	if s.finished == len(s.tiles) && s.doneCycle == 0 {
		s.doneCycle = s.cycle
	}
}

// Generate implements sim.Source: drains the node's outbox. The returned
// slice and the specs it points at are scratch that the next Generate call
// and the node's next send reuse — the same contract as sim.SourceAdapter:
// the engine consumes them within the Generate call.
func (s *System) Generate(node int, cycle uint64) []*traffic.PacketSpec {
	out := s.outbox[node]
	if len(out) == 0 {
		return nil
	}
	s.outbox[node] = out[:0]
	s.pending.remove(node)
	s.specs = s.specs[:0]
	for i := range out {
		s.specs = append(s.specs, &out[i])
	}
	return s.specs
}

// NextPending implements sim.PendingSource: the lowest node at or above from
// whose outbox holds packets, or -1. Every other node's Generate returns nil.
func (s *System) NextPending(from int, cycle uint64) int { return s.pending.next(from) }

// Deliver implements sim.Sink: a reassembled packet is a protocol message.
func (s *System) Deliver(p flit.Packet, cycle uint64) {
	f := s.flight(p.PacketID)
	if f.id != p.PacketID || f.id == 0 {
		panic(fmt.Sprintf("coherence: delivery for unknown packet %d", p.PacketID))
	}
	f.id = 0
	s.nFlights--
	s.dispatch(f.m, cycle)
}

// dispatch routes a protocol message to its destination agent.
func (s *System) dispatch(m message, cycle uint64) {
	to, req := int(m.to), int(m.requester)
	switch m.typ {
	case GetS, GetM:
		s.dirRequest(m, cycle)
	case Put:
		s.schedule(cycle+DirectoryLatency, event{kind: evPut, m: m, e: s.entry(m.to, m.addr)})
	case Unblock:
		s.dirUnblock(m, cycle)
	case FwdGetS, FwdGetM:
		// The owner tile forwards the block straight to the requester.
		s.send(Data, m.addr, to, req, req, 0, cycle)
	case Inv:
		// The sharer invalidates and acks the requester directly. In
		// detailed mode the real caches drop the block.
		if s.prof.DetailedCaches {
			t := &s.tiles[to]
			t.l1.Invalidate(m.addr)
			t.l2.Invalidate(m.addr)
		}
		s.send(InvAck, m.addr, to, req, req, 0, cycle)
	case Data, UpgAck:
		t := &s.tiles[to]
		if ms := t.outstanding(m.addr); ms != nil {
			ms.dataArrived = true
			ms.expectedAcks = int(m.acks)
			s.maybeCompleteMiss(t, ms, cycle)
		}
	case InvAck:
		t := &s.tiles[to]
		if ms := t.outstanding(m.addr); ms != nil {
			ms.receivedAcks++
			s.maybeCompleteMiss(t, ms, cycle)
		}
	case PutAck:
		// Writebacks are fire-and-forget for the tile.
	default:
		panic(fmt.Sprintf("coherence: unhandled message %v", m.typ))
	}
}

// maybeCompleteMiss retires an MSHR entry once its data and all
// invalidation acks have arrived.
func (s *System) maybeCompleteMiss(t *tile, ms *miss, cycle uint64) {
	if !ms.dataArrived || ms.receivedAcks < ms.expectedAcks {
		return
	}
	addr, isWrite := ms.addr, ms.isWrite
	s.send(Unblock, addr, t.node, ms.home, t.node, 0, cycle)
	t.nMiss--
	*ms = t.mshr[t.nMiss]
	if s.prof.DetailedCaches {
		// Fill the real hierarchy; a dirty L2 victim generates a genuine
		// writeback, and inclusion evicts it from L1 too.
		if ev := t.l2.Fill(addr, isWrite); ev.Valid {
			t.l1.Invalidate(ev.Addr)
			if ev.Dirty {
				s.send(Put, ev.Addr, t.node, s.home(ev.Addr), t.node, 0, cycle)
			}
		}
		if ev := t.l1.Fill(addr, isWrite); ev.Valid && ev.Dirty {
			t.l2.MarkDirty(ev.Addr)
		}
	} else if isWrite {
		// The list keeps the MSHREntries youngest blocks: copy down, so the
		// fixed array never needs a new backing store.
		if t.nDirty == len(t.dirty) {
			copy(t.dirty[:], t.dirty[1:])
			t.nDirty--
		}
		t.dirty[t.nDirty] = addr
		t.nDirty++
	}
	if t.opsLeft == 0 && t.nMiss == 0 {
		s.tileFinished(t)
	}
}

// dirRequest handles GetS/GetM at the home, honouring the busy bit and the
// directory access latency.
func (s *System) dirRequest(m message, cycle uint64) {
	e := s.entry(m.to, m.addr)
	if ev := (event{kind: evProcess, m: m, e: e}); e.busy {
		s.push(&e.waiting, ev)
	} else {
		e.busy = true
		s.schedule(cycle+DirectoryLatency, ev)
	}
}

// dirProcess performs the state transition after the directory access.
func (s *System) dirProcess(e *dirEntry, m message, cycle uint64) {
	home, req := int(m.to), int(m.requester)
	// fetch replies with the block after the memory access.
	fetch := func(acks int) {
		s.schedule(cycle+MemoryLatency, event{kind: evSend,
			m: message{typ: Data, addr: m.addr, from: m.to, to: m.requester, requester: m.requester, acks: int32(acks)}})
	}
	switch {
	case m.typ == GetS && e.state == dirInvalid:
		// Fetch from memory, reply, requester becomes a sharer.
		fetch(0)
		e.state = dirShared
		e.sharers.add(req)
	case m.typ == GetS && e.state == dirShared:
		fetch(0)
		e.sharers.add(req)
	case m.typ == GetS && e.state == dirModified:
		// MOESI-style: the dirty owner forwards data and stays owner; the
		// requester joins the sharer set.
		s.send(FwdGetS, m.addr, home, int(e.owner), req, 0, cycle)
		e.sharers.add(req)
	case m.typ == GetM && e.state == dirInvalid:
		fetch(0)
		e.state = dirModified
		e.owner = m.requester
		clear(e.sharers)
	case m.typ == GetM && e.state == dirShared:
		// Invalidations go out in ascending sharer order, which fixes
		// packet IDs and timing.
		acks := 0
		for sh := e.sharers.next(0); sh >= 0; sh = e.sharers.next(sh + 1) {
			if sh != req {
				s.send(Inv, m.addr, home, sh, req, 0, cycle)
				acks++
			}
		}
		if e.sharers.has(req) {
			// Write upgrade: the requester already holds the data, so the
			// grant is a single-flit UpgAck and skips the memory fetch.
			s.send(UpgAck, m.addr, home, req, req, acks, cycle)
		} else {
			fetch(acks)
		}
		e.state = dirModified
		e.owner = m.requester
		clear(e.sharers)
	case m.typ == GetM && e.state == dirModified:
		if e.owner == m.requester {
			// Upgrade after a lost writeback race: serve from memory.
			fetch(0)
		} else {
			s.send(FwdGetM, m.addr, home, int(e.owner), req, 0, cycle)
		}
		e.owner = m.requester
		clear(e.sharers)
	default:
		panic(fmt.Sprintf("coherence: impossible request %v in state %v", m.typ, e.state))
	}
}

// dirUnblock completes a transaction and wakes one queued request.
func (s *System) dirUnblock(m message, cycle uint64) {
	e := s.entry(m.to, m.addr)
	e.busy = false
	if e.waiting.head != 0 {
		e.busy = true
		s.schedule(cycle+DirectoryLatency, s.pop(&e.waiting))
	}
}

// dirPutDone applies a writeback at the home after the directory access.
func (s *System) dirPutDone(e *dirEntry, m message, cycle uint64) {
	if e.state == dirModified && e.owner == m.from && !e.busy {
		e.state = dirInvalid
		clear(e.sharers)
	}
	s.send(PutAck, m.addr, int(m.to), int(m.from), int(m.from), 0, cycle)
}

// Done reports whether every tile has completed its operation budget (the
// execution-time end point; fire-and-forget writebacks may still drain).
func (s *System) Done() bool { return s.finished == len(s.tiles) }

// Quiesced reports whether the workload is done *and* every in-flight
// protocol message, queued packet and scheduled event has drained.
func (s *System) Quiesced() bool {
	if !s.Done() || s.nFlights != 0 || s.nEvents != 0 || s.pending.next(0) >= 0 {
		return false
	}
	for typ, n := range s.counts {
		if n != 0 {
			s.MsgCounts[MsgType(typ)] = n
		}
	}
	return true
}

// FinishCycle returns the cycle at which the last tile finished (0 until
// Done).
func (s *System) FinishCycle() uint64 { return s.doneCycle }

// OutstandingMessages returns in-flight protocol messages (drain checks).
func (s *System) OutstandingMessages() int { return s.nFlights }

// Profile returns the workload's benchmark profile.
func (s *System) Profile() Profile { return s.prof }
