package coherence

import (
	"fmt"
	"math/rand"
	"sort"

	"dxbar/internal/flit"
	"dxbar/internal/topology"
	"dxbar/internal/traffic"
)

// System is a closed-loop multiprocessor workload: it implements
// sim.Source (emitting protocol request packets), sim.Sink (consuming
// deliveries) and a PreCycle hook (advancing processors, directories and
// the latency event queue). Wire all three into sim.Config.
type System struct {
	mesh *topology.Mesh
	prof Profile

	tiles    []*tile
	dirNodes []int
	dirs     map[int]*directory

	msgs   map[uint64]*message
	outbox [][]*traffic.PacketSpec
	events map[uint64][]func(cycle uint64)

	nextPkt   uint64
	cycle     uint64
	finished  int
	doneCycle uint64

	// MsgCounts tallies sent messages by type (diagnostics and tests).
	MsgCounts map[MsgType]uint64
}

// tile is one processor + private cache hierarchy. The 2-issue in-order
// core overlaps misses through its MSHRs (Table I): it keeps issuing until
// MissConcurrency misses are outstanding, then stalls.
type tile struct {
	node           int
	opsLeft        int
	nextReadyCycle uint64

	// outstanding maps block address -> in-flight miss (MSHR entries).
	outstanding map[uint64]*miss
	finished    bool

	// Recently dirtied blocks eligible for writeback eviction
	// (probabilistic mode only).
	dirty []uint64

	// l1 and l2 are the real caches of detailed mode (nil otherwise).
	l1, l2 *Cache

	rng *rand.Rand
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

// directory is one directory+memory controller.
type directory struct {
	node    int
	entries map[uint64]*dirEntry
}

func (d *directory) entry(addr uint64) *dirEntry {
	e, ok := d.entries[addr]
	if !ok {
		e = &dirEntry{state: dirInvalid}
		d.entries[addr] = e
	}
	return e
}

// NewSystem builds the workload over the given mesh. Every node hosts a
// processor tile; NumDirectories nodes (evenly spread) additionally host a
// directory+memory controller.
func NewSystem(mesh *topology.Mesh, prof Profile, seed int64) (*System, error) {
	n := mesh.Nodes()
	if n < NumDirectories {
		return nil, fmt.Errorf("coherence: mesh of %d nodes cannot host %d directories", n, NumDirectories)
	}
	s := &System{
		mesh:      mesh,
		prof:      prof,
		dirs:      make(map[int]*directory, NumDirectories),
		msgs:      make(map[uint64]*message),
		outbox:    make([][]*traffic.PacketSpec, n),
		events:    make(map[uint64][]func(uint64)),
		nextPkt:   1,
		MsgCounts: make(map[MsgType]uint64),
	}
	for i := 0; i < NumDirectories; i++ {
		node := i * n / NumDirectories
		s.dirNodes = append(s.dirNodes, node)
		s.dirs[node] = &directory{node: node, entries: make(map[uint64]*dirEntry)}
	}
	s.tiles = make([]*tile, n)
	for i := 0; i < n; i++ {
		t := &tile{
			node:           i,
			opsLeft:        prof.OpsPerProc,
			nextReadyCycle: uint64(i % 8), // stagger startup slightly
			outstanding:    make(map[uint64]*miss, MissConcurrency),
			rng:            rand.New(rand.NewSource(seed + int64(i)*7919)),
		}
		if prof.DetailedCaches {
			t.l1 = MustCache(L1Blocks, L1Ways)
			t.l2 = MustCache(L2Blocks, L2Ways)
		}
		s.tiles[i] = t
	}
	return s, nil
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
	if from == to {
		// Local delivery (e.g. a tile is its own home): dispatch directly
		// next cycle without touching the network.
		m := &message{typ: typ, addr: addr, from: from, to: to, requester: requester, acks: acks}
		s.MsgCounts[typ]++
		s.schedule(cycle+1, func(c uint64) { s.dispatch(m, c) })
		return
	}
	id := s.nextPkt
	s.nextPkt++
	m := &message{typ: typ, addr: addr, from: from, to: to, requester: requester, acks: acks}
	s.msgs[id] = m
	s.MsgCounts[typ]++
	kind := flit.Request
	switch typ {
	case Data, Put:
		kind = flit.Data
	case InvAck, PutAck, Unblock:
		kind = flit.Response
	}
	s.outbox[from] = append(s.outbox[from], &traffic.PacketSpec{
		ID:       id,
		Src:      from,
		Dst:      to,
		NumFlits: uint16(typ.Flits()),
		Kind:     kind,
		Cycle:    cycle,
	})
}

// schedule registers fn to run at the given cycle (>= next PreCycle).
func (s *System) schedule(at uint64, fn func(cycle uint64)) {
	if at <= s.cycle {
		at = s.cycle + 1
	}
	s.events[at] = append(s.events[at], fn)
}

// PreCycle advances the workload by one cycle: runs due events, then lets
// every ready processor issue its next memory operation.
func (s *System) PreCycle(cycle uint64) {
	s.cycle = cycle
	if evs, ok := s.events[cycle]; ok {
		delete(s.events, cycle)
		for _, fn := range evs {
			fn(cycle)
		}
	}
	for _, t := range s.tiles {
		s.tickTile(t, cycle)
	}
}

// tickTile issues at most one memory operation for the tile. Misses
// overlap through the MSHRs; the core stalls only when MissConcurrency
// misses are outstanding.
func (s *System) tickTile(t *tile, cycle uint64) {
	if t.opsLeft <= 0 || cycle < t.nextReadyCycle || len(t.outstanding) >= MissConcurrency {
		return
	}
	t.opsLeft--
	s.issueOp(t, cycle)
	if t.opsLeft == 0 && len(t.outstanding) == 0 {
		s.tileFinished(t)
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
		if _, pending := t.outstanding[addr]; pending {
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
		if _, dup := t.outstanding[addr]; dup {
			// MSHR coalescing: the block is already on its way.
			return
		}
	}
	m := &miss{addr: addr, home: s.home(addr), isWrite: isWrite}
	t.outstanding[addr] = m
	typ := GetS
	if isWrite {
		typ = GetM
	}
	s.send(typ, addr, t.node, m.home, t.node, 0, cycle)

	// Capacity eviction (probabilistic mode): a dirty block leaves
	// alongside the miss. The victim is the oldest dirty block with no
	// outstanding miss (a block being refetched cannot be written back).
	// Detailed mode generates writebacks from real L2 evictions instead
	// (see maybeCompleteMiss).
	if !s.prof.DetailedCaches && len(t.dirty) > 0 && t.rng.Float64() < s.prof.Writeback {
		for i, victim := range t.dirty {
			if _, pending := t.outstanding[victim]; pending {
				continue
			}
			t.dirty = append(t.dirty[:i], t.dirty[i+1:]...)
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
// slice aliases the outbox's backing array, which the node's next send reuses
// — the same contract as sim.SourceAdapter: the engine consumes it within the
// Generate call's cycle, before anything can send again.
func (s *System) Generate(node int, cycle uint64) []*traffic.PacketSpec {
	out := s.outbox[node]
	if len(out) == 0 {
		return nil
	}
	s.outbox[node] = out[:0]
	return out
}

// Deliver implements sim.Sink: a reassembled packet is a protocol message.
func (s *System) Deliver(p flit.Packet, cycle uint64) {
	m, ok := s.msgs[p.PacketID]
	if !ok {
		panic(fmt.Sprintf("coherence: delivery for unknown packet %d", p.PacketID))
	}
	delete(s.msgs, p.PacketID)
	s.dispatch(m, cycle)
}

// dispatch routes a protocol message to its destination agent.
func (s *System) dispatch(m *message, cycle uint64) {
	switch m.typ {
	case GetS, GetM:
		s.dirRequest(m, cycle)
	case Put:
		s.dirPut(m, cycle)
	case Unblock:
		s.dirUnblock(m, cycle)
	case FwdGetS, FwdGetM:
		// The owner tile forwards the block straight to the requester.
		s.send(Data, m.addr, m.to, m.requester, m.requester, 0, cycle)
	case Inv:
		// The sharer invalidates and acks the requester directly. In
		// detailed mode the real caches drop the block.
		if s.prof.DetailedCaches {
			t := s.tiles[m.to]
			t.l1.Invalidate(m.addr)
			t.l2.Invalidate(m.addr)
		}
		s.send(InvAck, m.addr, m.to, m.requester, m.requester, 0, cycle)
	case Data, UpgAck:
		t := s.tiles[m.to]
		if ms, ok := t.outstanding[m.addr]; ok {
			ms.dataArrived = true
			ms.expectedAcks = m.acks
			s.maybeCompleteMiss(t, ms, cycle)
		}
	case InvAck:
		t := s.tiles[m.to]
		if ms, ok := t.outstanding[m.addr]; ok {
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
	delete(t.outstanding, ms.addr)
	s.send(Unblock, ms.addr, t.node, ms.home, t.node, 0, cycle)
	if s.prof.DetailedCaches {
		// Fill the real hierarchy; a dirty L2 victim generates a genuine
		// writeback, and inclusion evicts it from L1 too.
		if ev := t.l2.Fill(ms.addr, ms.isWrite); ev.Valid {
			t.l1.Invalidate(ev.Addr)
			if ev.Dirty {
				s.send(Put, ev.Addr, t.node, s.home(ev.Addr), t.node, 0, cycle)
			}
		}
		if ev := t.l1.Fill(ms.addr, ms.isWrite); ev.Valid && ev.Dirty {
			t.l2.MarkDirty(ev.Addr)
		}
	} else if ms.isWrite {
		t.dirty = append(t.dirty, ms.addr)
		if len(t.dirty) > MSHREntries {
			t.dirty = t.dirty[1:]
		}
	}
	if t.opsLeft == 0 && len(t.outstanding) == 0 {
		s.tileFinished(t)
	}
}

// dirRequest handles GetS/GetM at the home, honouring the busy bit and the
// directory access latency.
func (s *System) dirRequest(m *message, cycle uint64) {
	d := s.dirs[m.to]
	if d == nil {
		panic(fmt.Sprintf("coherence: node %d is not a directory", m.to))
	}
	e := d.entry(m.addr)
	if e.busy {
		e.waiting = append(e.waiting, m)
		return
	}
	e.busy = true
	s.schedule(cycle+DirectoryLatency, func(c uint64) { s.dirProcess(d, e, m, c) })
}

// dirProcess performs the state transition after the directory access.
func (s *System) dirProcess(d *directory, e *dirEntry, m *message, cycle uint64) {
	req := m.requester
	switch {
	case m.typ == GetS && e.state == dirInvalid:
		// Fetch from memory, reply, requester becomes a sharer.
		s.schedule(cycle+MemoryLatency, func(c uint64) {
			s.send(Data, m.addr, d.node, req, req, 0, c)
		})
		e.state = dirShared
		e.addSharer(req)
	case m.typ == GetS && e.state == dirShared:
		s.schedule(cycle+MemoryLatency, func(c uint64) {
			s.send(Data, m.addr, d.node, req, req, 0, c)
		})
		e.addSharer(req)
	case m.typ == GetS && e.state == dirModified:
		// MOESI-style: the dirty owner forwards data and stays owner; the
		// requester joins the sharer set.
		s.send(FwdGetS, m.addr, d.node, e.owner, req, 0, cycle)
		e.addSharer(req)
	case m.typ == GetM && e.state == dirInvalid:
		s.schedule(cycle+MemoryLatency, func(c uint64) {
			s.send(Data, m.addr, d.node, req, req, 0, c)
		})
		e.state = dirModified
		e.owner = req
		e.clearSharers()
	case m.typ == GetM && e.state == dirShared:
		// Invalidations go out in sorted sharer order: map iteration order
		// would otherwise leak nondeterminism into packet timing.
		requesterShares := e.sharers[req]
		sharers := make([]int, 0, len(e.sharers))
		for sh := range e.sharers {
			if sh != req {
				sharers = append(sharers, sh)
			}
		}
		sort.Ints(sharers)
		acks := len(sharers)
		for _, sh := range sharers {
			s.send(Inv, m.addr, d.node, sh, req, 0, cycle)
		}
		if requesterShares {
			// Write upgrade: the requester already holds the data, so the
			// grant is a single-flit UpgAck and skips the memory fetch.
			s.send(UpgAck, m.addr, d.node, req, req, acks, cycle)
		} else {
			s.schedule(cycle+MemoryLatency, func(c uint64) {
				s.send(Data, m.addr, d.node, req, req, acks, c)
			})
		}
		e.state = dirModified
		e.owner = req
		e.clearSharers()
	case m.typ == GetM && e.state == dirModified:
		if e.owner == req {
			// Upgrade after a lost writeback race: serve from memory.
			s.schedule(cycle+MemoryLatency, func(c uint64) {
				s.send(Data, m.addr, d.node, req, req, 0, c)
			})
		} else {
			s.send(FwdGetM, m.addr, d.node, e.owner, req, 0, cycle)
		}
		e.owner = req
		e.clearSharers()
	default:
		panic(fmt.Sprintf("coherence: impossible request %v in state %v", m.typ, e.state))
	}
}

// dirUnblock completes a transaction and wakes one queued request.
func (s *System) dirUnblock(m *message, cycle uint64) {
	d := s.dirs[m.to]
	e := d.entry(m.addr)
	e.busy = false
	if len(e.waiting) > 0 {
		next := e.waiting[0]
		e.waiting = e.waiting[1:]
		e.busy = true
		s.schedule(cycle+DirectoryLatency, func(c uint64) { s.dirProcess(d, e, next, c) })
	}
}

// dirPut handles a writeback at the home.
func (s *System) dirPut(m *message, cycle uint64) {
	d := s.dirs[m.to]
	e := d.entry(m.addr)
	s.schedule(cycle+DirectoryLatency, func(c uint64) {
		if e.state == dirModified && e.owner == m.from && !e.busy {
			e.state = dirInvalid
			e.clearSharers()
		}
		s.send(PutAck, m.addr, d.node, m.from, m.from, 0, c)
	})
}

// Done reports whether every tile has completed its operation budget (the
// execution-time end point; fire-and-forget writebacks may still drain).
func (s *System) Done() bool { return s.finished == len(s.tiles) }

// Quiesced reports whether the workload is done *and* every in-flight
// protocol message and scheduled event has drained.
func (s *System) Quiesced() bool {
	if !s.Done() || len(s.msgs) != 0 || len(s.events) != 0 {
		return false
	}
	for _, ob := range s.outbox {
		if len(ob) != 0 {
			return false
		}
	}
	return true
}

// FinishCycle returns the cycle at which the last tile finished (0 until
// Done).
func (s *System) FinishCycle() uint64 { return s.doneCycle }

// OutstandingMessages returns in-flight protocol messages (drain checks).
func (s *System) OutstandingMessages() int { return len(s.msgs) }

// Profile returns the workload's benchmark profile.
func (s *System) Profile() Profile { return s.prof }
