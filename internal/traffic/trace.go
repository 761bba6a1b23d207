package traffic

// Trace record and replay: a trace holds every packet a Source generated, so
// an expensive closed-loop workload (the coherence substrate) can be re-run
// open-loop against every design, or archived and diffed. It is the *input*
// workload; internal/events records what the network *did* with it.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"dxbar/internal/flit"
)

// Record is one generated packet.
type Record struct {
	Cycle    uint64
	Src, Dst int32
	NumFlits uint16
	Kind     flit.Kind
}

// Trace is a recorded workload for a specific mesh size.
type Trace struct {
	Width, Height int
	Records       []Record
}

// The file is a header of five little-endian u32s (magic, version, width,
// height, record count) and then one 20-byte record per packet: cycle u64,
// src and dst i32, flits u16, kind u8 and a pad byte — the header's size.
const (
	traceMagic   = 0x44586274 // "DXbt"
	traceVersion = 1
	recordLen    = 20
)

// Write serializes the trace.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var b [recordLen]byte
	le := binary.LittleEndian
	for i, v := range [5]uint32{traceMagic, traceVersion, uint32(t.Width), uint32(t.Height), uint32(len(t.Records))} {
		le.PutUint32(b[4*i:], v)
	}
	bw.Write(b[:])
	for _, r := range t.Records {
		le.PutUint64(b[0:], r.Cycle)
		le.PutUint32(b[8:], uint32(r.Src))
		le.PutUint32(b[12:], uint32(r.Dst))
		le.PutUint16(b[16:], r.NumFlits)
		b[18], b[19] = uint8(r.Kind), 0
		bw.Write(b[:]) // a bufio.Writer's error sticks until Flush
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: write: %w", err)
	}
	return nil
}

// ReadTrace deserializes a trace written by Write. Every record must lie in
// the trace's mesh and carry 1 to 64 flits: a record outside it could never
// be delivered, so it fails here, named, instead of in the replay.
func ReadTrace(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var b [recordLen]byte
	le := binary.LittleEndian
	if _, err := io.ReadFull(br, b[:]); err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	if m := le.Uint32(b[0:]); m != traceMagic {
		return nil, fmt.Errorf("trace: bad magic %#x", m)
	}
	if v := le.Uint32(b[4:]); v != traceVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", v)
	}
	// Never trust the header's record count for allocation: a corrupt or
	// hostile file could claim billions of records. Grow incrementally and
	// fail on short reads instead.
	count := int(le.Uint32(b[16:]))
	t := &Trace{Width: int(le.Uint32(b[8:])), Height: int(le.Uint32(b[12:])), Records: make([]Record, 0, min(count, 1<<16))}
	nodes := int64(t.Width) * int64(t.Height)
	for i := 0; i < count; i++ {
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return nil, fmt.Errorf("trace: read record %d: %w", i, err)
		}
		rec := Record{Cycle: le.Uint64(b[0:]), Src: int32(le.Uint32(b[8:])), Dst: int32(le.Uint32(b[12:])),
			NumFlits: le.Uint16(b[16:]), Kind: flit.Kind(b[18])}
		if rec.Src < 0 || int64(rec.Src) >= nodes || rec.Dst < 0 || int64(rec.Dst) >= nodes || rec.NumFlits < 1 || rec.NumFlits > 64 {
			return nil, fmt.Errorf("trace: record %d (cycle %d, %d->%d, %d flits) outside a %dx%d mesh or 1-64 flits",
				i, rec.Cycle, rec.Src, rec.Dst, rec.NumFlits, t.Width, t.Height)
		}
		t.Records = append(t.Records, rec)
	}
	return t, nil
}

// Recorder wraps a Source and captures everything it generates. It
// implements sim.Source and sim.PendingSource.
type Recorder struct {
	Inner interface {
		Generate(node int, cycle uint64) []*PacketSpec
	}
	Trace Trace
}

// Generate implements sim.Source.
func (r *Recorder) Generate(node int, cycle uint64) []*PacketSpec {
	specs := r.Inner.Generate(node, cycle)
	for _, s := range specs {
		r.Trace.Records = append(r.Trace.Records,
			Record{Cycle: s.Cycle, Src: int32(s.Src), Dst: int32(s.Dst), NumFlits: s.NumFlits, Kind: s.Kind})
	}
	return specs
}

// NextPending implements sim.PendingSource by forwarding to an Inner that has
// the capability; without it every node is named pending, which is the
// engine's per-node polling.
func (r *Recorder) NextPending(from int, cycle uint64) int {
	if p, ok := r.Inner.(interface{ NextPending(int, uint64) int }); ok {
		return p.NextPending(from, cycle)
	}
	return from
}

// Player replays a trace open-loop. It implements sim.Source and
// sim.PendingSource. Records must be grouped by cycle in nondecreasing order
// per source node, which is how Recorder lays them down.
type Player struct {
	// srcs lists the source nodes with records, ascending; recs[k] are the
	// records of srcs[k] and pos[k] the next one to replay.
	srcs   []int
	recs   [][]Record
	pos    []int
	nextID uint64
	// specs and out are what Generate returns, reused by its next call.
	specs []PacketSpec
	out   []*PacketSpec
}

// NewPlayer indexes a trace for replay.
func NewPlayer(t *Trace) *Player {
	byNode := make(map[int][]Record)
	for _, r := range t.Records {
		byNode[int(r.Src)] = append(byNode[int(r.Src)], r)
	}
	p := &Player{pos: make([]int, len(byNode)), nextID: 1}
	for n := range byNode {
		p.srcs = append(p.srcs, n)
	}
	sort.Ints(p.srcs)
	for _, n := range p.srcs {
		p.recs = append(p.recs, byNode[n])
	}
	return p
}

// Generate implements sim.Source. The returned slice and the specs it points
// at are reused by the next call, as Bernoulli's spec is: the engine copies
// them in the same cycle, so a replay allocates nothing once the scratch has
// grown to the largest batch.
func (p *Player) Generate(node int, cycle uint64) []*PacketSpec {
	k := sort.SearchInts(p.srcs, node)
	if k == len(p.srcs) || p.srcs[k] != node {
		return nil
	}
	recs, i := p.recs[k], p.pos[k]
	p.specs, p.out = p.specs[:0], p.out[:0]
	for i < len(recs) && recs[i].Cycle <= cycle {
		r := recs[i]
		p.specs = append(p.specs, PacketSpec{ID: p.nextID, Src: int(r.Src), Dst: int(r.Dst), NumFlits: r.NumFlits, Kind: r.Kind, Cycle: cycle})
		p.nextID++
		i++
	}
	p.pos[k] = i
	for j := range p.specs {
		p.out = append(p.out, &p.specs[j])
	}
	return p.out
}

// NextPending implements sim.PendingSource: the lowest node at or above from
// whose next record is due by cycle, or -1.
func (p *Player) NextPending(from int, cycle uint64) int {
	for k := sort.SearchInts(p.srcs, from); k < len(p.srcs); k++ {
		if i := p.pos[k]; i < len(p.recs[k]) && p.recs[k][i].Cycle <= cycle {
			return p.srcs[k]
		}
	}
	return -1
}

// Remaining returns the number of unreplayed records.
func (p *Player) Remaining() int {
	total := 0
	for k, recs := range p.recs {
		total += len(recs) - p.pos[k]
	}
	return total
}
