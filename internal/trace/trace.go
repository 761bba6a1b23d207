// Package trace records and replays network workloads. A trace captures
// every packet a Source generates (cycle, endpoints, size, kind) in a
// compact binary format, so expensive closed-loop workloads (the coherence
// substrate) can be re-run open-loop against many router designs, and runs
// can be archived and diffed for regression hunting.
//
// Not to be confused with internal/events, the runtime flight recorder:
// this package captures the *input* workload (what the sources inject),
// while internal/events records what the network *did* with it (per-flit
// arbitration outcomes, bufferings, deflections, drops).
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"dxbar/internal/flit"
	"dxbar/internal/traffic"
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

// magic identifies the trace file format; version gates decoding.
const (
	magic   = 0x44586274 // "DXbt"
	version = 1
)

// Write serializes the trace.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	hdr := []uint32{magic, version, uint32(t.Width), uint32(t.Height), uint32(len(t.Records))}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("trace: write header: %w", err)
		}
	}
	for i := range t.Records {
		r := &t.Records[i]
		if err := binary.Write(bw, binary.LittleEndian, r.Cycle); err != nil {
			return fmt.Errorf("trace: write record: %w", err)
		}
		rest := []interface{}{r.Src, r.Dst, r.NumFlits, uint8(r.Kind), uint8(0)}
		for _, v := range rest {
			if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
				return fmt.Errorf("trace: write record: %w", err)
			}
		}
	}
	return bw.Flush()
}

// Read deserializes a trace written by Write.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var hdr [5]uint32
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("trace: read header: %w", err)
		}
	}
	if hdr[0] != magic {
		return nil, fmt.Errorf("trace: bad magic %#x", hdr[0])
	}
	if hdr[1] != version {
		return nil, fmt.Errorf("trace: unsupported version %d", hdr[1])
	}
	count := int(hdr[4])
	// Never trust the header's record count for allocation: a corrupt or
	// hostile file could claim billions of records. Grow incrementally and
	// fail on short reads instead.
	capHint := count
	if capHint > 1<<16 {
		capHint = 1 << 16
	}
	t := &Trace{Width: int(hdr[2]), Height: int(hdr[3]), Records: make([]Record, 0, capHint)}
	for i := 0; i < count; i++ {
		var rec Record
		if err := binary.Read(br, binary.LittleEndian, &rec.Cycle); err != nil {
			return nil, fmt.Errorf("trace: read record %d: %w", i, err)
		}
		var kind, pad uint8
		fields := []interface{}{&rec.Src, &rec.Dst, &rec.NumFlits, &kind, &pad}
		for _, v := range fields {
			if err := binary.Read(br, binary.LittleEndian, v); err != nil {
				return nil, fmt.Errorf("trace: read record %d: %w", i, err)
			}
		}
		rec.Kind = flit.Kind(kind)
		t.Records = append(t.Records, rec)
	}
	return t, nil
}

// Recorder wraps a Source and captures everything it generates. It
// implements sim.Source and sim.PendingSource.
type Recorder struct {
	Inner interface {
		Generate(node int, cycle uint64) []*traffic.PacketSpec
	}
	Trace Trace
}

// Generate implements sim.Source.
func (r *Recorder) Generate(node int, cycle uint64) []*traffic.PacketSpec {
	specs := r.Inner.Generate(node, cycle)
	for _, s := range specs {
		r.Trace.Records = append(r.Trace.Records, Record{
			Cycle:    s.Cycle,
			Src:      int32(s.Src),
			Dst:      int32(s.Dst),
			NumFlits: s.NumFlits,
			Kind:     s.Kind,
		})
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

// Generate implements sim.Source.
func (p *Player) Generate(node int, cycle uint64) []*traffic.PacketSpec {
	k := sort.SearchInts(p.srcs, node)
	if k == len(p.srcs) || p.srcs[k] != node {
		return nil
	}
	recs, i := p.recs[k], p.pos[k]
	var out []*traffic.PacketSpec
	for i < len(recs) && recs[i].Cycle <= cycle {
		r := recs[i]
		out = append(out, &traffic.PacketSpec{
			ID:       p.nextID,
			Src:      int(r.Src),
			Dst:      int(r.Dst),
			NumFlits: r.NumFlits,
			Kind:     r.Kind,
			Cycle:    cycle,
		})
		p.nextID++
		i++
	}
	p.pos[k] = i
	return out
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
