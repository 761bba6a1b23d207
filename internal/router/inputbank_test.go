package router

import (
	"bytes"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"dxbar/internal/bitarb"
	"dxbar/internal/buffer"
	"dxbar/internal/core"
	"dxbar/internal/flit"
	"dxbar/internal/routing"
	"dxbar/internal/sim"
	"dxbar/internal/snapshot"
	"dxbar/internal/topology"
)

const allOutputs = 1<<flit.NumPorts - 1

// noGrant marks an unmatched input in the tests' unpacked grant lists.
const noGrant = 0xff

// newInputBank returns an empty bank of nq FIFOs per link input, with rings
// of its own.
func newInputBank(nq uint8) inputBank {
	var b inputBank
	b.init(nq, nil)
	return b
}

// TestInputBankSteering: a split input alternates its two FIFOs, falls back
// to the other one only when the preferred one is full, and refuses an
// arrival only when both are; a single-FIFO input has nowhere to fall back to.
func TestInputBankSteering(t *testing.T) {
	// Arrivals on South; FIFO 0's flits want North and FIFO 1's want East, so
	// a grant of East pops FIFO 1.
	wants := [2]uint8{1 << flit.North, 1 << flit.East}
	b := newInputBank(2)
	arrive := func(id uint64, fifo, depth int) {
		t.Helper()
		e := buffer.Entry{F: &flit.Flit{ID: id}, Want: wants[fifo]}
		if got := b.write(flit.South, e); got != depth {
			t.Fatalf("arrival %d: depth %d, want %d", id, got, depth)
		}
		if q := &b.q[2*int(flit.South)+fifo]; q.At(q.Len()-1).F != e.F {
			t.Fatalf("arrival %d is not the tail of FIFO %d", id, fifo)
		}
	}
	for id := uint64(0); id < 6; id++ { // round robin: 3 and 3
		arrive(id, int(id)%2, int(id)/2+1)
	}
	for _, id := range []uint64{1, 3} { // 3 and 1
		b.requests(0, allOutputs)
		if f := b.pop(flit.South, uint8(flit.East)); f.ID != id {
			t.Fatalf("popped flit %d, want %d", f.ID, id)
		}
	}
	arrive(6, 0, 4) // the round robin goes on: FIFO 0 is full now
	arrive(7, 1, 2)
	arrive(8, 1, 3) // FIFO 0's turn, but it is full
	arrive(9, 1, 4) // and still its turn
	if depth := b.write(flit.South, buffer.Entry{F: &flit.Flit{ID: 10}}); depth != -1 {
		t.Fatalf("write into a full input returned depth %d, want -1", depth)
	}
	if occupancy(&b) != 2*core.BufferDepth || b.nonEmpty != 3<<(2*flit.South) {
		t.Fatalf("occupancy %d, nonEmpty %08b after filling one input", occupancy(&b), b.nonEmpty)
	}

	single := newInputBank(1)
	for id := 0; id < core.BufferDepth; id++ {
		if depth := single.write(flit.West, buffer.Entry{F: &flit.Flit{}}); depth != id+1 || single.next[flit.West] != 0 {
			t.Fatalf("single FIFO arrival %d: depth %d, steering %d", id, depth, single.next[flit.West])
		}
	}
	if depth := single.write(flit.West, buffer.Entry{F: &flit.Flit{}}); depth != -1 {
		t.Fatalf("write into a full single FIFO returned depth %d, want -1", depth)
	}
}

// TestInputBankMatchesModel interleaves writes and granted pops at random and
// holds the bank to a model of plain slices: every request word is the union
// of the eligible heads' sendable wants, a grant pops the older of the heads
// that asked for it, and the non-empty mask and the occupancy agree with the
// queues after every operation.
func TestInputBankMatchesModel(t *testing.T) {
	for _, nq := range []uint8{1, 2} {
		rng := rand.New(rand.NewSource(int64(nq)))
		b := newInputBank(nq)
		model := make([][]buffer.Entry, int(nq)*flit.NumLinkPorts)
		nextID := uint64(0)
		for cycle := uint64(0); cycle < 20_000; cycle++ {
			for p := flit.North; p <= flit.West; p++ {
				if rng.Intn(3) != 0 {
					continue
				}
				// Equal injection cycles among neighbours make Older fall
				// through to the ID.
				e := buffer.Entry{F: &flit.Flit{ID: nextID, InjectionCycle: uint64(rng.Intn(4))}, Ready: cycle + 1, Want: uint8(1 + rng.Intn(allOutputs))}
				nextID++
				full := true
				for k := 0; k < int(nq); k++ {
					full = full && len(model[int(p)*int(nq)+k]) == core.BufferDepth
				}
				depth := b.write(p, e)
				if full != (depth == -1) {
					t.Fatalf("cycle %d: write returned %d with the input full=%v", cycle, depth, full)
				}
				if depth > 0 {
					i := slices.IndexFunc(b.q[:], func(q buffer.Queue) bool {
						return q.Len() > 0 && q.At(q.Len()-1).F == e.F
					})
					if model[i] = append(model[i], e); len(model[i]) != depth || i/int(nq) != int(p) {
						t.Fatalf("cycle %d: arrival on %s landed in FIFO %d at depth %d, model has %d", cycle, p, i, depth, len(model[i]))
					}
				}
			}
			sendable := uint8(rng.Intn(allOutputs + 1))
			req := b.requests(cycle, sendable)
			for p := 0; p < flit.NumLinkPorts; p++ {
				var want uint8
				for k := 0; k < int(nq); k++ {
					if q := model[p*int(nq)+k]; len(q) > 0 && q[0].Ready <= cycle {
						want |= q[0].Want & sendable
					}
				}
				if row := uint8(req >> uint(bitarb.Radix*p) & allOutputs); row != want {
					t.Fatalf("cycle %d input %d: request %05b, want %05b", cycle, p, row, want)
				}
				if want == 0 || rng.Intn(2) == 0 {
					continue
				}
				// Grant one of the requested outputs, as the allocator would.
				o := pickBit(want, rng)
				from := -1
				for k := 0; k < int(nq); k++ {
					i := p*int(nq) + k
					if q := model[i]; len(q) > 0 && q[0].Ready <= cycle && q[0].Want&sendable>>uint(o)&1 != 0 &&
						(from < 0 || q[0].F.Older(model[from][0].F)) {
						from = i
					}
				}
				if got := b.pop(flit.Port(p), uint8(o)); got != model[from][0].F {
					t.Fatalf("cycle %d input %d output %d: popped flit %d, want the older requesting head %d", cycle, p, o, got.ID, model[from][0].F.ID)
				}
				model[from] = model[from][1:]
			}
			count := 0
			for i, q := range model {
				count += len(q)
				if b.q[i].Len() != len(q) || (b.nonEmpty>>uint(i)&1 != 0) != (len(q) > 0) {
					t.Fatalf("cycle %d FIFO %d: bank holds %d (nonEmpty %08b), model %d", cycle, i, b.q[i].Len(), b.nonEmpty, len(q))
				}
			}
			if occupancy(&b) != count {
				t.Fatalf("cycle %d: occupancy %d, model %d", cycle, occupancy(&b), count)
			}
		}
	}
}

// occupancy returns the number of flits b holds.
func occupancy(b *inputBank) int {
	n := 0
	for i := range b.q {
		n += b.q[i].Len()
	}
	return n
}

// pickBit returns the index of a random set bit of m.
func pickBit(m uint8, rng *rand.Rand) int {
	for n := rng.Intn(bits.OnesCount8(m)); n > 0; n-- {
		m &= m - 1
	}
	return bits.TrailingZeros8(m)
}

// TestInputBankSaveLoad: the entries' routes and the non-empty mask are not in
// the stream, and a loaded router rebuilds them — its entries, next request
// matrix, grant and popped flits equal the saved router's.
func TestInputBankSaveLoad(t *testing.T) {
	mesh := topology.MustMesh(4, 4)
	const node = 5
	table := routing.NewTable(routing.WestFirst{}, mesh, mesh.Nodes())
	build := func(split bool) *Buffered {
		nq := uint8(1)
		if split {
			nq = 2
		}
		return &Buffered{env: &sim.Env{Node: node}, bank: newInputBank(nq), table: table}
	}
	for _, split := range []bool{false, true} {
		rng := rand.New(rand.NewSource(7))
		orig := build(split)
		for id := uint64(0); id < 40; id++ {
			dst := rng.Intn(mesh.Nodes())
			e := buffer.Entry{F: &flit.Flit{ID: id, InjectionCycle: uint64(rng.Intn(8)), Dst: int32(dst), Route: flit.Invalid, NumFlits: 1},
				Ready: uint64(rng.Intn(3))}
			e.Want, e.Route = table.RouteAt(node, dst)
			orig.bank.write(flit.Port(rng.Intn(flit.NumLinkPorts)), e)
		}
		// Move the ring heads off slot 0, so the stream is not the array.
		allocate := func(b *Buffered, req uint32) []uint8 {
			matched, outs := b.alloc.Allocate(req)
			grants := make([]uint8, flit.NumPorts)
			for i := range grants {
				grants[i] = noGrant
				if matched>>uint(i)&1 != 0 {
					grants[i] = outs[i]
				}
			}
			return grants
		}
		for i, o := range allocate(orig, orig.bank.requests(2, allOutputs)) {
			if o != noGrant {
				orig.bank.pop(flit.Port(i), o)
			}
		}

		var buf bytes.Buffer
		w := snapshot.NewWriter(&buf)
		if err := orig.State(w, nil, mesh.Nodes()); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := snapshot.NewReader(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		loaded := build(split)
		if err := loaded.State(r, flit.NewPool(), mesh.Nodes()); err != nil {
			t.Fatal(err)
		}
		if occupancy(&loaded.bank) != occupancy(&orig.bank) || loaded.bank.nonEmpty != orig.bank.nonEmpty || loaded.bank.next != orig.bank.next ||
			loaded.bank.headWant != orig.bank.headWant || loaded.bank.headReady != orig.bank.headReady {
			t.Fatalf("split=%v: loaded occupancy %d nonEmpty %08b next %v, saved %d %08b %v", split,
				occupancy(&loaded.bank), loaded.bank.nonEmpty, loaded.bank.next, occupancy(&orig.bank), orig.bank.nonEmpty, orig.bank.next)
		}
		for i := range orig.bank.q {
			o, l := &orig.bank.q[i], &loaded.bank.q[i]
			if o.Len() != l.Len() {
				t.Fatalf("split=%v FIFO %d: loaded %d flits, saved %d", split, i, l.Len(), o.Len())
			}
			for k := 0; k < o.Len(); k++ {
				if w, g := o.At(k), l.At(k); g.F.ID != w.F.ID || g.Ready != w.Ready || g.Want != w.Want || g.Route != w.Route {
					t.Fatalf("split=%v FIFO %d entry %d: loaded {%d %d %05b %#x}, saved {%d %d %05b %#x}", split, i, k,
						g.F.ID, g.Ready, g.Want, g.Route, w.F.ID, w.Ready, w.Want, w.Route)
				}
			}
		}
		for cycle := uint64(2); orig.bank.nonEmpty != 0; cycle++ {
			want, got := orig.bank.requests(cycle, allOutputs), loaded.bank.requests(cycle, allOutputs)
			if got != want {
				t.Fatalf("split=%v cycle %d: loaded router requests %#07x, saved router %#07x", split, cycle, got, want)
			}
			wantGrants := allocate(orig, want)
			if gotGrants := allocate(loaded, got); !slices.Equal(gotGrants, wantGrants) {
				t.Fatalf("split=%v cycle %d: loaded router grants %v, saved router %v", split, cycle, gotGrants, wantGrants)
			}
			for i, o := range wantGrants {
				if o == noGrant {
					continue
				}
				if w, g := orig.bank.pop(flit.Port(i), o), loaded.bank.pop(flit.Port(i), o); w.ID != g.ID {
					t.Fatalf("split=%v cycle %d input %d: loaded router pops flit %d, saved router %d", split, cycle, i, g.ID, w.ID)
				}
			}
		}
		if occupancy(&loaded.bank) != 0 || loaded.bank.nonEmpty != 0 {
			t.Fatalf("split=%v: loaded bank holds %d (nonEmpty %08b) after the saved one drained", split, occupancy(&loaded.bank), loaded.bank.nonEmpty)
		}
	}
}
