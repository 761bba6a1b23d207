package router

import (
	"bytes"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"dxbar/internal/bitarb"
	"dxbar/internal/flit"
	"dxbar/internal/routing"
	"dxbar/internal/sim"
	"dxbar/internal/snapshot"
	"dxbar/internal/topology"
)

const allOutputs = 1<<flit.NumPorts - 1

// TestInputBankSteering: a split input alternates its two FIFOs, falls back
// to the other one only when the preferred one is full, and refuses an
// arrival only when both are; a single-FIFO input has nowhere to fall back to.
func TestInputBankSteering(t *testing.T) {
	// Arrivals on South; FIFO 0's flits want North and FIFO 1's want East, so
	// a grant of East pops FIFO 1.
	wants := [2]uint8{1 << flit.North, 1 << flit.East}
	b := inputBank{nq: 2}
	arrive := func(id uint64, fifo, depth int) {
		t.Helper()
		e := bufEntry{f: &flit.Flit{ID: id}, want: wants[fifo]}
		if got := b.write(flit.South, e); got != depth {
			t.Fatalf("arrival %d: depth %d, want %d", id, got, depth)
		}
		if q := &b.q[2*int(flit.South)+fifo]; q.entries[(q.headIdx+q.count-1)&(fifoDepth-1)].f != e.f {
			t.Fatalf("arrival %d is not the tail of FIFO %d", id, fifo)
		}
	}
	for id := uint64(0); id < 6; id++ { // round robin: 3 and 3
		arrive(id, int(id)%2, int(id)/2+1)
	}
	for _, id := range []uint64{1, 3} { // 3 and 1
		var req [flit.NumPorts]uint64
		b.requests(0, allOutputs, &req)
		if f := b.pop(flit.South, int(flit.East)); f.ID != id {
			t.Fatalf("popped flit %d, want %d", f.ID, id)
		}
	}
	arrive(6, 0, 4) // the round robin goes on: FIFO 0 is full now
	arrive(7, 1, 2)
	arrive(8, 1, 3) // FIFO 0's turn, but it is full
	arrive(9, 1, 4) // and still its turn
	if depth := b.write(flit.South, bufEntry{f: &flit.Flit{ID: 10}}); depth != -1 {
		t.Fatalf("write into a full input returned depth %d, want -1", depth)
	}
	if b.count != 2*fifoDepth || b.nonEmpty != 3<<(2*flit.South) {
		t.Fatalf("count %d, nonEmpty %08b after filling one input", b.count, b.nonEmpty)
	}

	single := inputBank{nq: 1}
	for id := 0; id < fifoDepth; id++ {
		if depth := single.write(flit.West, bufEntry{f: &flit.Flit{}}); depth != id+1 || single.next[flit.West] != 0 {
			t.Fatalf("single FIFO arrival %d: depth %d, steering %d", id, depth, single.next[flit.West])
		}
	}
	if depth := single.write(flit.West, bufEntry{f: &flit.Flit{}}); depth != -1 {
		t.Fatalf("write into a full single FIFO returned depth %d, want -1", depth)
	}
}

// TestInputBankMatchesModel interleaves writes and granted pops at random and
// holds the bank to a model of plain slices: every request word is the union
// of the eligible heads' sendable wants, a grant pops the older of the heads
// that asked for it, and the non-empty mask and the count agree with the
// queues after every operation.
func TestInputBankMatchesModel(t *testing.T) {
	for _, nq := range []uint8{1, 2} {
		rng := rand.New(rand.NewSource(int64(nq)))
		b := inputBank{nq: nq}
		model := make([][]bufEntry, int(nq)*flit.NumLinkPorts)
		nextID := uint64(0)
		for cycle := uint64(0); cycle < 20_000; cycle++ {
			for p := flit.North; p <= flit.West; p++ {
				if rng.Intn(3) != 0 {
					continue
				}
				// Equal injection cycles among neighbours make Older fall
				// through to the ID.
				e := bufEntry{f: &flit.Flit{ID: nextID, InjectionCycle: uint64(rng.Intn(4))}, ready: cycle + 1, want: uint8(1 + rng.Intn(allOutputs))}
				nextID++
				full := true
				for k := 0; k < int(nq); k++ {
					full = full && len(model[int(p)*int(nq)+k]) == fifoDepth
				}
				depth := b.write(p, e)
				if full != (depth == -1) {
					t.Fatalf("cycle %d: write returned %d with the input full=%v", cycle, depth, full)
				}
				if depth > 0 {
					i := slices.IndexFunc(b.q[:], func(q entryQueue) bool {
						return q.count > 0 && q.entries[(q.headIdx+q.count-1)&(fifoDepth-1)].f == e.f
					})
					if model[i] = append(model[i], e); len(model[i]) != depth || i/int(nq) != int(p) {
						t.Fatalf("cycle %d: arrival on %s landed in FIFO %d at depth %d, model has %d", cycle, p, i, depth, len(model[i]))
					}
				}
			}
			sendable := uint8(rng.Intn(allOutputs + 1))
			var req [flit.NumPorts]uint64
			b.requests(cycle, sendable, &req)
			for p := 0; p < flit.NumLinkPorts; p++ {
				var want uint8
				for k := 0; k < int(nq); k++ {
					if q := model[p*int(nq)+k]; len(q) > 0 && q[0].ready <= cycle {
						want |= q[0].want & sendable
					}
				}
				if req[p] != uint64(want) {
					t.Fatalf("cycle %d input %d: request %05b, want %05b", cycle, p, req[p], want)
				}
				if want == 0 || rng.Intn(2) == 0 {
					continue
				}
				// Grant one of the requested outputs, as the allocator would.
				o := pickBit(want, rng)
				from := -1
				for k := 0; k < int(nq); k++ {
					i := p*int(nq) + k
					if q := model[i]; len(q) > 0 && q[0].ready <= cycle && q[0].want&sendable>>uint(o)&1 != 0 &&
						(from < 0 || q[0].f.Older(model[from][0].f)) {
						from = i
					}
				}
				if got := b.pop(flit.Port(p), o); got != model[from][0].f {
					t.Fatalf("cycle %d input %d output %d: popped flit %d, want the older requesting head %d", cycle, p, o, got.ID, model[from][0].f.ID)
				}
				model[from] = model[from][1:]
			}
			count := 0
			for i, q := range model {
				count += len(q)
				if b.q[i].count != len(q) || (b.nonEmpty>>uint(i)&1 != 0) != (len(q) > 0) {
					t.Fatalf("cycle %d FIFO %d: bank holds %d (nonEmpty %08b), model %d", cycle, i, b.q[i].count, b.nonEmpty, len(q))
				}
			}
			if b.count != count {
				t.Fatalf("cycle %d: count %d, model %d", cycle, b.count, count)
			}
		}
	}
}

// pickBit returns the index of a random set bit of m.
func pickBit(m uint8, rng *rand.Rand) int {
	for n := rng.Intn(bits.OnesCount8(m)); n > 0; n-- {
		m &= m - 1
	}
	return bits.TrailingZeros8(m)
}

// TestInputBankSaveLoad: the request masks, the non-empty mask and the count
// are not in the stream, and a loaded router rebuilds them — its next request
// matrix, grant and popped flits equal the saved router's.
func TestInputBankSaveLoad(t *testing.T) {
	mesh := topology.MustMesh(4, 4)
	const node = 5
	table := routing.NewTable(routing.WestFirst{}, mesh, mesh.Nodes())
	build := func(split bool) *Buffered {
		b := &Buffered{env: &sim.Env{Node: node}, bank: inputBank{nq: 1}, table: table,
			alloc: bitarb.NewSeparable(flit.NumPorts, flit.NumPorts)}
		if split {
			b.bank.nq = 2
		}
		return b
	}
	for _, split := range []bool{false, true} {
		rng := rand.New(rand.NewSource(7))
		orig := build(split)
		for id := uint64(0); id < 40; id++ {
			dst := rng.Intn(mesh.Nodes())
			orig.bank.write(flit.Port(rng.Intn(flit.NumLinkPorts)), bufEntry{
				f:     &flit.Flit{ID: id, InjectionCycle: uint64(rng.Intn(8)), Dst: int32(dst), Route: flit.Invalid, NumFlits: 1},
				ready: uint64(rng.Intn(3)), want: table.ProductiveMaskAt(node, dst)})
		}
		// Move the ring heads off slot 0, so the stream is not the array.
		var req [flit.NumPorts]uint64
		orig.bank.requests(2, allOutputs, &req)
		for i, o := range orig.alloc.Allocate(req[:]) {
			if o >= 0 {
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
		if loaded.bank.count != orig.bank.count || loaded.bank.nonEmpty != orig.bank.nonEmpty || loaded.bank.next != orig.bank.next {
			t.Fatalf("split=%v: loaded count %d nonEmpty %08b next %v, saved %d %08b %v", split,
				loaded.bank.count, loaded.bank.nonEmpty, loaded.bank.next, orig.bank.count, orig.bank.nonEmpty, orig.bank.next)
		}
		for cycle := uint64(2); orig.bank.count > 0; cycle++ {
			var want, got [flit.NumPorts]uint64
			orig.bank.requests(cycle, allOutputs, &want)
			loaded.bank.requests(cycle, allOutputs, &got)
			if got != want {
				t.Fatalf("split=%v cycle %d: loaded router requests %v, saved router %v", split, cycle, got, want)
			}
			wantGrants := slices.Clone(orig.alloc.Allocate(want[:]))
			if gotGrants := loaded.alloc.Allocate(got[:]); !slices.Equal(gotGrants, wantGrants) {
				t.Fatalf("split=%v cycle %d: loaded router grants %v, saved router %v", split, cycle, gotGrants, wantGrants)
			}
			for i, o := range wantGrants {
				if o < 0 {
					continue
				}
				if w, g := orig.bank.pop(flit.Port(i), o), loaded.bank.pop(flit.Port(i), o); w.ID != g.ID {
					t.Fatalf("split=%v cycle %d input %d: loaded router pops flit %d, saved router %d", split, cycle, i, g.ID, w.ID)
				}
			}
		}
		if loaded.bank.count != 0 || loaded.bank.nonEmpty != 0 {
			t.Fatalf("split=%v: loaded bank holds %d (nonEmpty %08b) after the saved one drained", split, loaded.bank.count, loaded.bank.nonEmpty)
		}
	}
}
