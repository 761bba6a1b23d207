package core

import (
	"bytes"
	"math/rand"
	"testing"

	"dxbar/internal/buffer"
	"dxbar/internal/flit"
	"dxbar/internal/routing"
	"dxbar/internal/sim"
	"dxbar/internal/snapshot"
	"dxbar/internal/topology"
)

// TestInputsSaveLoad: the entries' request masks and routes and the
// occupancy mask are not in the DXBR stream, and a loaded router rebuilds
// them from its table — here on depth-3 buffers, whose rings hold four and
// have wrapped. A stream that claims four flits for a depth-3 buffer is a
// load error.
func TestInputsSaveLoad(t *testing.T) {
	mesh := topology.MustMesh(4, 4)
	const node = 5
	table := routing.NewTable(routing.WestFirst{}, mesh, mesh.Nodes())
	build := func(depth int) *DXbar {
		d := &DXbar{inputs: inputs{env: &sim.Env{Node: node}, table: table, fair: newFairness(FairnessThreshold)}}
		buffer.InitQueues(d.buffers[:], depth, nil)
		return d
	}
	save := func(d *DXbar) []byte {
		var buf bytes.Buffer
		w := snapshot.NewWriter(&buf)
		if err := d.State(w, nil, mesh.Nodes()); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	load := func(d *DXbar, data []byte) error {
		r, err := snapshot.NewReader(data)
		if err != nil {
			return err
		}
		if err := d.State(r, flit.NewPool(), mesh.Nodes()); err != nil {
			return err
		}
		return r.Close()
	}
	push := func(d *DXbar, p flit.Port, id uint64, dst int) {
		e := buffer.Entry{F: &flit.Flit{ID: id, Dst: int32(dst), NumFlits: 1, Route: flit.Invalid}}
		e.Want, e.Route = table.RouteAt(node, dst)
		d.buffers[p].Push(e)
		d.bufMask |= 1 << uint(p)
	}

	rng := rand.New(rand.NewSource(3))
	orig := build(3)
	for id := uint64(0); id < 20; id++ { // West stays empty
		p := flit.Port(id % 3)
		if orig.buffers[p].Full() {
			orig.buffers[p].Pop()
		}
		push(orig, p, id, rng.Intn(mesh.Nodes()))
	}
	loaded := build(3)
	if err := load(loaded, save(orig)); err != nil {
		t.Fatal(err)
	}
	if loaded.bufMask != orig.bufMask {
		t.Fatalf("loaded bufMask %04b, saved %04b", loaded.bufMask, orig.bufMask)
	}
	for p := range orig.buffers {
		o, l := &orig.buffers[p], &loaded.buffers[p]
		if o.Len() != l.Len() {
			t.Fatalf("input %d: loaded %d flits, saved %d", p, l.Len(), o.Len())
		}
		for k := 0; k < o.Len(); k++ {
			if w, g := o.At(k), l.At(k); g.F.ID != w.F.ID || g.Want != w.Want || g.Route != w.Route {
				t.Errorf("input %d entry %d: loaded flit %d want %05b route %#x, saved %d %05b %#x",
					p, k, g.F.ID, g.Want, g.Route, w.F.ID, w.Want, w.Route)
			}
		}
	}

	deep := build(4)
	for id := uint64(0); id < 4; id++ {
		push(deep, flit.North, id, 0)
	}
	if err := load(build(3), save(deep)); err == nil {
		t.Fatal("a depth-3 router loaded a buffer of four flits")
	}
}
