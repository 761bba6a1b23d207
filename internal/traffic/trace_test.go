package traffic_test

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"

	"dxbar/internal/flit"
	"dxbar/internal/sim"
	"dxbar/internal/topology"
	"dxbar/internal/traffic"
)

func sample() *traffic.Trace {
	return &traffic.Trace{
		Width: 8, Height: 8,
		Records: []traffic.Record{
			{Cycle: 0, Src: 1, Dst: 9, NumFlits: 1, Kind: flit.Request},
			{Cycle: 3, Src: 9, Dst: 1, NumFlits: 5, Kind: flit.Data},
			{Cycle: 3, Src: 2, Dst: 60, NumFlits: 1, Kind: flit.Response},
		},
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := sample()
	if err := in.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := traffic.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Width != in.Width || out.Height != in.Height || len(out.Records) != len(in.Records) {
		t.Fatalf("shape mismatch: %+v", out)
	}
	for i := range in.Records {
		if in.Records[i] != out.Records[i] {
			t.Errorf("record %d: %+v != %+v", i, in.Records[i], out.Records[i])
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := traffic.ReadTrace(bytes.NewReader([]byte("not a trace file at all"))); err == nil {
		t.Error("garbage must not parse")
	}
	if _, err := traffic.ReadTrace(bytes.NewReader(nil)); err == nil {
		t.Error("empty input must not parse")
	}
	// Wrong version.
	var buf bytes.Buffer
	_ = sample().Write(&buf)
	b := buf.Bytes()
	b[4] = 99 // version field
	if _, err := traffic.ReadTrace(bytes.NewReader(b)); err == nil {
		t.Error("wrong version must not parse")
	}
}

// Property: any record list round-trips exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(cycles []uint16, srcs, dsts []uint8) bool {
		n := len(cycles)
		if len(srcs) < n {
			n = len(srcs)
		}
		if len(dsts) < n {
			n = len(dsts)
		}
		in := &traffic.Trace{Width: 8, Height: 8}
		for i := 0; i < n; i++ {
			in.Records = append(in.Records, traffic.Record{
				Cycle: uint64(cycles[i]), Src: int32(srcs[i] % 64), Dst: int32(dsts[i] % 64),
				NumFlits: uint16(i%5 + 1), Kind: flit.Kind(i % 3),
			})
		}
		var buf bytes.Buffer
		if err := in.Write(&buf); err != nil {
			return false
		}
		out, err := traffic.ReadTrace(&buf)
		if err != nil || len(out.Records) != len(in.Records) {
			return false
		}
		for i := range in.Records {
			if in.Records[i] != out.Records[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRecorderCaptures(t *testing.T) {
	mesh := topology.MustMesh(8, 8)
	pat, _ := traffic.New("UR", mesh)
	bern, _ := traffic.NewBernoulli(mesh, pat, 0.5, 1, 1)
	rec := &traffic.Recorder{Inner: &sim.SourceAdapter{B: bern}}
	got := 0
	for c := uint64(0); c < 100; c++ {
		for n := 0; n < 64; n++ {
			got += len(rec.Generate(n, c))
		}
	}
	if got == 0 {
		t.Fatal("no packets generated")
	}
	if len(rec.Trace.Records) != got {
		t.Errorf("recorded %d, generated %d", len(rec.Trace.Records), got)
	}
}

func TestPlayerReplaysEverything(t *testing.T) {
	in := sample()
	p := traffic.NewPlayer(in)
	if p.Remaining() != 3 {
		t.Fatalf("remaining = %d", p.Remaining())
	}
	total := 0
	ids := map[uint64]bool{}
	for c := uint64(0); c < 10; c++ {
		for n := 0; n < 64; n++ {
			for _, s := range p.Generate(n, c) {
				total++
				if ids[s.ID] {
					t.Fatal("duplicate replay packet ID")
				}
				ids[s.ID] = true
				if s.Src != n {
					t.Fatal("replayed at wrong node")
				}
			}
		}
	}
	if total != 3 || p.Remaining() != 0 {
		t.Errorf("replayed %d records, remaining %d", total, p.Remaining())
	}
}

// pendingInner is a Source with the NextPending capability: node 5 only.
type pendingInner struct{}

func (pendingInner) Generate(node int, cycle uint64) []*traffic.PacketSpec { return nil }
func (pendingInner) NextPending(from int, cycle uint64) int {
	if from <= 5 {
		return 5
	}
	return -1
}

// The recorder forwards the capability of what it wraps, and names every node
// pending — per-node polling — when the wrapped source has none.
func TestRecorderForwardsPending(t *testing.T) {
	var _ sim.PendingSource = (*traffic.Recorder)(nil)
	fwd := &traffic.Recorder{Inner: pendingInner{}}
	if a, b := fwd.NextPending(0, 7), fwd.NextPending(6, 7); a != 5 || b != -1 {
		t.Errorf("forwarded NextPending = %d, %d, want 5, -1", a, b)
	}
	mesh := topology.MustMesh(8, 8)
	pat, _ := traffic.New("UR", mesh)
	bern, _ := traffic.NewBernoulli(mesh, pat, 0.5, 1, 1)
	polled := &traffic.Recorder{Inner: &sim.SourceAdapter{B: bern}}
	for _, from := range []int{0, 17, 63, 64} {
		if got := polled.NextPending(from, 3); got != from {
			t.Errorf("NextPending(%d) over a source without the capability = %d, want %d", from, got, from)
		}
	}
}

// The player names exactly the nodes whose next record is due, ascending.
func TestPlayerNextPending(t *testing.T) {
	var _ sim.PendingSource = (*traffic.Player)(nil)
	p := traffic.NewPlayer(sample())
	due := func(cycle uint64) (nodes []int) {
		for n := p.NextPending(0, cycle); n >= 0; n = p.NextPending(n+1, cycle) {
			nodes = append(nodes, n)
		}
		return nodes
	}
	if got := due(0); !slices.Equal(got, []int{1}) {
		t.Errorf("due at cycle 0: %v, want [1]", got)
	}
	p.Generate(1, 0)
	if got := due(2); got != nil {
		t.Errorf("due at cycle 2: %v, want none", got)
	}
	if got := due(3); !slices.Equal(got, []int{2, 9}) {
		t.Errorf("due at cycle 3: %v, want [2 9]", got)
	}
	p.Generate(2, 3)
	p.Generate(9, 3)
	if got := due(100); got != nil || p.Remaining() != 0 {
		t.Errorf("after replaying everything: due %v, %d records remaining", got, p.Remaining())
	}
}

func TestPlayerLateStartCatchesUp(t *testing.T) {
	// Records at cycle 0 and 3 queried first at cycle 5 all emit then.
	p := traffic.NewPlayer(sample())
	out := p.Generate(1, 5)
	if len(out) != 1 {
		t.Errorf("node 1 should emit its cycle-0 record at first poll, got %d", len(out))
	}
}

// End-to-end: record a Bernoulli run, replay it, confirm the same packet
// population (cycle/src/dst multiset).
func TestRecordReplayEquivalence(t *testing.T) {
	mesh := topology.MustMesh(8, 8)
	pat, _ := traffic.New("MT", mesh)
	bern, _ := traffic.NewBernoulli(mesh, pat, 0.3, 1, 9)
	rec := &traffic.Recorder{Inner: &sim.SourceAdapter{B: bern}, Trace: traffic.Trace{Width: 8, Height: 8}}
	type key struct {
		c        uint64
		src, dst int
	}
	orig := map[key]int{}
	for c := uint64(0); c < 200; c++ {
		for n := 0; n < 64; n++ {
			for _, s := range rec.Generate(n, c) {
				orig[key{c, s.Src, s.Dst}]++
			}
		}
	}
	var buf bytes.Buffer
	if err := rec.Trace.Write(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := traffic.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p := traffic.NewPlayer(loaded)
	for c := uint64(0); c < 200; c++ {
		for n := 0; n < 64; n++ {
			for _, s := range p.Generate(n, c) {
				k := key{c, s.Src, s.Dst}
				orig[k]--
				if orig[k] == 0 {
					delete(orig, k)
				}
			}
		}
	}
	if len(orig) != 0 {
		t.Errorf("%d packets not reproduced by replay", len(orig))
	}
}

// Regression: a forged header claiming billions of records must fail fast
// on the short read instead of attempting a giant allocation (found by
// FuzzRead).
func TestReadRejectsForgedRecordCount(t *testing.T) {
	var buf bytes.Buffer
	_ = sample().Write(&buf)
	b := buf.Bytes()
	// Header layout: magic, version, width, height, count (uint32 LE each).
	b[16], b[17], b[18], b[19] = 0xff, 0xff, 0xff, 0xff
	if _, err := traffic.ReadTrace(bytes.NewReader(b)); err == nil {
		t.Fatal("forged record count must error")
	}
}
