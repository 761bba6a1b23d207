package traffic

import (
	"bytes"
	"math/rand"
	"testing"

	"dxbar/internal/flit"
	"dxbar/internal/topology"
)

// FuzzPatternDest: every pattern must return an in-range destination for
// every source on several mesh shapes, never panicking.
func newTestRNG() *rand.Rand { return rand.New(rand.NewSource(1)) }

func FuzzPatternDest(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0))
	f.Add(uint8(3), uint8(63), uint8(1))
	f.Fuzz(func(t *testing.T, patIdx, src, dims uint8) {
		var m *topology.Mesh
		switch dims % 3 {
		case 0:
			m = topology.MustMesh(8, 8)
		case 1:
			m = topology.MustMesh(4, 4)
		default:
			m = topology.MustMesh(8, 4) // bit patterns reject non-square too
		}
		name := PatternNames[int(patIdx)%len(PatternNames)]
		p, err := New(name, m)
		if err != nil {
			return // legitimately unsupported (non-power-of-two)
		}
		s := int(src) % m.Nodes()
		d := p.Dest(s, newTestRNG())
		if d < 0 || d >= m.Nodes() {
			t.Fatalf("pattern %s: dest %d out of range for src %d", name, d, s)
		}
	})
}

// FuzzRead: arbitrary bytes must never panic the trace parser — they either
// decode into a trace whose records all lie in its mesh with 1 to 64 flits,
// or return an error.
func FuzzRead(f *testing.F) {
	var seed bytes.Buffer
	_ = (&Trace{Width: 8, Height: 8, Records: []Record{
		{Cycle: 1, Src: 0, Dst: 63, NumFlits: 5, Kind: flit.Data},
	}}).Write(&seed)
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte("garbage"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		nodes := int64(tr.Width) * int64(tr.Height)
		for i, r := range tr.Records {
			if r.Src < 0 || int64(r.Src) >= nodes || r.Dst < 0 || int64(r.Dst) >= nodes || r.NumFlits < 1 || r.NumFlits > 64 {
				t.Fatalf("record %d decoded out of range: %+v in %dx%d", i, r, tr.Width, tr.Height)
			}
		}
		// A successfully parsed trace must round-trip identically.
		var out bytes.Buffer
		if err := tr.Write(&out); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		tr2, err := ReadTrace(&out)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(tr2.Records) != len(tr.Records) {
			t.Fatal("round trip changed record count")
		}
	})
}
