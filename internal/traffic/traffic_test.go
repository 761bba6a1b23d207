package traffic

import (
	"math"
	"math/rand"
	"testing"

	"dxbar/internal/topology"
)

var mesh = topology.MustMesh(8, 8)

func pat(t *testing.T, name string) Pattern {
	t.Helper()
	p, err := New(name, mesh)
	if err != nil {
		t.Fatalf("New(%s): %v", name, err)
	}
	return p
}

func TestAllPatternsConstructible(t *testing.T) {
	for _, name := range PatternNames {
		p := pat(t, name)
		if p.Name() != name {
			t.Errorf("pattern %s reports name %s", name, p.Name())
		}
	}
	if _, err := New("XX", mesh); err == nil {
		t.Error("unknown pattern must fail")
	}
}

func TestBitPatternsNeedPowerOfTwo(t *testing.T) {
	m := topology.MustMesh(3, 3)
	for _, name := range []string{"BR", "BF", "CP", "PS"} {
		if _, err := New(name, m); err == nil {
			t.Errorf("%s on 9 nodes must fail", name)
		}
	}
	// Coordinate patterns are fine on any mesh.
	for _, name := range []string{"UR", "NUR", "MT", "NB", "TOR"} {
		if _, err := New(name, m); err != nil {
			t.Errorf("%s on 9 nodes failed: %v", name, err)
		}
	}
}

func TestUniformNeverSelf(t *testing.T) {
	p := pat(t, "UR")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		src := i % 64
		if d := p.Dest(src, rng); d == src || d < 0 || d >= 64 {
			t.Fatalf("UR dest %d invalid for src %d", d, src)
		}
	}
}

func TestUniformCoversAllDestinations(t *testing.T) {
	p := pat(t, "UR")
	rng := rand.New(rand.NewSource(2))
	seen := make([]bool, 64)
	for i := 0; i < 20000; i++ {
		seen[p.Dest(0, rng)] = true
	}
	for d := 1; d < 64; d++ {
		if !seen[d] {
			t.Fatalf("UR never produced destination %d", d)
		}
	}
}

func TestComplement(t *testing.T) {
	p := pat(t, "CP")
	if d := p.Dest(0, nil); d != 63 {
		t.Errorf("CP(0) = %d, want 63", d)
	}
	if d := p.Dest(0b101010, nil); d != 0b010101 {
		t.Errorf("CP(42) = %d, want 21", d)
	}
}

func TestBitReversal(t *testing.T) {
	p := pat(t, "BR")
	if d := p.Dest(0b000001, nil); d != 0b100000 {
		t.Errorf("BR(1) = %d, want 32", d)
	}
	if d := p.Dest(0b110100, nil); d != 0b001011 {
		t.Errorf("BR(52) = %d, want 11", d)
	}
}

func TestButterfly(t *testing.T) {
	p := pat(t, "BF")
	// Swap MSB (bit 5) and LSB (bit 0).
	if d := p.Dest(0b100000, nil); d != 0b000001 {
		t.Errorf("BF(32) = %d, want 1", d)
	}
	if d := p.Dest(0b100001, nil); d != 0b100001 {
		t.Errorf("BF(33) = %d, want 33 (fixed point)", d)
	}
}

func TestPerfectShuffle(t *testing.T) {
	p := pat(t, "PS")
	// Rotate left by 1 within 6 bits.
	if d := p.Dest(0b100000, nil); d != 0b000001 {
		t.Errorf("PS(32) = %d, want 1", d)
	}
	if d := p.Dest(0b010110, nil); d != 0b101100 {
		t.Errorf("PS(22) = %d, want 44", d)
	}
}

// Bit-permutation patterns must be permutations of the node set.
func TestBitPatternsAreBijections(t *testing.T) {
	for _, name := range []string{"BR", "BF", "CP", "PS"} {
		p := pat(t, name)
		seen := make([]bool, 64)
		for s := 0; s < 64; s++ {
			d := p.Dest(s, nil)
			if d < 0 || d >= 64 || seen[d] {
				t.Fatalf("%s is not a bijection at src %d (dest %d)", name, s, d)
			}
			seen[d] = true
		}
	}
}

func TestTranspose(t *testing.T) {
	p := pat(t, "MT")
	if d := p.Dest(mesh.Node(2, 5), nil); d != mesh.Node(5, 2) {
		t.Errorf("MT(2,5) wrong")
	}
	if d := p.Dest(mesh.Node(3, 3), nil); d != mesh.Node(3, 3) {
		t.Errorf("MT diagonal must be a fixed point")
	}
}

func TestNeighbor(t *testing.T) {
	p := pat(t, "NB")
	if d := p.Dest(mesh.Node(3, 2), nil); d != mesh.Node(4, 2) {
		t.Error("NB must send East")
	}
	if d := p.Dest(mesh.Node(7, 2), nil); d != mesh.Node(0, 2) {
		t.Error("NB must wrap at the edge")
	}
}

func TestTornado(t *testing.T) {
	p := pat(t, "TOR")
	if d := p.Dest(mesh.Node(1, 4), nil); d != mesh.Node(5, 4) {
		t.Error("TOR must send half the row width")
	}
	if d := p.Dest(mesh.Node(6, 4), nil); d != mesh.Node(2, 4) {
		t.Error("TOR must wrap")
	}
}

func TestHotspotBiasesCenterNodes(t *testing.T) {
	p := pat(t, "NUR")
	rng := rand.New(rand.NewSource(3))
	hot := map[int]bool{mesh.Node(3, 3): true, mesh.Node(4, 3): true, mesh.Node(3, 4): true, mesh.Node(4, 4): true}
	hits := 0
	const trials = 50000
	for i := 0; i < trials; i++ {
		if hot[p.Dest(0, rng)] {
			hits++
		}
	}
	frac := float64(hits) / trials
	// Expected: 0.2 direct + 0.8 * 4/63 uniform ≈ 0.25.
	if frac < 0.20 || frac > 0.30 {
		t.Errorf("hotspot fraction = %v, want ~0.25", frac)
	}
}

func TestBernoulliLoadAccuracy(t *testing.T) {
	p := pat(t, "UR")
	b, err := NewBernoulli(mesh, p, 0.3, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	flits := 0
	const cycles = 20000
	for c := uint64(0); c < cycles; c++ {
		if s := b.Generate(5, c); s != nil {
			flits += int(s.NumFlits)
		}
	}
	got := float64(flits) / cycles
	if math.Abs(got-0.3) > 0.02 {
		t.Errorf("offered load = %v, want ~0.3", got)
	}
}

func TestBernoulliMultiFlitDividesRate(t *testing.T) {
	p := pat(t, "UR")
	b, _ := NewBernoulli(mesh, p, 0.4, 4, 7)
	pkts, flits := 0, 0
	const cycles = 40000
	for c := uint64(0); c < cycles; c++ {
		if s := b.Generate(5, c); s != nil {
			pkts++
			flits += int(s.NumFlits)
		}
	}
	if got := float64(flits) / cycles; math.Abs(got-0.4) > 0.02 {
		t.Errorf("flit load = %v, want ~0.4", got)
	}
	if got := float64(pkts) / cycles; math.Abs(got-0.1) > 0.01 {
		t.Errorf("packet rate = %v, want ~0.1", got)
	}
}

func TestBernoulliValidation(t *testing.T) {
	p := pat(t, "UR")
	if _, err := NewBernoulli(mesh, p, -0.1, 1, 1); err == nil {
		t.Error("negative load must fail")
	}
	if _, err := NewBernoulli(mesh, p, 1.5, 1, 1); err == nil {
		t.Error("load > 1 must fail")
	}
	if _, err := NewBernoulli(mesh, p, 0.5, 0, 1); err == nil {
		t.Error("0 flits per packet must fail")
	}
}

func TestBernoulliDeterministic(t *testing.T) {
	p := pat(t, "UR")
	a, _ := NewBernoulli(mesh, p, 0.5, 1, 99)
	p2 := pat(t, "UR")
	b, _ := NewBernoulli(mesh, p2, 0.5, 1, 99)
	for c := uint64(0); c < 1000; c++ {
		for n := 0; n < 64; n++ {
			sa, sb := a.Generate(n, c), b.Generate(n, c)
			if (sa == nil) != (sb == nil) {
				t.Fatal("same seed must generate identically")
			}
			if sa != nil && (sa.Dst != sb.Dst || sa.ID != sb.ID) {
				t.Fatal("same seed must generate identical packets")
			}
		}
	}
}

func TestPacketSpecFlits(t *testing.T) {
	s := PacketSpec{ID: 9, Src: 1, Dst: 2, NumFlits: 4, Cycle: 77}
	fs := s.Flits()
	if len(fs) != 4 {
		t.Fatal("wrong flit count")
	}
	ids := map[uint64]bool{}
	for i, f := range fs {
		if f.Seq != uint16(i) || f.PacketID != 9 || f.InjectionCycle != 77 || f.Src != 1 || f.Dst != 2 {
			t.Fatalf("flit %d fields wrong: %+v", i, f)
		}
		if ids[f.ID] {
			t.Fatal("duplicate flit ID")
		}
		ids[f.ID] = true
	}
}

// TestDrawsPerGenerateBound holds maxDrawsPerGenerate — the basis of the cap
// on a snapshot's RNG position — against every pattern at load 1.0, where
// every trial produces a packet and so calls Dest: on 4×4 and 8×8 meshes
// (NUR's hot spots are a sixteenth of the 4×4 nodes), a run's draws stay
// within the bound per node-cycle.
func TestDrawsPerGenerateBound(t *testing.T) {
	for _, size := range []int{4, 8} {
		m := topology.MustMesh(size, size)
		for _, name := range PatternNames {
			p, err := New(name, m)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewBernoulli(m, p, 1.0, 1, 3)
			if err != nil {
				t.Fatal(err)
			}
			const cycles = 2000
			for c := uint64(0); c < cycles; c++ {
				for n := 0; n < m.Nodes(); n++ {
					b.Generate(n, c)
				}
			}
			if bound := uint64(maxDrawsPerGenerate * m.Nodes() * cycles); b.src.n > bound {
				t.Errorf("%s on %d×%d: %d draws over %d node-cycles exceed %d per node-cycle", name, size, size, b.src.n, m.Nodes()*cycles, maxDrawsPerGenerate)
			}
		}
	}
}
