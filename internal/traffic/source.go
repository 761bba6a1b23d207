package traffic

import (
	"math/rand"

	"dxbar/internal/snapshot"
)

// Source is math/rand's additive lagged-Fibonacci source (Mitchell & Reeds,
// from Go's math/rand/rng.go, BSD licence) as a value type: Seed(s) yields
// the stream of rand.NewSource(s), and rand.New(&src) supplies Float64 and
// Intn. Its whole state is the 607-word register and the tap index — the
// library's feed index is always tap+334 mod 607 — so a struct copy forks
// the stream and a snapshot stores the state itself.
type Source struct {
	tap int
	vec [rngLen]uint64
}

const (
	rngLen, rngTap = 607, 273
	rngFeed        = rngLen - rngTap // the feed index's lead over tap
	// The register is seeded by the Lehmer generator x ← 48271·x mod 2³¹−1.
	seedMod, seedMul = 1<<31 - 1, 48271
)

// mulMod returns a·x mod 2³¹−1 for a, x < 2³¹ by Mersenne reduction: the
// product's high bits fold onto its low 31, and one subtraction finishes it.
func mulMod(a, x uint64) uint64 {
	p := a * x
	r := p&seedMod + p>>31
	if r >= seedMod {
		r -= seedMod
	}
	return r
}

// seedMul², seedMul³ and seedMul²⁰: a register word's three Lehmer steps
// come from one state at once, and the library's 20 discarded warm-up steps
// are one multiply. cooked is the library's rngCooked table, XORed into
// every seeded register — derived rather than copied: seed 1's first 607
// draws determine its seeded register, and XORing seed 1's Lehmer words off
// that register leaves the table.
var (
	seedMul2, seedMul3, seedMul20 uint64
	cooked                        [rngLen]uint64
)

func init() {
	seedMul2 = mulMod(seedMul, seedMul)
	seedMul3 = mulMod(seedMul2, seedMul)
	seedMul20 = 1
	for i := 0; i < 20; i++ {
		seedMul20 = mulMod(seedMul20, seedMul)
	}
	var plain Source
	plain.Seed(1) // cooked is still zero: the bare Lehmer words
	ref := rand.NewSource(1).(rand.Source64)
	var y [rngLen + 1]uint64 // y[k] is seed 1's k-th draw
	for k := 1; k <= rngLen; k++ {
		y[k] = ref.Uint64()
	}
	// Draw k adds vec[607−k] (tap) into vec[334−k mod 607] (feed). For
	// k > 273 the tap was fed by draw k−273; for k ≤ 273 it still holds its
	// seeded word, derived at draw k+334 (the walk runs backwards).
	for k := rngLen; k >= 1; k-- {
		feed := (rngFeed - k + rngLen) % rngLen
		if k > rngTap {
			cooked[feed] = y[k] - y[k-rngTap]
		} else {
			cooked[feed] = y[k] - cooked[rngLen-k]
		}
	}
	for i := range cooked {
		cooked[i] ^= plain.vec[i]
	}
}

// Seed resets the source to rand.NewSource(seed)'s state, in place.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	seed %= seedMod
	if seed < 0 {
		seed += seedMod
	}
	if seed == 0 {
		seed = 89482311
	}
	x := mulMod(seedMul20, uint64(seed))
	for i := range s.vec {
		x1, x2, x3 := mulMod(seedMul, x), mulMod(seedMul2, x), mulMod(seedMul3, x)
		s.vec[i] = x1<<40 ^ x2<<20 ^ x3 ^ cooked[i]
		x = x3
	}
}

// Uint64 returns the next 64-bit value of the stream.
func (s *Source) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += rngLen
	}
	feed := s.tap + rngFeed
	if feed >= rngLen {
		feed -= rngLen
	}
	s.vec[feed] += s.vec[s.tap]
	return s.vec[feed]
}

// Int63 returns the next value with its top bit cleared.
func (s *Source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// State moves the source's state: the tap index and the register. Any
// register is a state the generator can be in, so only the index is checked.
func (s *Source) State(st *snapshot.Stream) error {
	tap := uint16(s.tap)
	if st.U16(&tap); tap >= rngLen {
		return st.Failf("traffic: snapshot RNG tap %d out of [0,%d)", tap, rngLen)
	}
	s.tap = int(tap)
	for i := range s.vec {
		st.U64(&s.vec[i])
	}
	return st.Err()
}
