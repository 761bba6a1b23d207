package traffic

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"

	"dxbar/internal/snapshot"
)

// sourceDraws covers the register twice over: every word has been both tap
// and feed before the comparison ends.
const sourceDraws = 2*rngLen + 100

// TestSourceMatchesStdlib holds Source to rand.NewSource draw for draw, over
// the seeds where the library's reduction has edges (0 and the multiples of
// 2³¹−1 map to its fixed seed, negatives wrap, the int64 extremes) and a
// thousand random ones.
func TestSourceMatchesStdlib(t *testing.T) {
	seeds := []int64{0, 1, -1, seedMod, -seedMod, 2 * seedMod, 7 * seedMod, seedMod - 1, seedMod + 1,
		89482311, math.MinInt64, math.MaxInt64}
	rng := rand.New(rand.NewSource(20120521))
	for i := 0; i < 1000; i++ {
		seeds = append(seeds, int64(rng.Uint64()))
	}
	var src Source
	for _, seed := range seeds {
		ref := rand.NewSource(seed).(rand.Source64)
		src.Seed(seed)
		for k := 0; k < sourceDraws; k++ {
			if k%3 == 2 {
				if got, want := src.Int63(), ref.Int63(); got != want {
					t.Fatalf("seed %d: Int63 draw %d = %#x, stdlib %#x", seed, k, got, want)
				}
			} else if got, want := src.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d: Uint64 draw %d = %#x, stdlib %#x", seed, k, got, want)
			}
		}
	}
}

// TestSourceCopyResumes forks a source mid-stream by struct copy and through
// its snapshot codec: both forks go on with the original's stream, and
// consumers through rand.Rand see the same values.
func TestSourceCopyResumes(t *testing.T) {
	var a Source
	a.Seed(42)
	ra := rand.New(&a)
	for i := 0; i < 1000; i++ {
		ra.Float64()
		ra.Intn(63)
	}
	b := a
	rb := rand.New(&b)

	var c Source
	var w bytes.Buffer
	ws := snapshot.NewWriter(&w)
	if err := a.State(ws); err != nil {
		t.Fatal(err)
	}
	if err := ws.Close(); err != nil {
		t.Fatal(err)
	}
	rs, err := snapshot.NewReader(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.State(rs); err != nil {
		t.Fatal(err)
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	rc := rand.New(&c)
	for i := 0; i < 3*rngLen; i++ {
		x, y, z := ra.Float64(), rb.Float64(), rc.Float64()
		if x != y || x != z {
			t.Fatalf("draw %d: original %v, copy %v, restored %v", i, x, y, z)
		}
		if x, y, z := ra.Intn(1000), rb.Intn(1000), rc.Intn(1000); x != y || x != z {
			t.Fatalf("draw %d: original %d, copy %d, restored %d", i, x, y, z)
		}
	}
}

// raceEnabled reports a build with the race detector (race_test.go).
var raceEnabled bool

// TestSourceSeedFaster holds in-place seeding to at least three times the
// speed of rand.NewSource, on the better of five timed batches each, the two
// sides alternating so that a change in the machine's load hits both.
func TestSourceSeedFaster(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timing")
	}
	const batch = 2000
	var src Source
	var sink uint64
	timed := func(f func(seed int64)) time.Duration {
		start := time.Now()
		for i := 0; i < batch; i++ {
			f(int64(i))
		}
		return time.Since(start)
	}
	lib, own := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for r := 0; r < 5; r++ {
		lib = min(lib, timed(func(seed int64) { sink += rand.NewSource(seed).(rand.Source64).Uint64() }))
		own = min(own, timed(func(seed int64) { src.Seed(seed); sink += src.Uint64() }))
	}
	t.Logf("per seed: rand.NewSource %v, Source.Seed %v (%.1f×)", lib/batch, own/batch, float64(lib)/float64(own))
	if own*3 > lib {
		t.Errorf("Source.Seed takes %v per seed, rand.NewSource %v: want at least 3× faster", own/batch, lib/batch)
	}
	_ = sink
}
