package sim

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"unsafe"

	"dxbar/internal/stats"
	"dxbar/internal/topology"
	"dxbar/internal/traffic"
)

// saturatedConfig offers mesh uniform-random load 0.9 from a Bernoulli source
// of the given seed: on PassthroughFactory's bufferless deflection routers
// that is far past saturation, so every node's backlog grows all run.
func saturatedConfig(t *testing.T, mesh *topology.Mesh, shards int, seed int64) Config {
	t.Helper()
	pat, err := traffic.New("UR", mesh)
	if err != nil {
		t.Fatal(err)
	}
	bern, err := traffic.NewBernoulli(mesh, pat, 0.9, 1, seed)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Mesh: mesh, Stats: stats.NewCollector(mesh.Nodes(), 0, 10000),
		Source: &SourceAdapter{B: bern}, Shards: shards}
}

// runMallocs returns the heap allocations counted while run runs. It collects garbage first and keeps the collector off until run
// returns, so the runtime's own work after a GC cycle does not land in the
// window. The count is process-wide, so the window also samples every
// allocation in the heap profile, and where lists the stacks that allocated
// in it: a failure names its allocator. An allocation-free window costs the
// sampling nothing.
func runMallocs(run func()) (n uint64, where string) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 0
	base := allocSites()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runtime.MemProfileRate = 1
	run()
	runtime.MemProfileRate = 0
	runtime.ReadMemStats(&after)
	if n = after.Mallocs - before.Mallocs; n == 0 {
		return 0, ""
	}
	var b strings.Builder
	for stack, count := range allocSites() {
		// The sampling period in force during run still covers the first
		// allocation after it, which is this harness's own.
		own := strings.HasPrefix(stack, "\tdxbar/internal/sim.runMallocs ") || strings.HasPrefix(stack, "\tdxbar/internal/sim.allocSites ")
		if count -= base[stack]; count > 0 && !own {
			fmt.Fprintf(&b, "%d allocations at\n%s", count, stack)
		}
	}
	if b.Len() == 0 {
		return n, "(no sampled allocation)\n"
	}
	return n, b.String()
}

// allocSites returns the heap profile's allocation counts by stack, rendered
// one frame a line. The profile is published at the end of a GC cycle and may
// lag by two, hence the three collections.
func allocSites() map[string]int64 {
	for range 3 {
		runtime.GC()
	}
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+16)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			break
		}
	}
	sites := make(map[string]int64, n)
	for _, r := range recs[:n] {
		var b strings.Builder
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			fmt.Fprintf(&b, "\t%s %s:%d\n", f.Function, f.File, f.Line)
			if !more {
				break
			}
		}
		sites[b.String()] += r.AllocObjects
	}
	return sites
}

// A past-saturation run on a Reset engine allocates nothing inside Run: the
// chunks the first run's backlog took stay on the tiles' free lists, and an
// identical second run needs no more of them (nor more flits from the pool).
func TestBacklogReusedEngineRunAllocatesNothing(t *testing.T) {
	const cycles = 3000
	mesh := topology.MustMesh(8, 8)
	e, err := New(saturatedConfig(t, mesh, 0, 3), PassthroughFactory)
	if err != nil {
		t.Fatal(err)
	}
	e.Run(cycles)
	held := e.tiles[0].chunks.held
	if err := e.Reset(saturatedConfig(t, mesh, 0, 3), PassthroughFactory); err != nil {
		t.Fatal(err)
	}
	if n, where := runMallocs(func() { e.Run(cycles) }); n != 0 {
		t.Errorf("the second %d-cycle run on the reset engine allocated %d times, want 0:\n%s", cycles, n, where)
	}
	if got := e.tiles[0].chunks.held; got != held {
		t.Errorf("the tile holds %d spec chunks after the second run, %d after the first", got, held)
	}
	if e.QueuedFlits() < 64*100 {
		t.Fatalf("only %d flits queued after %d cycles: the run is not past saturation", e.QueuedFlits(), cycles)
	}
}

// The spec chunks a tile holds — in its nodes' queues or on its free list —
// after a past-saturation run are the chunks the backlog needs, ⌈queued/32⌉
// per node, plus the slack of the list's granularity: one chunk per node that
// is partly drained (or kept by a drained queue) and the unused rest of the
// last slab. None is lost: the
// queues' chunks and the free list's add up to what the tile carved.
func TestBacklogChunksTrackQueued(t *testing.T) {
	if size := unsafe.Sizeof(queuedSpec{}); size != 24 {
		t.Errorf("a queued spec is %d bytes, want 24", size)
	}
	for _, shards := range []int{0, 2} {
		mesh := topology.MustMesh(8, 8)
		e, err := New(saturatedConfig(t, mesh, shards, 5), PassthroughFactory)
		if err != nil {
			t.Fatal(err)
		}
		e.Run(3000)
		for _, tl := range e.tiles {
			need, used := 0, 0
			for i := range tl.envs {
				q := &tl.envs[i].pendingSpecs
				need += (q.len() + specChunkLen - 1) / specChunkLen
				for c := q.head; c != nil; c = c.next {
					used++
				}
			}
			free := 0
			for c := tl.chunks.free; c != nil; c = c.next {
				free++
			}
			if used+free != tl.chunks.held {
				t.Errorf("shards=%d tile %d: %d chunks in queues and %d free, but %d carved", shards, tl.id, used, free, tl.chunks.held)
			}
			if slack := len(tl.envs) + specChunkSlab; tl.chunks.held > need+slack {
				t.Errorf("shards=%d tile %d holds %d chunks for a backlog needing %d (slack %d)", shards, tl.id, tl.chunks.held, need, slack)
			}
			t.Logf("shards=%d tile %d: %d chunks held, %d in use, %d needed", shards, tl.id, tl.chunks.held, used, need)
		}
	}
}
