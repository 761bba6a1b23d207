package dxbar

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"dxbar/internal/coherence"
	"dxbar/internal/sim"
	"dxbar/internal/stats"
	"dxbar/internal/topology"
	"dxbar/internal/traffic"
)

// The closed-loop and trace-replay paths end to end. The paper's headline
// results are rows of paperClaims (claims_test.go).

// Trace record/replay drains every packet for every design.
func TestTraceRoundTripAllDesigns(t *testing.T) {
	var buf bytes.Buffer
	if err := RecordSplash(SplashConfig{Benchmark: "Water", Seed: 5}, &buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, d := range Designs {
		res, err := RunTrace(d, "DOR", bytes.NewReader(raw), 0)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		if res.Packets == 0 {
			t.Fatalf("%s delivered nothing", d)
		}
	}
}

// A trace record outside the mesh or outside 1–64 flits is an error naming
// the record, returned at decode: before validation a Dst of 999 on a 4×4
// mesh panicked the replay, and the other three rows ran it to MaxCycles.
func TestRunTraceRejectsBadRecords(t *testing.T) {
	for _, c := range []struct {
		name string
		r    traffic.Record
	}{
		{"dst outside mesh", traffic.Record{Cycle: 3, Src: 1, Dst: 999, NumFlits: 1}},
		{"src outside mesh", traffic.Record{Cycle: 3, Src: 16, Dst: 1, NumFlits: 1}},
		{"zero flits", traffic.Record{Cycle: 3, Src: 1, Dst: 2, NumFlits: 0}},
		{"1000 flits", traffic.Record{Cycle: 3, Src: 1, Dst: 2, NumFlits: 1000}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := traffic.Trace{Width: 4, Height: 4, Records: []traffic.Record{{Cycle: 0, Src: 0, Dst: 5, NumFlits: 1}, c.r}}
			var buf bytes.Buffer
			if err := tr.Write(&buf); err != nil {
				t.Fatal(err)
			}
			_, err := RunTrace(DesignDXbar, "DOR", &buf, 0)
			if err == nil || !strings.Contains(err.Error(), "record 1 ") {
				t.Fatalf("RunTrace = %v, want an error naming record 1", err)
			}
			t.Log(err)
		})
	}
}

// A recording through the recorder's forwarded NextPending is the recording
// per-node polling makes, byte for byte, and a replay through the player's
// NextPending ends where a polled replay ends.
func TestTraceForwardedMatchesPolled(t *testing.T) {
	record := func(hide bool) []byte {
		mesh := topology.MustMesh(8, 8)
		prof, _ := coherence.ProfileByName("LU")
		sys, err := coherence.NewSystem(mesh, prof, 42)
		if err != nil {
			t.Fatal(err)
		}
		rec := &traffic.Recorder{Inner: sys, Trace: traffic.Trace{Width: 8, Height: 8}}
		if hide {
			rec.Inner = struct{ sim.Source }{sys}
		}
		net, err := NewNetwork(NetworkOptions{Design: DesignDXbar, Mesh: mesh, Source: rec, Sink: sys, PreCycle: sys.PreCycle,
			Stats: stats.NewCollector(mesh.Nodes(), 0, 1<<40)})
		if err != nil {
			t.Fatal(err)
		}
		if !net.Engine.RunUntil(sys.Quiesced, 3_000_000) {
			t.Fatal("LU did not finish")
		}
		var buf bytes.Buffer
		if err := rec.Trace.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	raw := record(false)
	if !bytes.Equal(raw, record(true)) {
		t.Fatal("the forwarded recording differs from the polled one")
	}
	replay := func(hide bool) (uint64, stats.Results) {
		tr, err := traffic.ReadTrace(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		mesh, player := topology.MustMesh(tr.Width, tr.Height), traffic.NewPlayer(tr)
		var src sim.Source = player
		if hide {
			src = struct{ sim.Source }{player}
		}
		net, err := NewNetwork(NetworkOptions{Design: DesignBuffered4, Mesh: mesh, Source: src, Stats: stats.NewCollector(mesh.Nodes(), 0, 1<<40)})
		if err != nil {
			t.Fatal(err)
		}
		done := func() bool {
			return player.Remaining() == 0 && net.Engine.QueuedFlits() == 0 && net.Engine.Pool().Outstanding() == 0
		}
		if !net.Engine.RunUntil(done, 3_000_000) {
			t.Fatal("replay did not drain")
		}
		return net.Engine.Cycle(), net.Stats.Results()
	}
	cycles, res := replay(false)
	if polledCycles, polledRes := replay(true); cycles != polledCycles || !reflect.DeepEqual(res, polledRes) {
		t.Errorf("replay through NextPending ended at cycle %d with %+v, polled at cycle %d with %+v", cycles, res, polledCycles, polledRes)
	}
	if res.Packets != 4646 {
		t.Errorf("replayed %d packets, want LU's 4646", res.Packets)
	}
}

// RunSplash must be deterministic.
func TestSplashDeterministic(t *testing.T) {
	cfg := SplashConfig{Design: DesignDXbar, Benchmark: "Water", Seed: 3}
	a, err := RunSplash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSplash(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("splash run diverged:\n%+v\n%+v", a, b)
	}
}

// All nine benchmarks complete on the DXbar design.
func TestAllSplashBenchmarksComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop matrix is slow")
	}
	for _, bench := range SplashBenchmarks() {
		res, err := RunSplash(SplashConfig{Design: DesignDXbar, Benchmark: bench, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", bench, err)
		}
		if res.ExecutionCycles == 0 || res.Packets == 0 {
			t.Errorf("%s produced empty results", bench)
		}
	}
}
