package dxbar

import (
	"bytes"
	"encoding/json"
	"testing"

	"dxbar/internal/events"
	"dxbar/internal/stats"
	"dxbar/internal/topology"
	"dxbar/internal/traffic"
)

// tracedNetwork is steadyNetwork with a flight recorder attached: every
// kind enabled, and a ring small enough to wrap during the test so the
// overwrite path is exercised too.
func tracedNetwork(t *testing.T, design Design, load float64) (*Network, *events.Recorder) {
	t.Helper()
	mesh := topology.MustMesh(8, 8)
	coll := stats.NewCollector(mesh.Nodes(), 0, 1<<40)
	rec := events.NewRecorder(mesh.Nodes(), 4096)
	net, err := NewNetwork(NetworkOptions{
		Design: design,
		Mesh:   mesh,
		Source: bernoulliSource(t, mesh, "UR", load, 1, 42),
		Stats:  coll,
		Events: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net, rec
}

// TestStepZeroAllocTraced extends the steady-state zero-allocation guard to
// runs with the flight recorder ENABLED: recording into the (wrapping) ring
// must not allocate either, for every design.
func TestStepZeroAllocTraced(t *testing.T) {
	for _, d := range AllDesigns {
		t.Run(string(d), func(t *testing.T) {
			net, rec := tracedNetwork(t, d, steadyLoad(d))
			net.Engine.Run(3000)
			if rec.Overwritten() == 0 {
				t.Fatalf("%s: ring did not wrap after warmup; the test must cover the overwrite path", d)
			}
			avg := testing.AllocsPerRun(5, func() { net.Engine.Run(200) })
			if avg != 0 {
				t.Errorf("%s: %.2f allocations per 200-cycle traced run in steady state, want 0", d, avg)
			}
			if rec.Total() == 0 {
				t.Errorf("%s: recorder saw no events", d)
			}
		})
	}
}

// onePacketSource injects a single one-flit packet at a fixed node/cycle.
type onePacketSource struct {
	spec traffic.PacketSpec
	done bool
}

func (s *onePacketSource) Generate(node int, cycle uint64) []*traffic.PacketSpec {
	if s.done || node != s.spec.Src || cycle != s.spec.Cycle {
		return nil
	}
	s.done = true
	return []*traffic.PacketSpec{&s.spec}
}

// TestPacketPathThreeHops reconstructs a hand-built scenario: one packet,
// alone in a 2×2 DXbar mesh, from node 0 to node 3. Under DOR it must be
// injected at 0, win the primary crossbar at 1 (going south) and at 3
// (ejecting), and be delivered at 3 — two cycles per hop, nothing buffered.
func TestPacketPathThreeHops(t *testing.T) {
	mesh := topology.MustMesh(2, 2)
	coll := stats.NewCollector(mesh.Nodes(), 0, 1000)
	rec := events.NewRecorder(mesh.Nodes(), 256)
	net, err := NewNetwork(NetworkOptions{
		Design: DesignDXbar,
		Mesh:   mesh,
		Source: &onePacketSource{spec: traffic.PacketSpec{ID: 1, Src: 0, Dst: 3, NumFlits: 1, Cycle: 0}},
		Stats:  coll,
		Events: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Engine.Run(50)

	path := rec.PacketPath(1)
	if len(path) != 4 {
		t.Fatalf("path has %d events, want 4: %v", len(path), path)
	}
	wantKinds := []events.Kind{events.Inject, events.PrimaryWin, events.PrimaryWin, events.Eject}
	wantNodes := []int32{0, 1, 3, 3}
	for i, e := range path {
		if e.Kind != wantKinds[i] || e.Node != wantNodes[i] {
			t.Errorf("hop %d = %s@%d, want %s@%d", i, e.Kind, e.Node, wantKinds[i], wantNodes[i])
		}
	}
	// Uncontended pipeline: ST at injection, LT to the neighbour, so each
	// router is two cycles after the previous.
	for i := 1; i < 3; i++ {
		if path[i].Cycle != path[i-1].Cycle+2 {
			t.Errorf("hop %d at cycle %d, want %d (2 cycles/hop)", i, path[i].Cycle, path[i-1].Cycle+2)
		}
	}
	// The ejection's Detail is the end-to-end latency.
	eject := path[3]
	if eject.Cycle != path[2].Cycle || uint64(eject.Detail) != eject.Cycle {
		t.Errorf("eject at cycle %d with latency %d, want same-cycle ejection with latency = cycle (injected at 0)",
			eject.Cycle, eject.Detail)
	}
	// Nothing contended, so nothing was buffered.
	if n := rec.Matrix().KindTotal(events.Buffered); n != 0 {
		t.Errorf("%d buffering events for a lone packet, want 0", n)
	}
}

// TestEventKindsMask: Config.EventKinds filters at record time — a SCARAB
// run traced for drops only must yield a ring of nothing but Drop events.
func TestEventKindsMask(t *testing.T) {
	res := run(t, Config{
		Design: DesignSCARAB, Pattern: "UR", Load: 0.3, Seed: 7,
		WarmupCycles: 200, MeasureCycles: 1000,
		EventTrace: 1 << 14, EventKinds: []string{"drop"},
	})
	if len(res.Events) == 0 {
		t.Fatal("no drop events recorded at a saturating SCARAB load")
	}
	for _, e := range res.Events {
		if e.Kind != events.Drop {
			t.Fatalf("masked-out kind %s reached the ring", e.Kind)
		}
	}
	if res.RouterEvents.KindTotal(events.Inject) != 0 {
		t.Error("matrix counted a masked-out kind")
	}

	if _, err := Run(Config{
		Design: DesignSCARAB, Pattern: "UR", Load: 0.1,
		WarmupCycles: 10, MeasureCycles: 10,
		EventTrace: 16, EventKinds: []string{"bogus"},
	}); err == nil {
		t.Error("Run accepted an unknown event kind")
	}
}

// TestFairnessFlipsSurfaced: at a load where DXbar's buffers are busy the
// fairness counter flips and both the stats counter and the event matrix
// see it (satellite #1).
func TestFairnessFlipsSurfaced(t *testing.T) {
	res := run(t, Config{
		Design: DesignDXbar, Pattern: "UR", Load: 0.45, Seed: 7,
		WarmupCycles: 500, MeasureCycles: 2000,
		EventTrace: 1 << 12, EventKinds: []string{"fairness_flip"},
	})
	if res.FairnessFlips == 0 {
		t.Error("no fairness flips surfaced at a load past DXbar's buffering point")
	}
	if res.RouterEvents.KindTotal(events.FairnessFlip) == 0 {
		t.Error("event matrix saw no fairness flips")
	}
}

// TestDroppedByNodeSum: the per-node drop counters partition the window
// total (satellite #3), and the drop heatmap renders.
func TestDroppedByNodeSum(t *testing.T) {
	res := run(t, Config{
		Design: DesignSCARAB, Pattern: "UR", Load: 0.3, Seed: 7,
		WarmupCycles: 200, MeasureCycles: 1000,
	})
	if res.DroppedFlits == 0 {
		t.Fatal("no drops at a saturating SCARAB load")
	}
	var sum uint64
	for _, n := range res.DroppedByNode {
		sum += n
	}
	if sum != res.DroppedFlits {
		t.Errorf("sum(DroppedByNode) = %d, want DroppedFlits = %d", sum, res.DroppedFlits)
	}
	if hm := DropHeatmap(res); hm == "(no flits were dropped)" || len(hm) == 0 {
		t.Errorf("drop heatmap missing: %q", hm)
	}
}

// TestChromeTraceFromRun: a traced run exports valid Chrome trace JSON with
// the required fields on every event.
func TestChromeTraceFromRun(t *testing.T) {
	res := run(t, Config{
		Design: DesignDXbar, Pattern: "UR", Load: 0.3, Seed: 7,
		Width: 4, Height: 4,
		WarmupCycles: 100, MeasureCycles: 400,
		EventTrace: 1 << 12,
	})
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, TraceRecordFor("dxbar test", res)); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < 100 {
		t.Fatalf("only %d trace events from a traced run", len(doc.TraceEvents))
	}
	for i, ev := range doc.TraceEvents {
		for _, field := range []string{"ph", "ts", "pid"} {
			if _, ok := ev[field]; !ok {
				t.Fatalf("event %d missing required field %q: %v", i, field, ev)
			}
		}
	}
	if hm := EventHeatmap(res, events.Buffered); hm == "(event tracing was not enabled)" {
		t.Error("event heatmap unavailable on a traced run")
	}
}
