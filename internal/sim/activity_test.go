package sim_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"dxbar"
	"dxbar/internal/events"
	"dxbar/internal/faults"
	"dxbar/internal/metrics"
	"dxbar/internal/sim"
	"dxbar/internal/stats"
	"dxbar/internal/topology"
	"dxbar/internal/traffic"
)

// The tests in this file pin the activity-driven router phase (Router.Step's
// quiescent result, Engine.tilePhase) against every real router design. They
// live in the external test package because the designs import sim.

// stoppingSource forwards its inner source until cycle stop, then goes
// silent so the network can drain.
type stoppingSource struct {
	inner sim.Source
	stop  uint64
}

func (s *stoppingSource) Generate(node int, cycle uint64) []*traffic.PacketSpec {
	if cycle >= s.stop {
		return nil
	}
	return s.inner.Generate(node, cycle)
}

// activityNet is one 4×4 network under test with the handles the assertions
// read.
type activityNet struct {
	*dxbar.Network
	rec *events.Recorder
}

// faultManifest is the cycle the fault plans of these tests manifest at —
// mid-run, after routers have had time to fall asleep, so a design that
// slept through a pending fault transition would be caught.
const faultManifest = 150

// newActivityNet builds a sequential 4×4 network of the design at the given
// UR load, injecting until cycle stop, with the flight recorder on. faulty
// gives every router a crossbar fault manifesting at faultManifest (dxbar and
// unified honour it; the other designs ignore fault plans).
func newActivityNet(t *testing.T, d dxbar.Design, load float64, stop uint64, faulty bool) activityNet {
	t.Helper()
	mesh := topology.MustMesh(4, 4)
	pat, err := traffic.New("UR", mesh)
	if err != nil {
		t.Fatal(err)
	}
	bern, err := traffic.NewBernoulli(mesh, pat, load, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	rec := events.NewRecorder(mesh.Nodes(), 256)
	o := dxbar.NetworkOptions{
		Design: d, Mesh: mesh,
		Source: &stoppingSource{inner: &sim.SourceAdapter{B: bern}, stop: stop},
		Stats:  stats.NewCollector(mesh.Nodes(), 0, 1<<40),
		Events: rec,
	}
	if faulty {
		if o.FaultPlan, err = faults.NewPlan(mesh.Nodes(), 1.0, faultManifest, 3); err != nil {
			t.Fatal(err)
		}
	}
	net, err := dxbar.NewNetwork(o)
	if err != nil {
		t.Fatal(err)
	}
	return activityNet{Network: net, rec: rec}
}

// observed is everything a redundant Step must leave untouched.
type observed struct {
	snapshot []byte
	totals   [6]uint64
	recLen   int
	recTotal uint64
}

func observe(t *testing.T, n activityNet) observed {
	t.Helper()
	var buf bytes.Buffer
	if err := n.Engine.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	c := n.Stats
	return observed{
		snapshot: buf.Bytes(),
		totals: [6]uint64{c.Total("totalGenerated"), c.TotalEjected(), c.Total("totalDropped"),
			c.Total("totalDeflected"), c.Total("totalPacketsInjected"), c.Total("totalPacketsDelivered")},
		recLen:   n.rec.Len(),
		recTotal: n.rec.Total(),
	}
}

func (a observed) diff(b observed) string {
	switch {
	case !bytes.Equal(a.snapshot, b.snapshot):
		return "Engine.Snapshot bytes changed"
	case a.totals != b.totals:
		return fmt.Sprintf("collector totals changed: %v -> %v", a.totals, b.totals)
	case a.recLen != b.recLen || a.recTotal != b.recTotal:
		return fmt.Sprintf("flight recorder grew: %d/%d -> %d/%d events", a.recLen, a.recTotal, b.recLen, b.recTotal)
	}
	return ""
}

// stepSleepers calls Step by hand on every sleeping router and fails unless
// nothing observable changed — the promise a quiescent result makes. One
// before/after comparison covers all of the cycle's sleepers (a snapshot per
// router would dominate the test's run time). It returns the number of
// routers it stepped.
func stepSleepers(t *testing.T, n activityNet) int {
	t.Helper()
	before := observe(t, n)
	var stepped []int
	nodes := n.Engine.Mesh().Nodes()
	for i := 0; i < nodes; i++ {
		if n.Engine.Asleep(i) {
			stepped = append(stepped, i)
			n.Engine.Router(i).Step(n.Engine.Cycle())
		}
	}
	if d := before.diff(observe(t, n)); d != "" {
		t.Fatalf("cycle %d: nodes %v reported quiescent, but stepping them again was not a no-op: %s",
			n.Engine.Cycle(), stepped, d)
	}
	return len(stepped)
}

// activityCase is one design, with or without a fault plan (a plan only
// changes dxbar and unified).
type activityCase struct {
	design dxbar.Design
	faulty bool
}

func (tc activityCase) name() string {
	if tc.faulty {
		return string(tc.design) + "_faults"
	}
	return string(tc.design)
}

func activityCases() []activityCase {
	var cases []activityCase
	for _, d := range dxbar.AllDesigns {
		cases = append(cases, activityCase{d, false})
	}
	return append(cases, activityCase{dxbar.DesignDXbar, true}, activityCase{dxbar.DesignUnified, true})
}

// TestQuiescentStepIsNoOp is the contract test of Router.Step's result: in
// every cycle of a low-load run (through a fault manifestation and its
// detection on the fault-tolerant designs) and again after the network has
// drained, a hand-made extra Step on any sleeping router must change neither
// the engine snapshot, the collector nor the flight recorder. A
// design that returned true while holding a flit, or with a fault transition
// still to come, fails here.
func TestQuiescentStepIsNoOp(t *testing.T) {
	for _, tc := range activityCases() {
		t.Run(tc.name(), func(t *testing.T) {
			n := newActivityNet(t, tc.design, 0.05, 300, tc.faulty)
			sleepers := 0
			for c := 0; c < 300; c++ {
				n.Engine.Step()
				if err := n.Engine.CheckSleepInvariant(); err != nil {
					t.Fatal(err)
				}
				sleepers += stepSleepers(t, n)
			}
			// Drain to empty, then every router that can sleep must.
			n.Engine.Run(400)
			drained := stepSleepers(t, n)
			if tc.faulty && tc.design == dxbar.DesignUnified {
				// A dead unified crossbar has no fallback path: the network
				// wedges with flits buffered, and those routers stay awake.
				return
			}
			if out := n.Engine.Pool().Outstanding(); out != 0 {
				t.Fatalf("network did not drain: %d flits outstanding", out)
			}
			nodes := n.Engine.Mesh().Nodes()
			if sleepers == 0 {
				t.Error("no router slept during the loaded phase; the test exercised nothing")
			}
			if drained != nodes {
				t.Errorf("%d of %d routers asleep on a drained network", drained, nodes)
			}
		})
	}
}

// TestActivitySkipMatchesStepAll is the differential oracle: the same run
// with the skip disabled (every router steps every cycle, as the engine did
// before) must produce byte-identical engine snapshots throughout — at a low
// load where most routers sleep and at a load where few do.
func TestActivitySkipMatchesStepAll(t *testing.T) {
	for _, tc := range activityCases() {
		for _, load := range []float64{0.05, 0.3} {
			t.Run(fmt.Sprintf("%s/load%.2f", tc.name(), load), func(t *testing.T) {
				skip := newActivityNet(t, tc.design, load, 500, tc.faulty)
				all := newActivityNet(t, tc.design, load, 500, tc.faulty)
				all.Engine.SetStepAll(true)
				for c := 0; c < 800; c += 50 {
					for i := 0; i < 50; i++ {
						skip.Engine.Step()
						if err := skip.Engine.CheckSleepInvariant(); err != nil {
							t.Fatal(err)
						}
					}
					all.Engine.Run(50)
					if d := observe(t, all).diff(observe(t, skip)); d != "" {
						t.Fatalf("by cycle %d the activity-driven run diverged from step-everything: %s", c+50, d)
					}
				}
				executed, skipped := skip.Engine.RouterSteps()
				if total := uint64(800 * skip.Engine.Mesh().Nodes()); executed+skipped != total {
					t.Errorf("RouterSteps() = %d executed + %d skipped, want them to sum to %d", executed, skipped, total)
				}
				if _, s := all.Engine.RouterSteps(); s != 0 {
					t.Errorf("step-everything engine skipped %d steps", s)
				}
				if skipped == 0 {
					t.Error("nothing was skipped; the comparison exercised nothing")
				}
			})
		}
	}
}

// TestRouterStepTelemetry checks the published activity counters on both
// backends: after the final flush the two series equal Engine.RouterSteps()
// (per-shard counts folded at the barrier in sharded mode) and sum to
// nodes × cycles.
func TestRouterStepTelemetry(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			mesh := topology.MustMesh(4, 4)
			pat, err := traffic.New("UR", mesh)
			if err != nil {
				t.Fatal(err)
			}
			bern, err := traffic.NewBernoulli(mesh, pat, 0.05, 1, 9)
			if err != nil {
				t.Fatal(err)
			}
			reg := metrics.NewRegistry()
			net, err := dxbar.NewNetwork(dxbar.NetworkOptions{
				Design: dxbar.DesignDXbar, Mesh: mesh, Shards: shards,
				Source:    &sim.SourceAdapter{B: bern},
				Stats:     stats.NewCollector(mesh.Nodes(), 0, 1<<40),
				Telemetry: metrics.NewSimTelemetry(reg, metrics.SimTelemetryOptions{Shards: shards}),
			})
			if err != nil {
				t.Fatal(err)
			}
			net.Engine.Run(500)
			net.Engine.FlushTelemetry()
			executed, skipped := net.Engine.RouterSteps()
			if executed+skipped != 500*16 || skipped == 0 {
				t.Fatalf("RouterSteps() = (%d, %d), want a sum of %d with some skipped", executed, skipped, 500*16)
			}
			var sb strings.Builder
			if err := reg.WritePrometheus(&sb); err != nil {
				t.Fatal(err)
			}
			for name, want := range map[string]uint64{
				metrics.MetricRouterSteps:   executed,
				metrics.MetricRouterSkipped: skipped,
			} {
				if line := fmt.Sprintf("%s %d\n", name, want); !strings.Contains(sb.String(), line) {
					t.Errorf("exposition lacks %q", line)
				}
			}
		})
	}
}
