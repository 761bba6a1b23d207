package dxbar

import (
	"bytes"
	"reflect"
	"testing"

	"dxbar/internal/coherence"
	"dxbar/internal/sim"
	"dxbar/internal/stats"
	"dxbar/internal/topology"
	"dxbar/internal/trace"
)

// These tests guard the paper's headline qualitative results — the "shape"
// of the evaluation — with quick simulations. They are regression tests for
// the reproduction itself: if a refactor flips who wins, they fail.

func quick45(t *testing.T, d Design, routing string) Result {
	t.Helper()
	res := run(t, Config{Design: d, Routing: routing, Pattern: "UR", Load: 0.45,
		WarmupCycles: 1000, MeasureCycles: 4000, Seed: 42})
	return res
}

// §III.C / Fig. 5: DXbar-DOR saturates above every other design; past
// saturation the ordering is DXbar > Buffered8 > Buffered4 > bufferless.
func TestHeadlineThroughputOrdering(t *testing.T) {
	dx := quick45(t, DesignDXbar, "DOR")
	b8 := quick45(t, DesignBuffered8, "DOR")
	b4 := quick45(t, DesignBuffered4, "DOR")
	fb := quick45(t, DesignFlitBless, "DOR")
	sc := quick45(t, DesignSCARAB, "DOR")

	if !(dx.AcceptedLoad > b8.AcceptedLoad) {
		t.Errorf("DXbar (%.3f) must beat Buffered8 (%.3f)", dx.AcceptedLoad, b8.AcceptedLoad)
	}
	if !(b8.AcceptedLoad > b4.AcceptedLoad) {
		t.Errorf("Buffered8 (%.3f) must beat Buffered4 (%.3f)", b8.AcceptedLoad, b4.AcceptedLoad)
	}
	if !(b4.AcceptedLoad > fb.AcceptedLoad) || !(b4.AcceptedLoad > sc.AcceptedLoad) {
		t.Errorf("Buffered4 (%.3f) must beat the bufferless designs (%.3f, %.3f)",
			b4.AcceptedLoad, fb.AcceptedLoad, sc.AcceptedLoad)
	}
	// Paper: DXbar-DOR saturation above 0.4 of capacity; bufferless below 0.3.
	if dx.AcceptedLoad < 0.38 {
		t.Errorf("DXbar saturation %.3f fell below ~0.4", dx.AcceptedLoad)
	}
	if fb.AcceptedLoad > 0.31 || sc.AcceptedLoad > 0.31 {
		t.Errorf("bufferless saturation must stay below ~0.3 (got %.3f / %.3f)",
			fb.AcceptedLoad, sc.AcceptedLoad)
	}
	// Paper: at least 40% improvement over Buffered4 and the bufferless
	// designs (we accept >=20% for Buffered4, >=40% for bufferless).
	if dx.AcceptedLoad < 1.2*b4.AcceptedLoad {
		t.Errorf("DXbar (%.3f) should exceed Buffered4 (%.3f) by >=20%%", dx.AcceptedLoad, b4.AcceptedLoad)
	}
	if dx.AcceptedLoad < 1.4*fb.AcceptedLoad {
		t.Errorf("DXbar (%.3f) should exceed Flit-Bless (%.3f) by >=40%%", dx.AcceptedLoad, fb.AcceptedLoad)
	}
}

// Fig. 6 shape: at high load the bufferless designs burn multiples of
// DXbar's energy; the buffered baselines sit in between; DXbar is lowest.
func TestHeadlineEnergyOrdering(t *testing.T) {
	dx := quick45(t, DesignDXbar, "DOR")
	b4 := quick45(t, DesignBuffered4, "DOR")
	b8 := quick45(t, DesignBuffered8, "DOR")
	fb := quick45(t, DesignFlitBless, "DOR")
	sc := quick45(t, DesignSCARAB, "DOR")

	if !(dx.AvgEnergyNJ < b4.AvgEnergyNJ && dx.AvgEnergyNJ < b8.AvgEnergyNJ) {
		t.Errorf("DXbar energy (%.3f) must undercut the buffered baselines (%.3f, %.3f)",
			dx.AvgEnergyNJ, b4.AvgEnergyNJ, b8.AvgEnergyNJ)
	}
	if !(fb.AvgEnergyNJ > 1.5*dx.AvgEnergyNJ) {
		t.Errorf("Flit-Bless energy (%.3f) must blow past DXbar (%.3f) beyond saturation",
			fb.AvgEnergyNJ, dx.AvgEnergyNJ)
	}
	if !(sc.AvgEnergyNJ > dx.AvgEnergyNJ) {
		t.Errorf("SCARAB energy (%.3f) must exceed DXbar (%.3f)", sc.AvgEnergyNJ, dx.AvgEnergyNJ)
	}
	// Paper: at least 15% power saving over the baseline.
	if dx.AvgEnergyNJ > 0.85*b4.AvgEnergyNJ {
		t.Errorf("DXbar (%.3f) should save >=15%% energy vs Buffered4 (%.3f)",
			dx.AvgEnergyNJ, b4.AvgEnergyNJ)
	}
}

// At low load the bufferless designs and DXbar consume the same energy
// ("Flit-Bless and SCARAB use as little energy as DXbar does at zero load").
func TestZeroLoadEnergyParity(t *testing.T) {
	get := func(d Design) float64 {
		res := run(t, Config{Design: d, Pattern: "UR", Load: 0.05,
			WarmupCycles: 500, MeasureCycles: 2000, Seed: 42})
		return res.AvgEnergyNJ
	}
	dx, fb := get(DesignDXbar), get(DesignFlitBless)
	if fb < 0.95*dx || fb > 1.1*dx {
		t.Errorf("low-load energy should match: DXbar %.4f vs Flit-Bless %.4f", dx, fb)
	}
}

// §II.B: the unified crossbar performs like the dual crossbar.
func TestUnifiedMatchesDual(t *testing.T) {
	dx := quick45(t, DesignDXbar, "DOR")
	un := quick45(t, DesignUnified, "DOR")
	if un.AcceptedLoad < 0.95*dx.AcceptedLoad {
		t.Errorf("unified throughput (%.3f) must track dual (%.3f) within ~5%%",
			un.AcceptedLoad, dx.AcceptedLoad)
	}
	// Unified pays +2 pJ/flit switching energy.
	if un.AvgEnergyNJ <= dx.AvgEnergyNJ {
		t.Errorf("unified energy (%.4f) must slightly exceed dual (%.4f)",
			un.AvgEnergyNJ, dx.AvgEnergyNJ)
	}
}

// §III.E / Fig. 11: with DOR routing, throughput degrades <10% even at 100%
// faults; WF degrades more than DOR.
func TestHeadlineFaultDegradation(t *testing.T) {
	run := func(algo string, faults float64) Result {
		res := run(t, Config{Design: DesignDXbar, Routing: algo, Pattern: "UR",
			Load: 0.35, WarmupCycles: 1000, MeasureCycles: 4000, Seed: 42,
			FaultFraction: faults, FaultCycle: 10})
		return res
	}
	dor0, dor100 := run("DOR", 0), run("DOR", 1.0)
	wf0, wf100 := run("WF", 0), run("WF", 1.0)

	dorLoss := 1 - dor100.AcceptedLoad/dor0.AcceptedLoad
	wfLoss := 1 - wf100.AcceptedLoad/wf0.AcceptedLoad
	if dorLoss > 0.10 {
		t.Errorf("DOR throughput loss at 100%% faults = %.1f%%, paper says <10%%", dorLoss*100)
	}
	if wfLoss < dorLoss {
		t.Errorf("WF must degrade at least as much as DOR (WF %.1f%% vs DOR %.1f%%)",
			wfLoss*100, dorLoss*100)
	}
	// Power rises with faults (more flits buffered).
	if dor100.AvgEnergyNJ <= dor0.AvgEnergyNJ {
		t.Error("energy must rise with faults (buffered power)")
	}
}

// Fig. 9/10 shape on the most network-intensive benchmark: DXbar finishes
// Ocean faster and cheaper than Flit-Bless and the buffered baseline.
func TestHeadlineSplashOcean(t *testing.T) {
	get := func(d Design) SplashResult {
		res, err := RunSplash(SplashConfig{Design: d, Benchmark: "Ocean", Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dx, fb, b4 := get(DesignDXbar), get(DesignFlitBless), get(DesignBuffered4)
	if dx.ExecutionCycles >= fb.ExecutionCycles {
		t.Errorf("DXbar Ocean (%d cycles) must beat Flit-Bless (%d)",
			dx.ExecutionCycles, fb.ExecutionCycles)
	}
	if dx.ExecutionCycles >= b4.ExecutionCycles {
		t.Errorf("DXbar Ocean (%d cycles) must beat Buffered4 (%d)",
			dx.ExecutionCycles, b4.ExecutionCycles)
	}
	if dx.AvgEnergyNJ >= fb.AvgEnergyNJ || dx.AvgEnergyNJ >= b4.AvgEnergyNJ {
		t.Errorf("DXbar Ocean energy (%.3f) must undercut Flit-Bless (%.3f) and Buffered4 (%.3f)",
			dx.AvgEnergyNJ, fb.AvgEnergyNJ, b4.AvgEnergyNJ)
	}
}

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
		rec := &trace.Recorder{Inner: sys, Trace: trace.Trace{Width: 8, Height: 8}}
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
		tr, err := trace.Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		mesh, player := topology.MustMesh(tr.Width, tr.Height), trace.NewPlayer(tr)
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

// Crosspoint-granularity faults degrade far more gently than whole-crossbar
// failures: a single broken crosspoint removes one of 20/25 paths, and the
// 2x2 steering reroutes around it after detection.
func TestCrosspointFaultsGentlerThanCrossbarFaults(t *testing.T) {
	run := func(gran string) Result {
		res := run(t, Config{Design: DesignDXbar, Pattern: "UR", Load: 0.35,
			WarmupCycles: 1000, MeasureCycles: 4000, Seed: 42,
			FaultFraction: 1.0, FaultCycle: 10, FaultGranularity: gran})
		return res
	}
	healthy := quick45(t, DesignDXbar, "DOR")
	xp := run("crosspoint")
	xb := run("crossbar")
	if xp.AcceptedLoad < xb.AcceptedLoad {
		t.Errorf("crosspoint faults (%.3f) must hurt less than whole-crossbar faults (%.3f)",
			xp.AcceptedLoad, xb.AcceptedLoad)
	}
	if xp.AvgLatency > 3*healthy.AvgLatency {
		t.Errorf("single-crosspoint faults should barely dent latency (%.1f vs healthy %.1f)",
			xp.AvgLatency, healthy.AvgLatency)
	}
	if _, err := Run(Config{Design: DesignDXbar, Load: 0.1, FaultFraction: 0.5,
		FaultGranularity: "bogus", WarmupCycles: 10, MeasureCycles: 10}); err == nil {
		t.Error("unknown granularity must error")
	}
}

// Detailed-cache mode runs end to end through the facade and preserves the
// headline ordering on the hot benchmark.
func TestDetailedCachesThroughFacade(t *testing.T) {
	get := func(d Design) SplashResult {
		res, err := RunSplash(SplashConfig{Design: d, Benchmark: "Ocean", Seed: 11, DetailedCaches: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	dx, fb := get(DesignDXbar), get(DesignFlitBless)
	if dx.Packets == 0 || fb.Packets == 0 {
		t.Fatal("detailed mode delivered nothing")
	}
	if dx.AvgEnergyNJ >= fb.AvgEnergyNJ {
		t.Errorf("DXbar energy (%.3f) must undercut Flit-Bless (%.3f) in detailed mode too",
			dx.AvgEnergyNJ, fb.AvgEnergyNJ)
	}
}
