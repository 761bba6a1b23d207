package sim

import (
	"strings"
	"testing"

	"dxbar/internal/flit"
	"dxbar/internal/metrics"
	"dxbar/internal/stats"
	"dxbar/internal/topology"
	"dxbar/internal/traffic"
)

func telemetryEngine(t *testing.T, shards int, tel *metrics.SimTelemetry) (*Engine, *stats.Collector) {
	t.Helper()
	mesh := topology.MustMesh(4, 4)
	coll := stats.NewCollector(mesh.Nodes(), 0, 10000)
	src := &SourceAdapter{B: testBernoulli(t, mesh)}
	eng, err := New(Config{
		Mesh: mesh, Stats: coll,
		Source: src, Telemetry: tel, Shards: shards,
	}, func(env *Env) Router { return &passthroughXY{env: env} })
	if err != nil {
		t.Fatal(err)
	}
	return eng, coll
}

// testBernoulli builds a low-load uniform-random Bernoulli source.
func testBernoulli(t *testing.T, mesh *topology.Mesh) *traffic.Bernoulli {
	t.Helper()
	pat, err := traffic.New("UR", mesh)
	if err != nil {
		t.Fatal(err)
	}
	bern, err := traffic.NewBernoulli(mesh, pat, 0.05, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	return bern
}

// passthroughXY is a minimal bufferless deflection router: XY-preferred,
// any free port otherwise. It exists so telemetry tests can run real
// multi-hop traffic between arbitrary node pairs without the full router
// designs (which live above this package).
type passthroughXY struct{ env *Env }

func (r *passthroughXY) Step(cycle uint64) bool {
	env := r.env
	for p := flit.North; p <= flit.West; p++ {
		f := env.In[p]
		if f == nil {
			continue
		}
		env.In[p] = nil
		r.forward(f)
	}
	if f := env.InjectionHead(); f != nil {
		out := r.route(f)
		if out != flit.Local && env.CanSend(out) {
			env.ConsumeInjection(cycle)
			env.Send(out, f)
		}
	}
	return false
}

func (r *passthroughXY) forward(f *flit.Flit) {
	env := r.env
	out := r.route(f)
	if env.CanSend(out) {
		env.Send(out, f)
		return
	}
	// Deflect: a bufferless mesh router has at least as many free cardinal
	// outputs as cardinal inputs, so some port always accepts.
	for p := flit.North; p <= flit.West; p++ {
		if env.CanSend(p) {
			env.Send(p, f)
			return
		}
	}
	panic("telemetry test router out of capacity")
}

func (r *passthroughXY) route(f *flit.Flit) flit.Port {
	m := r.env.Mesh()
	x, y := m.XY(r.env.Node)
	dx, dy := m.XY(int(f.Dst))
	switch {
	case dx > x:
		return flit.East
	case dx < x:
		return flit.West
	case dy > y:
		return flit.South
	case dy < y:
		return flit.North
	}
	return flit.Local
}

func TestTelemetryPublishesCounters(t *testing.T) {
	reg := metrics.NewRegistry()
	tel := metrics.NewSimTelemetry(reg, metrics.SimTelemetryOptions{
		LatencyBounds: stats.LatencyBucketUppers(),
	})
	eng, coll := telemetryEngine(t, 1, tel)
	// Counters publish once per interval (every row's source resolves on a
	// real engine, or the first publish panics) and exactly on the flush.
	eng.Run(100)
	if got, _ := reg.Value(metrics.MetricCycles); got != metrics.DefaultPublishInterval {
		t.Errorf("cycles counter = %v after 100 cycles, want %d (the last publish)", got, metrics.DefaultPublishInterval)
	}
	eng.Run(100)
	eng.FlushTelemetry()
	for name, want := range map[string]uint64{
		metrics.MetricInjectedFlits: coll.Total("totalGenerated"), metrics.MetricEjectedFlits: coll.TotalEjected(),
		metrics.MetricPacketsIn: coll.Total("totalPacketsInjected"), metrics.MetricPacketsOut: coll.Total("totalPacketsDelivered"),
	} {
		if got, _ := reg.Value(name); got != float64(want) {
			t.Errorf("%s = %v after the flush, want the run's total %d", name, got, want)
		}
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, metrics.MetricCycles+" 200") {
		t.Errorf("cycles counter missing or wrong:\n%s", out)
	}
	// The test router never reports quiescent: 16 nodes step all 200 cycles.
	if !strings.Contains(out, metrics.MetricRouterSteps+" 3200") || !strings.Contains(out, metrics.MetricRouterSkipped+" 0") {
		t.Errorf("router-step counters missing or wrong:\n%s", out)
	}
	if coll.Total("totalGenerated") == 0 {
		t.Fatal("test produced no traffic; telemetry assertions vacuous")
	}
	for _, name := range []string{
		metrics.MetricInjectedFlits, metrics.MetricEjectedFlits,
		metrics.MetricPacketsIn, metrics.MetricPacketsOut,
		metrics.MetricCyclesPerSec, metrics.MetricLatency + "_count",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("exposition missing %s", name)
		}
	}
}

func TestTelemetryShardProfile(t *testing.T) {
	reg := metrics.NewRegistry()
	tel := metrics.NewSimTelemetry(reg, metrics.SimTelemetryOptions{Shards: 2})
	eng, _ := telemetryEngine(t, 2, tel)
	if eng.Shards() != 2 {
		t.Fatalf("shards = %d, want 2", eng.Shards())
	}
	eng.Run(100)
	eng.FlushTelemetry()

	profs := eng.ShardProfiles()
	if len(profs) != 2 {
		t.Fatalf("ShardProfiles len = %d, want 2", len(profs))
	}
	var totalNodes int
	for _, p := range profs {
		if p.RouterPhase <= 0 {
			t.Errorf("shard %d RouterPhase = %v, want > 0", p.Shard, p.RouterPhase)
		}
		totalNodes += p.Nodes
	}
	if totalNodes != 16 {
		t.Errorf("profile nodes sum = %d, want 16", totalNodes)
	}

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		metrics.MetricShardBusy + `{shard="0"}`,
		metrics.MetricShardWait + `{shard="1"}`,
		metrics.MetricShardImbalance,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %s:\n%s", want, out)
		}
	}
}

func TestSeqEngineHasNoShardProfile(t *testing.T) {
	eng, _ := telemetryEngine(t, 1, nil)
	eng.Run(10)
	if profs := eng.ShardProfiles(); profs != nil {
		t.Fatalf("sequential engine ShardProfiles = %v, want nil", profs)
	}
	eng.FlushTelemetry() // nil telemetry must be a no-op, not a panic
}

func TestTelemetrySurvivesReset(t *testing.T) {
	mesh := topology.MustMesh(4, 4)
	factory := func(env *Env) Router { return &passthroughXY{env: env} }
	newCfg := func() Config {
		return Config{
			Mesh:   mesh,
			Stats:  stats.NewCollector(mesh.Nodes(), 0, 10000),
			Source: &SourceAdapter{B: testBernoulli(t, mesh)},
			Telemetry: metrics.NewSimTelemetry(metrics.NewRegistry(),
				metrics.SimTelemetryOptions{Shards: 2}),
			Shards: 2,
		}
	}
	eng, err := New(newCfg(), factory)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(100)
	before := eng.ShardProfiles()
	if before[0].RouterPhase <= 0 {
		t.Fatal("no busy time accumulated before reset")
	}
	if err := eng.Reset(newCfg(), factory); err != nil {
		t.Fatal(err)
	}
	after := eng.ShardProfiles()
	for _, p := range after {
		if p.RouterPhase != 0 || p.BarrierWait != 0 {
			t.Fatalf("profile not zeroed by Reset: %+v", p)
		}
	}
}
