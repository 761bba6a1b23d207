package dxbar

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"

	"dxbar/internal/energy"
	"dxbar/internal/topology"
)

// run is a test helper for short simulations.
func run(t *testing.T, cfg Config) Result {
	t.Helper()
	if cfg.WarmupCycles == 0 {
		cfg.WarmupCycles = 500
	}
	if cfg.MeasureCycles == 0 {
		cfg.MeasureCycles = 2000
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run(%+v): %v", cfg, err)
	}
	return res
}

// Every design must deliver essentially all traffic at low load, with
// latency near the zero-load bound.
func TestAllDesignsDeliverAtLowLoad(t *testing.T) {
	for _, d := range Designs {
		for _, algo := range []string{"DOR", "WF"} {
			t.Run(string(d)+"/"+algo, func(t *testing.T) {
				res := run(t, Config{Design: d, Routing: algo, Pattern: "UR", Load: 0.05, Seed: 1})
				if res.Packets == 0 {
					t.Fatal("no packets delivered")
				}
				// Accepted must track offered closely at 5% load.
				if res.AcceptedLoad < res.OfferedLoad*0.95 {
					t.Errorf("accepted %.4f << offered %.4f", res.AcceptedLoad, res.OfferedLoad)
				}
				if res.AvgLatency <= 0 {
					t.Error("zero latency is impossible")
				}
				// Zero-load latency sanity: avg ~2 cycles/hop for the
				// 2-stage designs, ~3 for the baseline, avg distance ~5.3.
				if res.AvgLatency > 40 {
					t.Errorf("low-load latency %.1f looks congested", res.AvgLatency)
				}
				if res.AvgEnergyNJ <= 0 {
					t.Error("energy per packet must be positive")
				}
			})
		}
	}
}

// The 2-stage designs must beat the 3-stage baseline on zero-load latency.
func TestPipelineLatencyOrdering(t *testing.T) {
	dx := run(t, Config{Design: DesignDXbar, Pattern: "UR", Load: 0.02, Seed: 2})
	b4 := run(t, Config{Design: DesignBuffered4, Pattern: "UR", Load: 0.02, Seed: 2})
	if dx.AvgLatency >= b4.AvgLatency {
		t.Errorf("DXbar low-load latency %.2f must beat baseline %.2f (2 vs 3 cycles/hop)",
			dx.AvgLatency, b4.AvgLatency)
	}
}

// At low load DXbar should almost never buffer.
func TestDXbarRarelyBuffersAtLowLoad(t *testing.T) {
	res := run(t, Config{Design: DesignDXbar, Pattern: "UR", Load: 0.05, Seed: 3})
	if res.BufferingProbability > 0.05 {
		t.Errorf("buffering probability %.3f at 5%% load; expected near zero", res.BufferingProbability)
	}
}

// Flit-Bless must deflect under contention but deliver everything.
func TestBlessDeflectsUnderLoad(t *testing.T) {
	res := run(t, Config{Design: DesignFlitBless, Pattern: "UR", Load: 0.35, Seed: 4})
	if res.DeflectionsPerPacket == 0 {
		t.Error("expected deflections at 35% load")
	}
	if res.Packets == 0 {
		t.Fatal("no packets delivered")
	}
}

// SCARAB must drop and retransmit under contention but deliver everything
// at moderate load.
func TestScarabRetransmitsUnderLoad(t *testing.T) {
	res := run(t, Config{Design: DesignSCARAB, Pattern: "UR", Load: 0.3, Seed: 5})
	if res.DroppedFlits == 0 {
		t.Error("expected drops at 30% load")
	}
	if res.RetransmitsPerPacket == 0 {
		t.Error("expected retransmissions")
	}
}

// Multi-flit packets must reassemble for every design.
func TestMultiFlitPackets(t *testing.T) {
	for _, d := range Designs {
		t.Run(string(d), func(t *testing.T) {
			res := run(t, Config{Design: d, Pattern: "UR", Load: 0.1, FlitsPerPacket: 4, Seed: 6})
			if res.Packets == 0 {
				t.Fatal("no packets reassembled")
			}
			if res.AcceptedLoad < res.OfferedLoad*0.9 {
				t.Errorf("accepted %.4f << offered %.4f", res.AcceptedLoad, res.OfferedLoad)
			}
		})
	}
}

// Determinism: identical configs produce identical results.
func TestRunDeterministic(t *testing.T) {
	cfg := Config{Design: DesignDXbar, Pattern: "UR", Load: 0.3, Seed: 7,
		WarmupCycles: 300, MeasureCycles: 1000}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same config diverged:\n%+v\n%+v", a, b)
	}
}

// All nine patterns must run on every design without losing traffic at
// modest load.
func TestAllPatternsAllDesigns(t *testing.T) {
	patterns := []string{"UR", "NUR", "BR", "BF", "CP", "MT", "PS", "NB", "TOR"}
	for _, d := range Designs {
		for _, p := range patterns {
			t.Run(string(d)+"/"+p, func(t *testing.T) {
				res := run(t, Config{Design: d, Pattern: p, Load: 0.08, Seed: 8,
					WarmupCycles: 300, MeasureCycles: 1000})
				if res.Packets == 0 {
					t.Fatal("no packets delivered")
				}
			})
		}
	}
}

// Faults: DXbar with 100% faults must still deliver traffic (the paper's
// headline fault-tolerance claim).
func TestDXbarSurvivesFullFaults(t *testing.T) {
	for _, algo := range []string{"DOR", "WF"} {
		t.Run(algo, func(t *testing.T) {
			res := run(t, Config{Design: DesignDXbar, Routing: algo, Pattern: "UR",
				Load: 0.1, Seed: 9, FaultFraction: 1.0})
			if res.Packets == 0 {
				t.Fatal("network died under 100% crossbar faults")
			}
			if res.AcceptedLoad < res.OfferedLoad*0.85 {
				t.Errorf("accepted %.4f too far below offered %.4f with faults",
					res.AcceptedLoad, res.OfferedLoad)
			}
		})
	}
}

// Faults on unsupported designs must be rejected.
func TestFaultsRejectedForBufferlessDesigns(t *testing.T) {
	_, err := Run(Config{Design: DesignFlitBless, Pattern: "UR", Load: 0.1,
		FaultFraction: 0.5, WarmupCycles: 10, MeasureCycles: 10})
	if err == nil {
		t.Error("fault injection on Flit-Bless must error")
	}
}

// Unknown configuration values must error cleanly.
func TestConfigValidation(t *testing.T) {
	nan := math.NaN()
	for name, cfg := range map[string]Config{
		"unknown design":              {Design: "bogus", Load: 0.1},
		"unknown routing":             {Design: DesignDXbar, Routing: "bogus", Load: 0.1},
		"unknown pattern":             {Design: DesignDXbar, Pattern: "bogus", Load: 0.1},
		"load > 1":                    {Design: DesignDXbar, Load: 2.0},
		"negative load":               {Design: DesignDXbar, Load: -0.1},
		"NaN load":                    {Design: DesignDXbar, Load: nan},
		"negative fault fraction":     {Design: DesignDXbar, Load: 0.1, FaultFraction: -0.5},
		"NaN fault fraction":          {Design: DesignDXbar, Load: 0.1, FaultFraction: nan},
		"fault fraction > 1":          {Design: DesignDXbar, Load: 0.1, FaultFraction: 1.5},
		"unknown granularity":         {Design: DesignDXbar, Load: 0.1, FaultFraction: 0.5, FaultGranularity: "bogus"},
		"negative buffer depth":       {Design: DesignDXbar, Load: 0.1, BufferDepth: -1},
		"buffer depth above bound":    {Design: DesignDXbar, Load: 0.1, BufferDepth: maxBufferDepth + 1},
		"negative credit delay":       {Design: DesignBuffered4, Load: 0.1, CreditDelay: -1},
		"credit delay above bound":    {Design: DesignDXbar, Load: 0.1, CreditDelay: maxCreditDelay + 1},
		"negative fairness threshold": {Design: DesignDXbar, Load: 0.1, FairnessThreshold: -1},
		"mesh side above bound":       {Design: DesignDXbar, Load: 0.1, Width: topology.MaxSide + 1, Height: 2},
		"40000x2 mesh":                {Design: DesignDXbar, Load: 0.1, Width: 40000, Height: 2},
		"negative event trace":        {Design: DesignDXbar, Load: 0.1, EventTrace: -1},
		"event trace above bound":     {Design: DesignDXbar, Load: 0.1, EventTrace: maxEventTrace + 1},
	} {
		cfg.WarmupCycles, cfg.MeasureCycles = 10, 10
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s must error", name)
		}
	}
	// A resumed run rebuilds its network from the checkpoint's saved config,
	// so an invalid override is an error there too, not a panic.
	_, err := ResumeWith(filepath.Join("bench", "golden.ckpt"), func(c *Config) {
		c.CheckpointInterval, c.CheckpointDir = 0, ""
		c.CreditDelay = -1
	})
	if err == nil {
		t.Error("resuming with a negative credit delay must error")
	}
}

// Rectangular meshes must work for every design (regressions here usually
// mean a port/edge bug).
func TestRectangularMeshes(t *testing.T) {
	for _, dims := range [][2]int{{8, 4}, {4, 8}, {2, 16}} {
		for _, d := range AllDesigns {
			t.Run(string(d), func(t *testing.T) {
				res := run(t, Config{Design: d, Pattern: "UR", Load: 0.1,
					Width: dims[0], Height: dims[1], Seed: 13,
					WarmupCycles: 300, MeasureCycles: 1000})
				if res.Packets == 0 {
					t.Fatalf("%dx%d: no packets delivered", dims[0], dims[1])
				}
				if res.AcceptedLoad < res.OfferedLoad*0.9 {
					t.Errorf("%dx%d: accepted %.4f << offered %.4f",
						dims[0], dims[1], res.AcceptedLoad, res.OfferedLoad)
				}
			})
		}
	}
}

// The AFC extension design works through the facade end to end.
func TestAFCDesignThroughFacade(t *testing.T) {
	lo := run(t, Config{Design: DesignAFC, Pattern: "UR", Load: 0.05, Seed: 19})
	hi := run(t, Config{Design: DesignAFC, Pattern: "UR", Load: 0.45, Seed: 19})
	if lo.Packets == 0 || hi.Packets == 0 {
		t.Fatal("AFC must deliver at both ends of the load axis")
	}
	// Low load: bufferless behaviour (no buffer energy).
	if lo.BufferingProbability > 0.05 {
		t.Errorf("AFC at low load should stay bufferless (buffering prob %.3f)", lo.BufferingProbability)
	}
	// High load: buffered behaviour (most flits buffered).
	if hi.BufferingProbability < 0.5 {
		t.Errorf("AFC at high load should run buffered (buffering prob %.3f)", hi.BufferingProbability)
	}
}

// TestEveryDesignHasPrices walks the design table and prices one event of each
// kind on every design: crossbar 13 pJ (15 on the unified fabric), link 36,
// buffer write + read 14 + 11 (18 + 14 on Buffered 8's larger arrays) and NACK
// hop 8. A design added to the table without expected prices fails here
// instead of being charged the plain ones silently.
func TestEveryDesignHasPrices(t *testing.T) {
	type prices struct{ crossbar, link, write, read, nack float64 }
	plain := prices{13, 36, 14, 11, 8}
	want := map[Design]prices{
		DesignDXbar: plain, DesignFlitBless: plain, DesignSCARAB: plain, DesignBuffered4: plain, DesignAFC: plain,
		DesignUnified:   {15, 36, 14, 11, 8},
		DesignBuffered8: {13, 36, 18, 14, 8},
	}
	for d := range designTable {
		w, ok := want[d]
		if !ok {
			t.Errorf("%s: no expected prices", d)
			continue
		}
		for _, c := range []struct {
			name   string
			counts energy.Counts
			pj     float64
		}{
			{"crossbar", energy.Counts{CrossbarTraversals: 1}, w.crossbar},
			{"link", energy.Counts{LinkTraversals: 1}, w.link},
			{"buffer write", energy.Counts{BufferWrites: 1}, w.write},
			{"buffer read", energy.Counts{BufferReads: 1}, w.read},
			{"NACK hop", energy.Counts{NackHops: 1}, w.nack},
		} {
			if got := energy.EnergyPJ(string(d), c.counts); got != c.pj {
				t.Errorf("%s: one %s costs %v pJ, want %v", d, c.name, got, c.pj)
			}
		}
		if _, err := energy.Breakdown(string(d), energy.Counts{CrossbarTraversals: 1}, 10, 4); err != nil {
			t.Errorf("%s: Breakdown: %v", d, err)
		}
	}
}
