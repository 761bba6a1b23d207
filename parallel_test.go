package dxbar

import (
	"reflect"
	"strings"
	"testing"
)

func TestRunManyMatchesSequential(t *testing.T) {
	configs := []Config{
		{Design: DesignDXbar, Pattern: "UR", Load: 0.2, WarmupCycles: 300, MeasureCycles: 1000, Seed: 1},
		{Design: DesignFlitBless, Pattern: "MT", Load: 0.3, WarmupCycles: 300, MeasureCycles: 1000, Seed: 2},
		{Design: DesignBuffered4, Pattern: "TOR", Load: 0.25, WarmupCycles: 300, MeasureCycles: 1000, Seed: 3},
		{Design: DesignUnified, Pattern: "CP", Load: 0.2, WarmupCycles: 300, MeasureCycles: 1000, Seed: 4},
	}
	par, err := RunMany(configs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range configs {
		seq := run(t, cfg)
		if !reflect.DeepEqual(par[i], seq) {
			t.Errorf("config %d: parallel result differs from sequential\npar: %+v\nseq: %+v", i, par[i], seq)
		}
	}
}

func TestRunManyEmpty(t *testing.T) {
	res, err := RunMany(nil, 4)
	if err != nil || len(res) != 0 {
		t.Errorf("empty batch: %v, %v", res, err)
	}
}

func TestRunManyPropagatesError(t *testing.T) {
	configs := []Config{
		{Design: DesignDXbar, Pattern: "UR", Load: 0.1, WarmupCycles: 100, MeasureCycles: 100},
		{Design: "bogus", Load: 0.1},
	}
	if _, err := RunMany(configs, 2); err == nil {
		t.Error("error in one config must surface")
	}
}

// TestRunManyJoinsAllErrors: every failed config contributes to the joined
// error and leaves a zero-valued result; good configs still complete.
func TestRunManyJoinsAllErrors(t *testing.T) {
	configs := []Config{
		{Design: "bogus1", Load: 0.1},
		{Design: DesignDXbar, Pattern: "UR", Load: 0.1, WarmupCycles: 100, MeasureCycles: 200, Seed: 5},
		{Design: "bogus2", Load: 0.1},
	}
	res, err := RunMany(configs, 2)
	if err == nil {
		t.Fatal("two bad configs must produce an error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "bogus1") || !strings.Contains(msg, "bogus2") {
		t.Errorf("joined error must mention every failure, got: %v", err)
	}
	if !reflect.DeepEqual(res[0], Result{}) || !reflect.DeepEqual(res[2], Result{}) {
		t.Error("failed configs must leave zero-valued results")
	}
	if res[1].Packets == 0 {
		t.Error("the good config must still run to completion")
	}
}

// TestRunManySingleWorkerReusesEngines: with one worker, every job after
// the first recycles the worker's engines via Engine.Reset. Results must be
// bit-identical to fresh runs — including a repeat of an earlier config
// (reset-to-same-config) and a design sharing the engine cache key with a
// different design (dxbar and unified both use depth-4 engines).
func TestRunManySingleWorkerReusesEngines(t *testing.T) {
	configs := []Config{
		{Design: DesignDXbar, Pattern: "UR", Load: 0.3, WarmupCycles: 300, MeasureCycles: 1000, Seed: 1},
		{Design: DesignUnified, Pattern: "UR", Load: 0.3, WarmupCycles: 300, MeasureCycles: 1000, Seed: 1},
		{Design: DesignSCARAB, Pattern: "TOR", Load: 0.2, WarmupCycles: 300, MeasureCycles: 1000, Seed: 2},
		{Design: DesignDXbar, Pattern: "UR", Load: 0.3, WarmupCycles: 300, MeasureCycles: 1000, Seed: 1},
	}
	got, err := RunMany(configs, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range configs {
		want := run(t, cfg)
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("config %d (%s): reused-engine result differs from fresh run\ngot:  %+v\nwant: %+v",
				i, cfg.Design, got[i], want)
		}
	}
	if !reflect.DeepEqual(got[0], got[3]) {
		t.Error("identical configs through one reused engine must give identical results")
	}
}

func TestRunManyDefaultWorkers(t *testing.T) {
	configs := []Config{
		{Design: DesignDXbar, Pattern: "UR", Load: 0.1, WarmupCycles: 100, MeasureCycles: 200, Seed: 5},
	}
	res, err := RunMany(configs, 0)
	if err != nil || res[0].Packets == 0 {
		t.Errorf("default worker count failed: %v %v", res, err)
	}
}

func TestRunManySplashMatchesSequential(t *testing.T) {
	configs := []SplashConfig{
		{Design: DesignDXbar, Benchmark: "Water", Seed: 1},
		{Design: DesignFlitBless, Benchmark: "Water", Seed: 1},
	}
	par, err := RunManySplash(configs, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range configs {
		seq, err := RunSplash(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if par[i] != seq {
			t.Errorf("splash config %d: parallel differs from sequential", i)
		}
	}
}
