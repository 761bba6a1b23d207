package router

import (
	"testing"

	"dxbar/internal/routing"
	"dxbar/internal/sim"
	"dxbar/internal/traffic"
)

func afcFactory(algo routing.Algorithm) (sim.RouterFactory, *AFCController) {
	ctrl := NewAFCController(16)
	return func(env *sim.Env) sim.Router { return NewAFC(env, algo, ctrl) }, ctrl
}

func TestAFCStartsBufferless(t *testing.T) {
	factory, ctrl := afcFactory(routing.DOR{})
	h := newHarnessPreCycle(t, factory, 4, ctrl.Tick, spec(1, 0, 15, 0))
	h.eng.Run(20)
	if ctrl.Buffered() {
		t.Error("AFC must start in bufferless mode")
	}
	r := h.coll.Results()
	if r.Packets != 1 {
		t.Fatalf("packets = %d", r.Packets)
	}
	// Bufferless single-cycle switching: 6 hops × 2 cycles.
	if r.AvgLatency != 12 {
		t.Errorf("latency = %v, want 12", r.AvgLatency)
	}
	if c := h.coll.EnergyCounts(); c.BufferWrites != 0 {
		t.Errorf("bufferless mode must not touch buffers, got %d writes", c.BufferWrites)
	}
}

func TestAFCSwitchesToBufferedUnderPressure(t *testing.T) {
	// Saturating conflicting streams force deflections past the threshold.
	specs := []*traffic.PacketSpec{}
	id := uint64(1)
	// Every node fires at a far node through the center, two packets per
	// cycle — far past the deflection threshold.
	targets := [][2]int{{0, 15}, {15, 0}, {3, 12}, {12, 3}, {1, 14}, {14, 1},
		{2, 13}, {13, 2}, {4, 11}, {11, 4}, {7, 8}, {8, 7}}
	for c := uint64(0); c < 600; c++ {
		for _, sd := range targets {
			specs = append(specs, spec(id, sd[0], sd[1], c))
			id++
		}
	}
	factory, ctrl := afcFactory(routing.DOR{})
	h := newHarnessPreCycle(t, factory, 4, ctrl.Tick, specs...)
	h.eng.Run(800)
	if !ctrl.Buffered() {
		t.Error("sustained contention must switch AFC to buffered mode")
	}
	if ctrl.ModeSwitches == 0 {
		t.Error("mode switch counter must advance")
	}
	if c := h.coll.EnergyCounts(); c.BufferWrites == 0 {
		t.Error("buffered mode must use the buffers")
	}
}

func TestAFCReturnsToBufferlessWhenQuiet(t *testing.T) {
	specs := []*traffic.PacketSpec{}
	id := uint64(1)
	for c := uint64(0); c < 400; c++ {
		for _, sd := range [][2]int{{1, 13}, {4, 7}, {2, 14}, {8, 11}, {13, 1}, {7, 4}} {
			specs = append(specs, spec(id, sd[0], sd[1], c))
			id++
		}
	}
	factory, ctrl := afcFactory(routing.DOR{})
	h := newHarnessPreCycle(t, factory, 4, ctrl.Tick, specs...)
	h.eng.Run(400)
	if !ctrl.Buffered() {
		t.Skip("contention did not trip the threshold in this scenario")
	}
	// Traffic stops at cycle 400; the network drains and the controller
	// must flip back to bufferless.
	h.eng.Run(2000)
	if ctrl.Buffered() {
		t.Error("idle network must return to bufferless mode")
	}
	if got := h.coll.Results().Packets; got != uint64(len(specs)) {
		t.Errorf("packets = %d, want %d (lost during transitions?)", got, len(specs))
	}
}

func TestAFCDrainBarrierLosesNothing(t *testing.T) {
	// Bursts separated by idle periods force repeated transitions; every
	// packet must still arrive exactly once (the conservation suite covers
	// random traffic; this exercises transitions specifically).
	specs := []*traffic.PacketSpec{}
	id := uint64(1)
	for burst := uint64(0); burst < 4; burst++ {
		start := burst * 500
		for c := start; c < start+150; c++ {
			for _, sd := range [][2]int{{1, 13}, {4, 7}, {13, 1}, {7, 4}, {2, 14}, {14, 2}} {
				specs = append(specs, spec(id, sd[0], sd[1], c))
				id++
			}
		}
	}
	factory, ctrl := afcFactory(routing.DOR{})
	h := newHarnessPreCycle(t, factory, 4, ctrl.Tick, specs...)
	h.eng.Run(4000)
	if got := h.coll.Results().Packets; got != uint64(len(specs)) {
		t.Errorf("packets = %d, want %d", got, len(specs))
	}
	t.Logf("mode switches across bursts: %d", ctrl.ModeSwitches)
}

func TestAFCControllerHysteresis(t *testing.T) {
	c := NewAFCController(64)
	if c.Buffered() || !c.InjectionAllowed() {
		t.Fatal("fresh controller state wrong")
	}
	// Quiet window: no switch.
	c.Tick(0)
	c.Tick(AFCWindow + 1)
	if !c.InjectionAllowed() {
		t.Fatal("quiet network must not start a transition")
	}
	// Hot window: deflections above threshold start a drain.
	hot := AFCOnDeflectionRate * 64 * AFCWindow
	c.windowDeflections.Store(int64(hot) + 1)
	c.Tick(2*AFCWindow + 2)
	if c.InjectionAllowed() || c.Buffered() {
		// Draining toward buffered but not yet flipped.
		if c.Buffered() {
			t.Fatal("mode must not flip before the drain completes")
		}
	}
	if c.InjectionAllowed() {
		t.Fatal("injection must pause during the drain")
	}
	// Drain completes when the network is empty.
	c.netFlits.Store(0)
	c.Tick(2*AFCWindow + 3)
	if !c.Buffered() || !c.InjectionAllowed() {
		t.Fatal("drain completion must flip the mode")
	}
	if c.ModeSwitches != 1 {
		t.Fatalf("switches = %d, want 1", c.ModeSwitches)
	}
}
