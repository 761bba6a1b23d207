package router

import (
	"math/bits"
	"sync/atomic"

	"dxbar/internal/flit"
	"dxbar/internal/routing"
	"dxbar/internal/sim"
)

// AFC implements a simplified variant of Adaptive Flow Control (Jafri et
// al., MICRO'10 — the paper's reference [9]), the closest prior hybrid:
// the network switches between bufferless deflection operation (low load:
// buffers bypassed, minimum energy) and buffered operation (high load:
// conflicts absorbed in the input FIFOs). The paper positions DXbar against
// AFC — DXbar gets both behaviours simultaneously from its dual fabrics
// with no mode state — so AFC is provided as an extension design for
// head-to-head comparison (design name "afc").
//
// Simplification (documented in DESIGN.md): the published AFC switches
// modes *per router*, with a neighbour-coordination protocol that keeps the
// mixed-mode network deadlock-free. Mixing deflection with blocking buffers
// naively is unsound — a deflected flit parked in a Y-channel buffer whose
// head waits on an X channel breaks XY routing's acyclic channel-dependency
// order. This implementation therefore switches modes *network-wide* with a
// drain barrier: when the controller decides to change mode it first stops
// injection and lets the network empty (pure deflection always drains by
// the age-priority argument; pure buffered XY/WF always drains by the turn
// model), then flips every router at once. Each steady mode is individually
// deadlock-free, and the barrier ensures no flit ever observes both. The
// drain cost is AFC's coarser adaptation penalty, which is the paper's
// qualitative point about per-router mode complexity.
type AFC struct {
	ctrl *AFCController

	// buf is the buffered mode: a Buffered 4 pipeline (input bank, separable
	// allocator, routing table); bless is the bufferless mode, a Flit-Bless
	// router on the same env and table. This router drives whichever the
	// controller selects with its injection gate and flit census.
	buf   Buffered
	bless Bless
}

// AFC controller states.
const (
	afcModeBufferless = iota
	afcModeBuffered
)

// AFC mode-policy constants.
const (
	// AFCWindow is the observation window in cycles.
	AFCWindow = 64
	// AFCOnDeflectionRate switches to buffered mode when per-node
	// deflections per cycle exceed this rate within a window.
	AFCOnDeflectionRate = 0.08
	// AFCOffInjectionRate returns to bufferless mode when the per-node
	// injection rate falls below this (hysteresis against thrashing).
	AFCOffInjectionRate = 0.12
)

// AFCController is the shared network-wide mode state. Build exactly one
// per network and hand it to every router's NewAFC.
//
// The counters routers bump during their Step (netFlits, window counters)
// are atomics so the sharded engine may step AFC routers on concurrent
// workers; atomic addition is commutative, so their end-of-phase values —
// the only values the policy ever reads — are bit-identical to sequential
// stepping. The mode state itself (mode/draining/next) is only mutated by
// Tick, which the engine runs once per cycle before the router phase, so
// routers read a stable mode all phase.
type AFCController struct {
	nodes int

	mode     int
	draining bool
	next     int

	netFlits atomic.Int64 // flits inside routers/links (not source queues)

	windowStart       uint64
	windowDeflections atomic.Int64
	windowInjections  atomic.Int64

	lastTick uint64
	started  bool

	// ModeSwitches counts completed transitions (diagnostics).
	ModeSwitches uint64
}

// NewAFCController returns a controller for a network of the given size,
// starting in bufferless mode (AFC's low-power default).
func NewAFCController(nodes int) *AFCController {
	return &AFCController{nodes: nodes, mode: afcModeBufferless, next: afcModeBufferless}
}

// Buffered reports whether the network is currently in buffered mode.
func (c *AFCController) Buffered() bool { return c.mode == afcModeBuffered }

// InjectionAllowed reports whether sources may inject this cycle.
func (c *AFCController) InjectionAllowed() bool { return !c.draining }

// Tick runs the mode policy for the cycle. The engine calls it once per
// cycle (PreCycle hook) before any router steps, so routers — on concurrent
// shard workers too — read a stable mode all phase; nothing else ticks it, so
// whoever steps AFC routers by hand calls Tick first. Repeat calls within a
// cycle change nothing.
func (c *AFCController) Tick(cycle uint64) {
	if c.started && cycle == c.lastTick {
		return
	}
	c.started = true
	c.lastTick = cycle

	if c.draining {
		if c.netFlits.Load() == 0 {
			c.mode = c.next
			c.draining = false
			c.ModeSwitches++
			c.windowStart = cycle
			c.windowDeflections.Store(0)
			c.windowInjections.Store(0)
		}
		return
	}
	if cycle-c.windowStart < AFCWindow {
		return
	}
	deflRate := float64(c.windowDeflections.Load()) / float64(AFCWindow) / float64(c.nodes)
	injRate := float64(c.windowInjections.Load()) / float64(AFCWindow) / float64(c.nodes)
	switch {
	case c.mode == afcModeBufferless && deflRate > AFCOnDeflectionRate:
		c.next = afcModeBuffered
		c.draining = true
	case c.mode == afcModeBuffered && injRate < AFCOffInjectionRate:
		c.next = afcModeBufferless
		c.draining = true
	}
	c.windowStart = cycle
	c.windowDeflections.Store(0)
	c.windowInjections.Store(0)
}

// NewAFC builds one AFC router sharing the given controller. The engine
// must be configured with BufferDepth 4 (credits are live in both modes; in
// bufferless mode every arrival is consumed in its arrival cycle, so the
// credit loop never throttles deflection).
func NewAFC(env *sim.Env, algo routing.Algorithm, ctrl *AFCController) *AFC {
	a := new(AFC)
	a.Init(env, algo, ctrl)
	return a
}

// Init builds the router in place, as NewAFC does on a fresh allocation;
// like Buffered.Init it allocates nothing (the bufferless mode reuses the
// buffered mode's table).
func (a *AFC) Init(env *sim.Env, algo routing.Algorithm, ctrl *AFCController) {
	*a = AFC{ctrl: ctrl}
	a.buf.Init(env, algo, false)
	a.bless.Init(env, a.buf.table)
}

// Step implements sim.Router. It reports quiescent when the input FIFOs are
// empty after the step, as Buffered does: bufferless mode holds nothing
// across cycles, the mode policy is ticked by the engine (AFCController.Tick)
// whether or not any router steps, and a node with injection backlog — which
// is what a drain barrier leaves waiting — is kept awake by the engine's own
// rule.
func (a *AFC) Step(cycle uint64) (quiescent bool) {
	var injected, ejected bool
	if a.ctrl.Buffered() || a.buf.bank.nonEmpty != 0 {
		// Buffered mode — and the tail of a buffered→bufferless drain,
		// where leftover buffered flits still leave through the allocator.
		injected, ejected = a.buf.step(cycle, a.ctrl.InjectionAllowed())
	} else {
		// Bufferless mode consumes every arrival in its arrival cycle, so
		// the buffer slot its credit paid for is never used: return it now.
		env := a.buf.env
		for m := env.InMask; m != 0; m &= m - 1 {
			env.ReturnCredit(flit.Port(bits.TrailingZeros8(m)))
		}
		var deflected int64
		injected, ejected, deflected = a.bless.step(cycle, a.ctrl.InjectionAllowed())
		if deflected != 0 {
			a.ctrl.windowDeflections.Add(deflected)
		}
	}
	// The census moves at the network's edges: in at the PE, out at Local.
	if injected {
		a.ctrl.netFlits.Add(1)
		a.ctrl.windowInjections.Add(1)
	}
	if ejected {
		a.ctrl.netFlits.Add(-1)
	}
	return a.buf.bank.nonEmpty == 0
}
