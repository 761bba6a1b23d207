package sim

import (
	"fmt"
	"time"
)

// Test-only views of the activity-driven router phase (see tilePhase), for the
// external test package: the differential oracle switch and the awake flags.

// SetStepAll makes the engine step every router every cycle, as it did before
// the router phase became activity-driven.
func (e *Engine) SetStepAll(on bool) { e.stepAll = on }

// Asleep reports whether node n's router is currently being skipped.
func (e *Engine) Asleep(n int) bool { return *e.envs[n].wake == 0 }

// CheckSleepInvariant verifies, between cycles, that every sleeping node has
// no input the engine knows of — nothing latched, nothing queued for injection
// and no pending packet spec — and that the sets tilePhase walks agree with the
// per-node state they stand for: a node is in its tile's inflight set exactly
// when a flit is on one of its links, its creditTick flag names every credit
// counter with a return pending, and no output latch is still driven (the
// launch walk covers the stepped set, so a router that drove one unstepped
// would leave it behind).
func (e *Engine) CheckSleepInvariant() error {
	for n, env := range e.envs {
		t, i := env.tile, env.slot
		if flying := t.inflight[i>>6]>>(uint(i)&63)&1 != 0; flying != (t.linkMask[i] != 0) {
			return fmt.Errorf("cycle %d: node %d has linkMask=%#x but inflight membership %v", e.cycle, n, t.linkMask[i], flying)
		}
		for p, c := range env.downCredits {
			if c != nil && c.HasPending() && t.creditTick[i]&(1<<uint(p)) == 0 {
				return fmt.Errorf("cycle %d: node %d port %d has a credit return pending outside creditTick=%#x", e.cycle, n, p, t.creditTick[i])
			}
		}
		if env.outMask != 0 {
			return fmt.Errorf("cycle %d: node %d still drives outputs %#x after the launch walk", e.cycle, n, env.outMask)
		}
		if *env.wake != 0 {
			continue
		}
		if env.InMask != 0 || env.injection.len() != 0 || env.pendingSpecs.len() != 0 {
			return fmt.Errorf("cycle %d: node %d sleeps with InMask=%#x, %d injection flits, %d pending specs",
				e.cycle, n, env.InMask, env.injection.len(), env.pendingSpecs.len())
		}
	}
	return nil
}

// TileSets returns, per tile, the backing arrays of the flags and sets its
// phase writes, at full capacity — what the allocation test inspects.
func (e *Engine) TileSets() (flags [][]uint8, sets [][]uint64) {
	for _, t := range e.tiles {
		flags = append(flags, t.awake[:cap(t.awake)])
		sets = append(sets, t.stepped[:cap(t.stepped)], t.inflight[:cap(t.inflight)])
	}
	return flags, sets
}

// CoordinatorSerial reports the time a sharded engine's run scopes have spent
// outside parallel tile phases — the coordinating goroutine's serial sections
// (0 on a sequential engine). Together with ShardProfiles it accounts for the
// whole wall time of Run.
func (e *Engine) CoordinatorSerial() time.Duration {
	if e.sharded == nil {
		return 0
	}
	return e.sharded.serial
}

// Partition returns a copy of the engine's partition: every tile's node list
// and every node's crossMask.
func (e *Engine) Partition() (tiles [][]int, cross []uint8) {
	for _, t := range e.tiles {
		tiles = append(tiles, append([]int(nil), t.nodes...))
	}
	for _, env := range e.envs {
		cross = append(cross, env.crossMask)
	}
	return tiles, cross
}

// PassthroughFactory builds the minimal XY router of telemetry_test.go, so
// the external test package can drive sim.New and Engine.Reset directly.
func PassthroughFactory(env *Env) Router { return &passthroughXY{env: env} }
