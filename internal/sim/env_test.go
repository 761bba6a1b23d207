package sim

import (
	"testing"

	"dxbar/internal/flit"
	"dxbar/internal/stats"
	"dxbar/internal/topology"
	"dxbar/internal/traffic"
)

// envFixture builds an engine with inert routers for Env-level tests.
func envFixture(t *testing.T, depth int) *Engine {
	t.Helper()
	mesh := topology.MustMesh(4, 4)
	coll := stats.NewCollector(mesh.Nodes(), 0, 1000)
	eng, err := New(Config{Mesh: mesh, Stats: coll, BufferDepth: depth},
		func(env *Env) Router {
			return routerFunc(func(cycle uint64) {
				for p := flit.North; p <= flit.West; p++ {
					env.In[p] = nil
				}
			})
		})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestEnvAccessors(t *testing.T) {
	eng := envFixture(t, 4)
	env := eng.Env(5)
	if env.Mesh() != eng.Mesh() {
		t.Error("Mesh accessor mismatch")
	}
	if env.Stats() == nil {
		t.Error("Stats accessor nil")
	}
	if eng.Router(5) == nil {
		t.Error("Router accessor nil")
	}
	if !env.HasLink(flit.Local) {
		t.Error("Local always exists")
	}
	if env.HasLink(flit.Invalid) {
		t.Error("Invalid port must not exist")
	}
	if env.FreeOutMask()&(1<<uint(flit.East)) == 0 {
		t.Error("fresh output must be free")
	}
	if env.DownstreamCredits(flit.Local) != nil {
		t.Error("Local has no credits")
	}
}

func TestEnvCanSendEdges(t *testing.T) {
	eng := envFixture(t, 1)
	corner := eng.Env(0) // NW corner: no North/West links
	if corner.CanSend(flit.North) || corner.CanSend(flit.West) {
		t.Error("edge ports must not be sendable")
	}
	if !corner.CanSend(flit.East) || !corner.CanSend(flit.Local) {
		t.Error("existing ports must be sendable")
	}
	// Exhaust the single credit: East becomes unsendable, Local stays.
	corner.Send(flit.East, &flit.Flit{ID: 1, Src: 0, Dst: 1})
	if corner.CanSend(flit.East) {
		t.Error("driven output must not be sendable")
	}
	if !corner.CanSend(flit.Local) {
		t.Error("Local must stay sendable")
	}
}

func TestEnvSendPanics(t *testing.T) {
	eng := envFixture(t, 4)
	env := eng.Env(0)
	t.Run("missing port", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("sending through a missing port must panic")
			}
		}()
		env.Send(flit.North, &flit.Flit{ID: 1})
	})
	t.Run("double drive", func(t *testing.T) {
		env.Send(flit.East, &flit.Flit{ID: 1, Src: 0, Dst: 1})
		defer func() {
			if recover() == nil {
				t.Error("double-driving an output must panic")
			}
		}()
		env.Send(flit.East, &flit.Flit{ID: 2, Src: 0, Dst: 1})
	})
}

func TestConsumeInjectionEmptyPanics(t *testing.T) {
	eng := envFixture(t, 4)
	defer func() {
		if recover() == nil {
			t.Error("consuming an empty injection queue must panic")
		}
	}()
	eng.Env(0).ConsumeInjection(0)
}

func TestScheduleRetransmitZeroDelay(t *testing.T) {
	eng := envFixture(t, 4)
	f := &flit.Flit{ID: 1, Src: 3, Dst: 7}
	eng.ScheduleRetransmit(f, 0) // clamps to the next cycle
	eng.Step()                   // cycle 0: event scheduled for cycle 1
	eng.Step()                   // cycle 1: event delivered at cycle start
	if eng.Env(3).InjectionHead() != f {
		t.Error("zero-delay retransmit must re-enqueue next cycle")
	}
	if f.Retransmits != 1 {
		t.Errorf("retransmit counter = %d, want 1", f.Retransmits)
	}
}

// TestScheduleRetransmitDelays pins down delivery timing for delay 1 and a
// general delay n: a flit scheduled at cycle c with delay d reappears at the
// head of its source queue at the start of cycle c+d, not a cycle earlier.
// The 100-cycle case also forces the event wheel to grow past its initial
// capacity mid-run.
func TestScheduleRetransmitDelays(t *testing.T) {
	for _, delay := range []uint64{1, 5, 100} {
		eng := envFixture(t, 4)
		f := &flit.Flit{ID: 2, Src: 5, Dst: 9}
		eng.ScheduleRetransmit(f, delay)
		for c := uint64(0); c < delay; c++ {
			if eng.Env(5).InjectionHead() == f {
				t.Fatalf("delay %d: flit visible at cycle %d, too early", delay, c)
			}
			eng.Step()
		}
		eng.Step() // the cycle that starts at eng.Cycle() == delay delivers it
		if eng.Env(5).InjectionHead() != f {
			t.Errorf("delay %d: flit not re-enqueued at cycle %d", delay, delay)
		}
		if f.Retransmits != 1 {
			t.Errorf("delay %d: retransmit counter = %d, want 1", delay, f.Retransmits)
		}
	}
}

func TestSourceAdapter(t *testing.T) {
	mesh := topology.MustMesh(4, 4)
	pat, _ := traffic.New("NB", mesh)
	bern, _ := traffic.NewBernoulli(mesh, pat, 1.0, 1, 1)
	src := &SourceAdapter{B: bern}
	got := 0
	for n := 0; n < 16; n++ {
		got += len(src.Generate(n, 0))
	}
	if got != 16 {
		t.Errorf("load 1.0 must generate on every node, got %d", got)
	}
}
