package events

import (
	"reflect"
	"testing"

	"dxbar/internal/flit"
)

// TestStageDrainReproducesDirectRecording is the staging recorder's
// contract: recording through per-node stages and draining them in node
// order must leave the master recorder bit-identical — ring contents, head
// position, counter matrix and totals — to recording the same sequence
// directly.
func TestStageDrainReproducesDirectRecording(t *testing.T) {
	direct := NewRecorder(4, 8)
	master := NewRecorder(4, 8)
	stages := []*Recorder{master.NewStage(), master.NewStage(), master.NewStage(), master.NewStage()}

	// Enough events to wrap the 8-slot ring, spread over nodes and cycles.
	for cycle := uint64(0); cycle < 5; cycle++ {
		for node := 0; node < 4; node++ {
			direct.Record(cycle, Inject, node, flit.Local, uint64(node+1), cycle, 0)
			stages[node].Record(cycle, Inject, node, flit.Local, uint64(node+1), cycle, 0)
			if node%2 == 0 {
				direct.Record(cycle, Deflect, node, flit.North, uint64(node+1), cycle, 1)
				stages[node].Record(cycle, Deflect, node, flit.North, uint64(node+1), cycle, 1)
			}
		}
		for _, s := range stages {
			s.DrainTo(master)
		}
	}

	if !reflect.DeepEqual(direct.Events(), master.Events()) {
		t.Errorf("ring differs:\ndirect: %v\nstaged: %v", direct.Events(), master.Events())
	}
	if direct.Total() != master.Total() || direct.Overwritten() != master.Overwritten() {
		t.Errorf("totals differ: direct %d/%d, staged %d/%d",
			direct.Total(), direct.Overwritten(), master.Total(), master.Overwritten())
	}
	if !reflect.DeepEqual(direct.Matrix(), master.Matrix()) {
		t.Error("counter matrices differ")
	}
	for i, s := range stages {
		if s.Len() != 0 {
			t.Errorf("stage %d not empty after drain: %d events", i, s.Len())
		}
	}
}

// TestStageKindMaskInherited checks a stage applies the master's kind filter
// at record time, so masked events never occupy stage memory.
func TestStageKindMaskInherited(t *testing.T) {
	master := NewRecorder(2, 4, Drop)
	stage := master.NewStage()
	stage.Record(0, Inject, 0, flit.Local, 1, 1, 0)
	stage.Record(0, Drop, 0, flit.Invalid, 1, 1, 0)
	if stage.Len() != 1 {
		t.Fatalf("stage holds %d events, want 1 (Inject masked out)", stage.Len())
	}
	stage.DrainTo(master)
	if got := master.Matrix().At(0, Drop); got != 1 {
		t.Errorf("master drop count = %d, want 1", got)
	}
}

// TestStageNilRecorder: a nil master yields a nil stage, and every stage
// operation on nil is a no-op — the tracing-off path of the sharded engine.
func TestStageNilRecorder(t *testing.T) {
	var r *Recorder
	s := r.NewStage()
	if s != nil {
		t.Fatal("nil recorder must yield a nil stage")
	}
	s.Record(0, Inject, 0, flit.Local, 1, 1, 0) // must not panic
	s.DrainTo(nil)                              // must not panic
}

// TestStageSteadyStateNoGrowth: after the first drain cycle the stage's
// backing array is reused, so staging the same volume again allocates
// nothing (the sharded engine's zero-alloc requirement).
func TestStageSteadyStateNoGrowth(t *testing.T) {
	master := NewRecorder(1, 16)
	stage := master.NewStage()
	record := func() {
		for i := 0; i < 4; i++ {
			stage.Record(uint64(i), Inject, 0, flit.Local, 1, uint64(i), 0)
		}
		stage.DrainTo(master)
	}
	record() // warm the stage's capacity
	if avg := testing.AllocsPerRun(10, record); avg != 0 {
		t.Errorf("%.2f allocations per staged cycle in steady state, want 0", avg)
	}
}

// TestDrainMergedOrdersByNode: stages that each hold an ascending-node run of
// events, with node ranges that interleave across stages (as the tiles of a 2D
// grid do in row-major node order), merge into the sequence a single recorder
// visited in node order holds — wrapping ring included.
func TestDrainMergedOrdersByNode(t *testing.T) {
	direct := NewRecorder(8, 12)
	master := NewRecorder(8, 12)
	tiles := [][]int{{0, 1, 4, 5}, {2, 3, 6, 7}}
	stages := make([]*Recorder, len(tiles)+1) // one nil slot: tracing-off stages are nil
	for i := range tiles {
		stages[i] = master.NewStage()
	}
	for cycle := uint64(0); cycle < 3; cycle++ {
		for node := 0; node < 8; node++ {
			if (node+int(cycle))%3 != 0 {
				direct.Record(cycle, Eject, node, flit.Local, uint64(node), cycle, 0)
			}
		}
		for i, nodes := range tiles {
			for _, node := range nodes {
				if (node+int(cycle))%3 != 0 {
					stages[i].Record(cycle, Eject, node, flit.Local, uint64(node), cycle, 0)
				}
			}
		}
		DrainMerged(master, stages)
	}
	if !reflect.DeepEqual(direct.Events(), master.Events()) {
		t.Errorf("ring differs:\ndirect: %v\nmerged: %v", direct.Events(), master.Events())
	}
	if !reflect.DeepEqual(direct.Matrix(), master.Matrix()) || direct.Total() != master.Total() {
		t.Error("counter matrix or totals differ")
	}
	for i, s := range stages {
		if s.Len() != 0 {
			t.Errorf("stage %d not empty after merge: %d events", i, s.Len())
		}
	}
}
