package stats

import (
	"reflect"
	"testing"
)

// TestScratchAbsorbRouterPhase drives the entry points a tile's worker uses —
// the routers' five and the link phase's EjectedFlit — through a scratch
// collector and checks AbsorbTile reproduces direct recording exactly, zeroes
// the scratch, and leaves droppedByNode untouched when nothing dropped.
func TestScratchAbsorbRouterPhase(t *testing.T) {
	direct := NewCollector(4, 100, 1<<40)
	master := NewCollector(4, 100, 1<<40)
	scratch := master.Scratch()

	record := func(c *Collector) {
		for i := 0; i < 3; i++ {
			c.BufferingEvent(200)
			c.RoutedEvent(200)
			c.RoutedEvent(200)
		}
		c.FairnessFlip(200)
		c.DroppedFlit(200, 1)
		c.DroppedFlit(200, 3)
		c.DroppedFlit(200, 3)
		// Out-of-window events must not count (cycle 50 < start 100).
		c.BufferingEvent(50)
		c.DroppedFlit(50, 0)
		c.EjectedFlit(50)
		c.EjectedFlit(200)
		c.DeflectedFlit()
	}
	record(direct)
	record(scratch)
	master.AbsorbTile(scratch)

	if direct.bufferedSum != master.bufferedSum || direct.routedFlits != master.routedFlits ||
		direct.fairnessFlips != master.fairnessFlips || direct.droppedFlits != master.droppedFlits {
		t.Errorf("absorbed counters differ from direct: direct {%d %d %d %d}, master {%d %d %d %d}",
			direct.bufferedSum, direct.routedFlits, direct.fairnessFlips, direct.droppedFlits,
			master.bufferedSum, master.routedFlits, master.fairnessFlips, master.droppedFlits)
	}
	if direct.totalEjected != master.totalEjected || direct.ejectedFlits != master.ejectedFlits ||
		direct.totalDropped != master.totalDropped || direct.totalDeflected != master.totalDeflected {
		t.Errorf("absorbed whole-run totals differ from direct: direct {%d %d %d %d}, master {%d %d %d %d}",
			direct.totalEjected, direct.ejectedFlits, direct.totalDropped, direct.totalDeflected,
			master.totalEjected, master.ejectedFlits, master.totalDropped, master.totalDeflected)
	}
	if !reflect.DeepEqual(direct.droppedByNode, master.droppedByNode) {
		t.Errorf("droppedByNode differs: direct %v, master %v", direct.droppedByNode, master.droppedByNode)
	}

	// The scratch must be fully zeroed so the next cycle reuses it cleanly.
	if scratch.bufferedSum != 0 || scratch.routedFlits != 0 || scratch.fairnessFlips != 0 || scratch.droppedFlits != 0 ||
		scratch.totalEjected != 0 || scratch.ejectedFlits != 0 || scratch.totalDropped != 0 || scratch.totalDeflected != 0 {
		t.Error("scratch counters not zeroed after absorb")
	}
	for i, v := range scratch.droppedByNode {
		if v != 0 {
			t.Errorf("scratch.droppedByNode[%d] = %d after absorb, want 0", i, v)
		}
	}

	// A second, drop-free absorption round on the same scratch.
	scratch.BufferingEvent(300)
	master.AbsorbTile(scratch)
	if master.bufferedSum != direct.bufferedSum+1 {
		t.Errorf("second absorb: bufferedSum = %d, want %d", master.bufferedSum, direct.bufferedSum+1)
	}
}

// TestScratchInheritsWindow: the scratch applies the same measurement-window
// gating as its parent, which is what makes barrier-time absorption
// equivalent to direct recording.
func TestScratchInheritsWindow(t *testing.T) {
	master := NewCollector(2, 500, 1000)
	scratch := master.Scratch()
	scratch.RoutedEvent(499)  // before window
	scratch.RoutedEvent(500)  // in window
	scratch.RoutedEvent(1000) // at end (exclusive or inclusive — must match parent)
	probe := NewCollector(2, 500, 1000)
	probe.RoutedEvent(499)
	probe.RoutedEvent(500)
	probe.RoutedEvent(1000)
	want := probe.routedFlits
	if scratch.routedFlits != want {
		t.Errorf("scratch windowing differs from parent: got %d in-window events, want %d", scratch.routedFlits, want)
	}
}
