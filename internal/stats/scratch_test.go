package stats

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"dxbar/internal/snapshot"
)

// TestScratchAbsorbRouterPhase drives the entry points a tile's worker uses —
// the routers' seven and the link phase's EjectedFlit and LinkTraversals —
// through a scratch
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
			c.BufferRead(200)
		}
		c.LinkTraversals(200, 5)
		c.NackHops(200, 4)
		c.FairnessFlip(200)
		c.DroppedFlit(200, 1)
		c.DroppedFlit(200, 3)
		c.DroppedFlit(200, 3)
		// Out-of-window events must not count (cycle 50 < start 100).
		c.BufferingEvent(50)
		c.BufferRead(50)
		c.LinkTraversals(50, 2)
		c.NackHops(50, 3)
		c.DroppedFlit(50, 0)
		c.EjectedFlit(50)
		c.EjectedFlit(200)
		c.DeflectedFlit()
	}
	record(direct)
	record(scratch)
	master.AbsorbTile(scratch)

	if direct.n != master.n {
		t.Errorf("absorbed counters differ from direct:\ndirect %v\nmaster %v", direct.n, master.n)
	}
	if !reflect.DeepEqual(direct.droppedByNode, master.droppedByNode) {
		t.Errorf("droppedByNode differs: direct %v, master %v", direct.droppedByNode, master.droppedByNode)
	}

	// The scratch must be fully zeroed so the next cycle reuses it cleanly.
	if scratch.n != [numCounters]uint64{} {
		t.Errorf("scratch counters not zeroed after absorb: %v", scratch.n)
	}
	for i, v := range scratch.droppedByNode {
		if v != 0 {
			t.Errorf("scratch.droppedByNode[%d] = %d after absorb, want 0", i, v)
		}
	}

	// A second, drop-free absorption round on the same scratch.
	scratch.BufferingEvent(300)
	master.AbsorbTile(scratch)
	if master.n[bufferedSum] != direct.n[bufferedSum]+1 {
		t.Errorf("second absorb: bufferedSum = %d, want %d", master.n[bufferedSum], direct.n[bufferedSum]+1)
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
	want := probe.n[routedFlits]
	if scratch.n[routedFlits] != want {
		t.Errorf("scratch windowing differs from parent: got %d in-window events, want %d", scratch.n[routedFlits], want)
	}
}

// TestCounterBlock walks every index of the counter block: whatever a counter
// is, a tile's scratch hands it to the master and is left zero, a snapshot
// round trip restores it, and — where it has a name — Total reads it. A
// counter added to the enum is covered here without anyone listing it again.
func TestCounterBlock(t *testing.T) {
	for i := counter(0); i < numCounters; i++ {
		name := totalNames[i]
		if name == "" {
			name = fmt.Sprintf("counter%d", i)
		}
		t.Run(name, func(t *testing.T) {
			master := NewCollector(4, 100, 200)
			master.n[i], master.latencyMax = 5, 40
			scratch := master.Scratch()
			scratch.n[i], scratch.latencyMax = 7, 90 // no tile records a latency; absorbing must not sum or take one
			master.AbsorbTile(scratch)
			want := [numCounters]uint64{}
			want[i] = 12
			if master.n != want || scratch.n != ([numCounters]uint64{}) || master.latencyMax != 40 {
				t.Fatalf("after AbsorbTile: master %v (latencyMax %d), scratch %v", master.n, master.latencyMax, scratch.n)
			}
			if totalNames[i] != "" && master.Total(name) != 12 {
				t.Errorf("Total(%q) = %d, want 12", name, master.Total(name))
			}

			var buf bytes.Buffer
			w := snapshot.NewWriter(&buf)
			if err := master.State(w); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := snapshot.NewReader(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			restored := NewCollector(4, 100, 200)
			if err := restored.State(r); err != nil {
				t.Fatal(err)
			}
			if restored.n != want || restored.latencyMax != 40 {
				t.Errorf("after the round trip: %v (latencyMax %d), want %v (40)", restored.n, restored.latencyMax, want)
			}
		})
	}
}
