package crossbar

import (
	"testing"
	"testing/quick"
)

func TestXBarConnectAndReset(t *testing.T) {
	x := NewXBar(5, 5)
	if st := x.TryConnect(0, 3); st != OK {
		t.Fatalf("connect failed: %v", st)
	}
	if st := x.TryConnect(0, 2); st != Busy {
		t.Errorf("reusing input must be Busy, got %v", st)
	}
	if st := x.TryConnect(1, 3); st != Busy {
		t.Errorf("reusing output must be Busy, got %v", st)
	}
	x.Reset()
	if st := x.TryConnect(1, 3); st != OK {
		t.Errorf("connect after reset failed: %v", st)
	}
}

func TestXBarCrosspointFault(t *testing.T) {
	x := NewXBar(5, 5)
	x.InjectCrosspointFault(2, 4)
	if st := x.TryConnect(2, 4); st != Fault {
		t.Errorf("faulty crosspoint must be Fault, got %v", st)
	}
	// Other crosspoints on the same lines still work.
	if st := x.TryConnect(2, 3); st != OK {
		t.Errorf("healthy crosspoint failed: %v", st)
	}
}

func TestXBarKill(t *testing.T) {
	x := NewXBar(5, 5)
	x.Kill()
	if !x.Dead() {
		t.Error("Dead() must report true")
	}
	if st := x.TryConnect(0, 0); st != Fault {
		t.Errorf("dead crossbar must be Fault, got %v", st)
	}
}

func TestXBarPanicsOutOfRange(t *testing.T) {
	x := NewXBar(5, 5)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range connect must panic")
		}
	}()
	x.TryConnect(5, 0)
}

// Property: any sequence of TryConnect calls leaves each input and output
// driven at most once per cycle, whatever the outcome pattern.
func TestXBarOccupancyProperty(t *testing.T) {
	f := func(pairs []uint8) bool {
		x := NewXBar(5, 5)
		inSeen := map[int]bool{}
		outSeen := map[int]bool{}
		for _, p := range pairs {
			in, out := int(p)%5, int(p>>4)%5
			switch x.TryConnect(in, out) {
			case OK:
				if inSeen[in] || outSeen[out] {
					return false
				}
				inSeen[in], outSeen[out] = true, true
			case Fault:
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestUnifiedSingleConnection(t *testing.T) {
	u := NewUnified(5)
	if st := u.TryConnect(0, EntryLow, 4); st != OK {
		t.Fatalf("low-entry to far column must work with all gates on: %v", st)
	}
	if st := u.TryConnect(1, EntryHigh, 0); st != OK {
		t.Fatalf("high-entry to column 0 must work: %v", st)
	}
}

func TestUnifiedDualTraversalSameRow(t *testing.T) {
	// Paper Fig. 4(b): I0 -> O2 (low) and I0' -> O3 (high) simultaneously.
	u := NewUnified(5)
	if st := u.TryConnect(0, EntryLow, 2); st != OK {
		t.Fatalf("first connect: %v", st)
	}
	if st := u.TryConnect(0, EntryHigh, 3); st != OK {
		t.Fatalf("dual traversal must be allowed: %v", st)
	}
}

func TestUnifiedDualOrderingViolation(t *testing.T) {
	u := NewUnified(5)
	if st := u.TryConnect(0, EntryLow, 3); st != OK {
		t.Fatal(st)
	}
	// High entry wanting a column at/above the low column cannot coexist.
	if st := u.TryConnect(0, EntryHigh, 2); st != Busy {
		t.Errorf("ordering violation must be Busy, got %v", st)
	}
	if st := u.TryConnect(0, EntryHigh, 3); st != Busy {
		t.Errorf("same column must be Busy, got %v", st)
	}
}

func TestUnifiedEntryBusy(t *testing.T) {
	u := NewUnified(5)
	if st := u.TryConnect(0, EntryLow, 1); st != OK {
		t.Fatal(st)
	}
	if st := u.TryConnect(0, EntryLow, 3); st != Busy {
		t.Errorf("same entry reuse must be Busy, got %v", st)
	}
}

func TestUnifiedOutputBusyAcrossRows(t *testing.T) {
	u := NewUnified(5)
	if st := u.TryConnect(0, EntryLow, 2); st != OK {
		t.Fatal(st)
	}
	if st := u.TryConnect(1, EntryLow, 2); st != Busy {
		t.Errorf("output column reuse must be Busy, got %v", st)
	}
}

// A dead unified crossbar faults every crosspoint from either entry.
func TestUnifiedCrosspointFaultAndKill(t *testing.T) {
	u := NewUnified(5)
	u.Kill()
	if !u.Dead() {
		t.Error("Dead() wrong")
	}
	for in := 0; in < 5; in++ {
		for out := 0; out < 5; out++ {
			for _, entry := range []int{EntryLow, EntryHigh} {
				if st := u.TryConnect(in, entry, out); st != Fault {
					t.Errorf("dead unified crossbar (%d,%d,%d) must be Fault, got %v", in, entry, out, st)
				}
			}
		}
	}
}

// Property: for a healthy unified crossbar, a low-entry and high-entry pair
// on the same row connects successfully iff lowCol < highCol.
func TestUnifiedDualFeasibilityProperty(t *testing.T) {
	f := func(lowRaw, highRaw uint8) bool {
		low, high := int(lowRaw)%5, int(highRaw)%5
		u := NewUnified(5)
		if u.TryConnect(0, EntryLow, low) != OK {
			return false
		}
		st := u.TryConnect(0, EntryHigh, high)
		if low < high {
			return st == OK
		}
		return st == Busy
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
