package buffer

import (
	"testing"
	"testing/quick"

	"dxbar/internal/flit"
)

func mk(id uint64) *flit.Flit { return &flit.Flit{ID: id} }

func TestFIFOOrder(t *testing.T) {
	f := NewFIFO(4)
	for i := uint64(1); i <= 4; i++ {
		f.Push(mk(i))
	}
	for i := uint64(1); i <= 4; i++ {
		if got := f.Pop(); got.ID != i {
			t.Fatalf("pop = %d, want %d", got.ID, i)
		}
	}
	if f.Pop() != nil {
		t.Error("pop from empty must return nil")
	}
}

func TestFIFOWraparound(t *testing.T) {
	f := NewFIFO(2)
	f.Push(mk(1))
	f.Push(mk(2))
	f.Pop()
	f.Push(mk(3))
	if f.Pop().ID != 2 || f.Pop().ID != 3 {
		t.Error("wraparound order broken")
	}
}

func TestFIFOHeadPeeks(t *testing.T) {
	f := NewFIFO(4)
	if f.Head() != nil {
		t.Error("empty head must be nil")
	}
	f.Push(mk(9))
	if f.Head().ID != 9 || f.Head().ID != 9 {
		t.Error("Head must not consume")
	}
	if f.Len() != 1 {
		t.Error("Head changed length")
	}
}

func TestFIFOStateAccessors(t *testing.T) {
	f := NewFIFO(3)
	if !f.Empty() || f.Full() || f.Depth() != 3 || f.Len() != 0 {
		t.Error("fresh FIFO state wrong")
	}
	f.Push(mk(1))
	f.Push(mk(2))
	f.Push(mk(3))
	if f.Empty() || !f.Full() || f.Len() != 3 {
		t.Error("full FIFO state wrong")
	}
}

func TestFIFOOverflowPanics(t *testing.T) {
	f := NewFIFO(1)
	f.Push(mk(1))
	defer func() {
		if recover() == nil {
			t.Error("push to full FIFO must panic")
		}
	}()
	f.Push(mk(2))
}

func TestFIFOBadDepthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewFIFO(0) must panic")
		}
	}()
	NewFIFO(0)
}

// Property: a FIFO behaves exactly like a bounded queue for any push/pop
// interleaving.
func TestFIFOQueueEquivalenceProperty(t *testing.T) {
	f := func(ops []bool) bool {
		fifo := NewFIFO(4)
		var model []uint64
		next := uint64(1)
		for _, push := range ops {
			if push {
				if fifo.Full() {
					if len(model) != 4 {
						return false
					}
					continue
				}
				fifo.Push(mk(next))
				model = append(model, next)
				next++
			} else {
				got := fifo.Pop()
				if len(model) == 0 {
					if got != nil {
						return false
					}
					continue
				}
				if got == nil || got.ID != model[0] {
					return false
				}
				model = model[1:]
			}
			if fifo.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCreditsConsumeReturnCycle(t *testing.T) {
	c := NewCredits(2, 1)
	if c.Available() != 2 || !c.CanSend() {
		t.Fatal("fresh credits wrong")
	}
	c.Consume()
	c.Consume()
	if c.CanSend() {
		t.Fatal("must be exhausted")
	}
	c.Return()
	if c.CanSend() {
		t.Fatal("returned credit must not be visible before Tick")
	}
	c.Tick()
	if c.Available() != 1 {
		t.Fatalf("available = %d, want 1", c.Available())
	}
	if c.Outstanding() != 1 {
		t.Fatalf("outstanding = %d, want 1", c.Outstanding())
	}
}

func TestCreditsDelayedReturn(t *testing.T) {
	c := NewCredits(4, 3)
	c.Consume()
	c.Return()
	for i := 0; i < 2; i++ {
		c.Tick()
		if c.Available() != 3 {
			t.Fatalf("credit visible after %d ticks with delay 3", i+1)
		}
	}
	c.Tick()
	if c.Available() != 4 {
		t.Fatal("credit must be visible after 3 ticks")
	}
}

func TestCreditsUnderflowPanics(t *testing.T) {
	c := NewCredits(1, 1)
	c.Consume()
	defer func() {
		if recover() == nil {
			t.Error("consume without credit must panic")
		}
	}()
	c.Consume()
}

func TestCreditsOverflowPanics(t *testing.T) {
	c := NewCredits(1, 1)
	defer func() {
		if recover() == nil {
			t.Error("returning more credits than consumed must panic")
		}
	}()
	c.Return()
}

// Property: available + pending + outstanding == capacity at all times, for
// any legal interleaving of consume/return/tick.
func TestCreditsConservationProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		c := NewCredits(4, 2)
		outstanding := 0
		for _, op := range ops {
			switch op % 3 {
			case 0:
				if c.CanSend() {
					c.Consume()
					outstanding++
				}
			case 1:
				if outstanding > 0 && c.Outstanding() > 0 {
					c.Return()
					outstanding--
				}
			case 2:
				c.Tick()
			}
			if c.Available() < 0 || c.Available() > 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Tick followed by ReturnLate leaves a counter in exactly the state
// Return followed by Tick does — for every pipeline depth and any legal
// history before it. This is what lets the sharded engine replay a cross-tile
// credit return at the barrier, after the owning tile has already ticked.
func TestCreditsReturnLateEqualsReturnThenTick(t *testing.T) {
	for delay := 1; delay <= 4; delay++ {
		f := func(ops []uint8, late uint8) bool {
			a, b := NewCredits(4, delay), NewCredits(4, delay)
			for _, op := range ops {
				switch op % 3 {
				case 0:
					if a.CanSend() {
						a.Consume()
						b.Consume()
					}
				case 1:
					if a.Outstanding() > 0 {
						a.Return()
						b.Return()
					}
				case 2:
					a.Tick()
					b.Tick()
				}
			}
			n := int(late) % (a.Outstanding() + 1)
			for i := 0; i < n; i++ {
				a.Return()
			}
			a.Tick()
			b.Tick()
			for i := 0; i < n; i++ {
				b.ReturnLate()
			}
			// Compare now and as the pipelines drain.
			for i := 0; i <= delay; i++ {
				if a.Available() != b.Available() || a.pending() != b.pending() || a.HasPending() != b.HasPending() {
					return false
				}
				a.Tick()
				b.Tick()
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("delay %d: %v", delay, err)
		}
	}
}

func TestCreditsBadConfigPanics(t *testing.T) {
	for _, cfg := range [][2]int{{0, 1}, {4, 0}, {-1, 2}} {
		func() {
			defer func() { recover() }()
			NewCredits(cfg[0], cfg[1])
			t.Errorf("NewCredits(%d,%d) must panic", cfg[0], cfg[1])
		}()
	}
}
