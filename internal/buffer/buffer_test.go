package buffer

import (
	"bytes"
	"testing"
	"testing/quick"

	"dxbar/internal/flit"
	"dxbar/internal/snapshot"
)

func mk(id uint64) *flit.Flit { return &flit.Flit{ID: id} }

// queues returns n empty queues of the given depth on one backing array.
func queues(n, depth int) []Queue {
	qs := make([]Queue, n)
	InitQueues(qs, depth, nil)
	return qs
}

// TestInitQueuesCarvesStore: queues initialised on a store large enough for
// them take their rings from it, in order and without allocating, whatever
// the store held before; a store too small for them is not used.
func TestInitQueuesCarvesStore(t *testing.T) {
	store := make([]Entry, 2*RingLen(3))
	for i := range store {
		store[i] = Entry{F: mk(99)} // a previous owner's dead entries
	}
	qs := make([]Queue, 2)
	if n := testing.AllocsPerRun(10, func() { InitQueues(qs, 3, store) }); n != 0 {
		t.Errorf("InitQueues on a large enough store allocates %.0f times, want 0", n)
	}
	qs[0].Push(Entry{F: mk(1)})
	qs[1].Push(Entry{F: mk(2)})
	if store[0].F.ID != 1 || store[RingLen(3)].F.ID != 2 || qs[0].Len() != 1 || qs[1].Len() != 1 {
		t.Errorf("rings not carved in order from the store: %v, %v", store[0].F, store[RingLen(3)].F)
	}
	InitQueues(qs, 3, store[:len(store)-1])
	qs[0].Push(Entry{F: mk(3)})
	if store[0].F.ID == 3 {
		t.Error("a store too small for the queues was written")
	}
}

func TestFIFOOrder(t *testing.T) {
	q := &queues(1, 4)[0]
	for i := uint64(1); i <= 4; i++ {
		q.Push(Entry{F: mk(i)})
	}
	for i := uint64(1); i <= 4; i++ {
		if got := q.Pop(); got.ID != i {
			t.Fatalf("pop = %d, want %d", got.ID, i)
		}
	}
	if q.Pop() != nil {
		t.Error("pop from empty must return nil")
	}
}

func TestFIFOWraparound(t *testing.T) {
	q := &queues(1, 2)[0]
	q.Push(Entry{F: mk(1)})
	q.Push(Entry{F: mk(2)})
	q.Pop()
	q.Push(Entry{F: mk(3)})
	if q.Pop().ID != 2 || q.Pop().ID != 3 {
		t.Error("wraparound order broken")
	}
}

func TestFIFOHeadPeeks(t *testing.T) {
	q := &queues(1, 4)[0]
	e := Entry{F: mk(9), Ready: 5, Want: 3, Route: 7}
	q.Push(e)
	q.Push(Entry{F: mk(10)})
	if *q.At(0) != e || *q.At(0) != e {
		t.Error("At(0) must return the head as written, and not consume it")
	}
	if q.Len() != 2 {
		t.Error("At changed length")
	}
}

func TestFIFOStateAccessors(t *testing.T) {
	q := &queues(1, 3)[0]
	if q.Full() || q.Len() != 0 {
		t.Error("fresh queue state wrong")
	}
	for i := uint64(1); i <= 3; i++ {
		if n := q.Push(Entry{F: mk(i)}); n != int(i) {
			t.Errorf("push %d returned length %d", i, n)
		}
	}
	if !q.Full() || q.Len() != 3 {
		t.Error("full queue state wrong")
	}
}

// A push past the depth panics even when the ring's capacity (the next power
// of two) has room.
func TestFIFOOverflowPanics(t *testing.T) {
	for _, depth := range []int{1, 3} {
		q := &queues(1, depth)[0]
		for i := 0; i < depth; i++ {
			q.Push(Entry{F: mk(uint64(i))})
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("push to a full depth-%d queue must panic", depth)
				}
			}()
			q.Push(Entry{F: mk(99)})
		}()
	}
}

func TestFIFOBadDepthPanics(t *testing.T) {
	for _, depth := range []int{0, -1} {
		func() {
			defer func() { recover() }()
			queues(1, depth)
			t.Errorf("InitQueues(depth %d) must panic", depth)
		}()
	}
}

// Property: two queues sharing one backing array each behave exactly like a
// bounded queue, for any push/pop interleaving, at a depth that is and one
// that is not its ring's capacity.
func TestFIFOQueueEquivalenceProperty(t *testing.T) {
	for _, depth := range []int{3, 4} {
		f := func(ops []uint8) bool {
			qs := queues(2, depth)
			var model [2][]uint64
			next := uint64(1)
			for _, op := range ops {
				k := int(op>>1) & 1
				q := &qs[k]
				if op&1 == 0 {
					if q.Full() {
						if len(model[k]) != depth {
							return false
						}
						continue
					}
					q.Push(Entry{F: mk(next)})
					model[k] = append(model[k], next)
					next++
				} else {
					got := q.Pop()
					if len(model[k]) == 0 {
						if got != nil {
							return false
						}
						continue
					}
					if got == nil || got.ID != model[k][0] {
						return false
					}
					model[k] = model[k][1:]
				}
				for j := range qs {
					if qs[j].Len() != len(model[j]) || (len(model[j]) > 0 && qs[j].At(0).F.ID != model[j][0]) {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("depth %d: %v", depth, err)
		}
	}
}

// TestQueueState: the codec moves the count and the flits oldest-first, each
// followed by its eligibility cycle when timed (BUFD, AFCR) and alone when
// not (DXBR, UNIF). A load refills the ring whatever phase the saved ring was
// in, leaves Want and Route to the caller, and saves back to the same bytes.
// A stream that claims more flits than the depth is a load error even when
// the ring's capacity could hold them.
func TestQueueState(t *testing.T) {
	const nodes = 16
	save := func(q *Queue, timed bool) []byte {
		var buf bytes.Buffer
		w := snapshot.NewWriter(&buf)
		if err := q.State(w, nil, nodes, timed); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	load := func(q *Queue, data []byte, timed bool) error {
		r, err := snapshot.NewReader(data)
		if err != nil {
			return err
		}
		if err := q.State(r, flit.NewPool(), nodes, timed); err != nil {
			return err
		}
		return r.Close()
	}
	fill := func(q *Queue, ids ...uint64) {
		for _, id := range ids {
			q.Push(Entry{F: &flit.Flit{ID: id, Dst: int32(id), NumFlits: 1, Route: flit.Invalid}, Ready: 10 + id, Want: 1, Route: 1})
		}
	}
	orig := &queues(1, 3)[0]
	fill(orig, 1, 2, 3)
	orig.Pop()
	orig.Pop()
	fill(orig, 4, 5) // 3, 4, 5, wrapping the depth-3, capacity-4 ring
	if timed, untimed := save(orig, true), save(orig, false); len(timed)-len(untimed) != 3*8 {
		t.Fatalf("timed stream %d bytes, untimed %d: want one u64 more per flit", len(timed), len(untimed))
	}
	for _, timed := range []bool{false, true} {
		data := save(orig, timed)
		loaded := &queues(1, 3)[0]
		if err := load(loaded, data, timed); err != nil {
			t.Fatalf("timed=%v: %v", timed, err)
		}
		if loaded.Len() != 3 {
			t.Fatalf("timed=%v: loaded %d flits, want 3", timed, loaded.Len())
		}
		for k := 0; k < 3; k++ {
			w, g := orig.At(k), loaded.At(k)
			ready := w.Ready
			if !timed {
				ready = 0
			}
			if g.F.ID != w.F.ID || g.Ready != ready || g.Want != 0 || g.Route != 0 {
				t.Errorf("timed=%v entry %d: loaded {%d %d %d %d}, want {%d %d 0 0}", timed, k, g.F.ID, g.Ready, g.Want, g.Route, w.F.ID, ready)
			}
		}
		if !bytes.Equal(save(loaded, timed), data) {
			t.Errorf("timed=%v: the loaded queue saves to other bytes", timed)
		}
	}

	four := &queues(1, 4)[0]
	fill(four, 1, 2, 3, 4)
	forged := &queues(1, 3)[0]
	if err := load(forged, save(four, false), false); err == nil || forged.Len() != 0 {
		t.Fatalf("a depth-3 queue loaded a 4-flit stream: err %v, %d flits", err, forged.Len())
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

// TestCreditsState pins the credit counter's section: available, pending, the
// pipeline length and its slots, the credits due soonest first. A delay-1
// counter has no pipeline array, its one slot being pendingCnt, so that slot
// must still carry the pending credits; a loaded counter matures them
// on schedule and saves back to the same bytes.
func TestCreditsState(t *testing.T) {
	save := func(c *Credits) []byte {
		var buf bytes.Buffer
		w := snapshot.NewWriter(&buf)
		if err := c.State(w); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, delay := range []int{1, 3} {
		c := NewCredits(4, delay)
		for i := 0; i < 3; i++ {
			c.Consume()
		}
		c.Return()
		c.Return()
		var buf bytes.Buffer
		w := snapshot.NewWriter(&buf)
		avail, pending := 1, 2
		snapshot.Int(w, &avail)
		snapshot.Int(w, &pending)
		w.Len(delay, delay)
		for i := 0; i < delay; i++ {
			slot := 0
			if i == delay-1 {
				slot = 2
			}
			snapshot.Int(w, &slot)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		data := save(c)
		if !bytes.Equal(data, buf.Bytes()) {
			t.Fatalf("delay %d: the counter saves as %x, want %x", delay, data, buf.Bytes())
		}
		loaded := NewCredits(4, delay)
		r, err := snapshot.NewReader(data)
		if err != nil {
			t.Fatal(err)
		}
		if err := loaded.State(r); err != nil {
			t.Fatalf("delay %d: %v", delay, err)
		}
		if !bytes.Equal(save(loaded), data) {
			t.Errorf("delay %d: the loaded counter saves to other bytes", delay)
		}
		for i := 1; i <= delay; i++ {
			loaded.Tick()
			want := 1
			if i == delay {
				want = 3
			}
			if loaded.Available() != want {
				t.Errorf("delay %d: %d credits available after %d ticks, want %d", delay, loaded.Available(), i, want)
			}
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
