package router

import (
	"fmt"

	"dxbar/internal/flit"
	"dxbar/internal/snapshot"
)

// saveEntryQueue serializes one buffered-baseline FIFO oldest-first,
// including each entry's absolute eligibility cycle (the pipeline-delay
// timestamp a restored run must honour exactly).
func saveEntryQueue(w *snapshot.Writer, q *entryQueue) {
	w.U32(uint32(q.count))
	for i := 0; i < q.count; i++ {
		e := &q.entries[(q.headIdx+i)&(fifoDepth-1)]
		flit.Save(w, e.f)
		w.U64(e.ready)
	}
}

func loadEntryQueue(r *snapshot.Reader, q *entryQueue, pool *flit.Pool, nodes int) error {
	n := r.Len(fifoDepth)
	if err := r.Err(); err != nil {
		return err
	}
	*q = entryQueue{}
	for i := 0; i < n; i++ {
		f := pool.Get()
		if err := flit.Load(r, f, nodes); err != nil {
			return err
		}
		ready := r.U64()
		if err := r.Err(); err != nil {
			return err
		}
		q.push(bufEntry{f: f, ready: ready})
	}
	return nil
}

// SaveState serializes the buffered baseline's persistent state: the input
// FIFO contents with eligibility timestamps, the split-input steering
// pointers, and both allocators' rotation pointers (the branchy reference and
// its bit-parallel twin both persist so a restored run is bit-identical under
// either Config.ReferenceArbitration setting). The bank's derived state — the
// entries' request masks, the non-empty mask, the count — is not written.
func (b *Buffered) SaveState(w *snapshot.Writer) {
	w.Tag("BUFD")
	nq := int(b.bank.nq)
	for p := 0; p < flit.NumLinkPorts; p++ {
		w.U32(uint32(nq))
		for i := p * nq; i < (p+1)*nq; i++ {
			saveEntryQueue(w, &b.bank.q[i])
		}
		w.Int(int(b.bank.next[p]))
	}
	b.saveAllocators(w)
}

func (b *Buffered) saveAllocators(w *snapshot.Writer) {
	b.alloc.SaveState(w)
	b.fast.SaveState(w)
}

// LoadState restores the buffered baseline.
func (b *Buffered) LoadState(r *snapshot.Reader, pool *flit.Pool, nodes int) error {
	r.Expect("BUFD")
	nq := int(b.bank.nq)
	for p := 0; p < flit.NumLinkPorts; p++ {
		n := r.Len(nq)
		if err := r.Err(); err != nil {
			return err
		}
		if n != nq {
			return fmt.Errorf("router: snapshot FIFO bank width %d != configured %d", n, nq)
		}
		for i := p * nq; i < (p+1)*nq; i++ {
			if err := loadEntryQueue(r, &b.bank.q[i], pool, nodes); err != nil {
				return err
			}
		}
		nf := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		if nf < 0 || nf >= nq {
			return fmt.Errorf("router: snapshot FIFO steering pointer %d out of range", nf)
		}
		b.bank.next[p] = uint8(nf)
	}
	b.bank.rebuild(b.table, b.env.Node)
	return b.loadAllocators(r)
}

func (b *Buffered) loadAllocators(r *snapshot.Reader) error {
	if err := b.alloc.LoadState(r); err != nil {
		return err
	}
	return b.fast.LoadState(r)
}

// SaveState serializes the AFC router's persistent state (the shared mode
// controller is engine-level shared state, serialized once, not per router).
func (a *AFC) SaveState(w *snapshot.Writer) {
	w.Tag("AFCR")
	for i := range a.buf.bank.q[:flit.NumLinkPorts] { // one FIFO per input
		saveEntryQueue(w, &a.buf.bank.q[i])
	}
	a.buf.saveAllocators(w)
}

// LoadState restores the AFC router.
func (a *AFC) LoadState(r *snapshot.Reader, pool *flit.Pool, nodes int) error {
	r.Expect("AFCR")
	for i := range a.buf.bank.q[:flit.NumLinkPorts] {
		if err := loadEntryQueue(r, &a.buf.bank.q[i], pool, nodes); err != nil {
			return err
		}
	}
	a.buf.bank.rebuild(a.buf.table, a.buf.env.Node)
	return a.buf.loadAllocators(r)
}

// SaveState serializes the network-wide AFC mode controller: the mode state
// machine, the live flit census, and the decision window.
func (c *AFCController) SaveState(w *snapshot.Writer) {
	w.Tag("AFCC")
	w.Int(c.mode)
	w.Bool(c.draining)
	w.Int(c.next)
	w.I64(c.netFlits.Load())
	w.U64(c.windowStart)
	w.I64(c.windowDeflections.Load())
	w.I64(c.windowInjections.Load())
	w.U64(c.lastTick)
	w.Bool(c.started)
	w.U64(c.ModeSwitches)
}

// LoadState restores the AFC controller.
func (c *AFCController) LoadState(r *snapshot.Reader) error {
	r.Expect("AFCC")
	mode := r.Int()
	draining := r.Bool()
	next := r.Int()
	netFlits := r.I64()
	windowStart := r.U64()
	windowDeflections := r.I64()
	windowInjections := r.I64()
	lastTick := r.U64()
	started := r.Bool()
	modeSwitches := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if mode != afcModeBufferless && mode != afcModeBuffered {
		return fmt.Errorf("router: snapshot AFC mode %d invalid", mode)
	}
	if next != afcModeBufferless && next != afcModeBuffered {
		return fmt.Errorf("router: snapshot AFC next mode %d invalid", next)
	}
	if netFlits < 0 {
		return fmt.Errorf("router: snapshot AFC flit census %d negative", netFlits)
	}
	c.mode = mode
	c.draining = draining
	c.next = next
	c.netFlits.Store(netFlits)
	c.windowStart = windowStart
	c.windowDeflections.Store(windowDeflections)
	c.windowInjections.Store(windowInjections)
	c.lastTick = lastTick
	c.started = started
	c.ModeSwitches = modeSwitches
	return nil
}
