package crossbar

import (
	"fmt"
	"math/bits"
)

// Entry ends of a unified-crossbar input row. The bufferless (primary-path)
// demultiplexer output drives the row from the low end; the buffered
// (secondary-path) output drives it from the high end.
const (
	EntryLow  = 0 // bufferless candidate
	EntryHigh = 1 // buffered candidate
)

// Unified is the dual-input single crossbar of §II.B (Fig. 4a): an n×n
// matrix crossbar with a transmission gate between every pair of adjacent
// output columns on each input row. Turning a gate off segments the row so
// two flits can traverse it simultaneously:
//
//	low entry ──[col0]──g0──[col1]──g1──[col2]──g2──[col3]──g3──[col4]── high entry
//
// A flit entering from the low end reaching column c needs gates g0..g(c-1)
// conducting; a flit from the high end reaching column c needs gates
// gc..g(n-2) conducting; both at once need lowCol < highCol, so that a gate
// between them can be turned off.
type Unified struct {
	n        int
	dead     bool
	rowCol   [64][2]int8 // per row: column driven from [EntryLow, EntryHigh], -1 free
	usedRows uint64      // bit i set = row i has at least one entry connected
	outMask  uint64      // bit o set = output column o driven this cycle
}

// NewUnified returns a fault-free n×n unified crossbar (n = 5 in the paper).
func NewUnified(n int) *Unified {
	u := new(Unified)
	u.Init(n)
	return u
}

// Init makes u a fault-free n×n unified crossbar in place (NewUnified).
func (u *Unified) Init(n int) {
	if n < 2 || n > 64 {
		panic(fmt.Sprintf("crossbar: unified crossbar needs radix in [2,64], got %d", n))
	}
	*u = Unified{n: n}
	for i := range u.rowCol[:n] {
		u.rowCol[i] = [2]int8{-1, -1}
	}
}

// Reset clears per-cycle connection state. Only rows that were actually
// driven are cleared (usedRows tracks them), so an idle router's Reset is a
// pair of word stores.
func (u *Unified) Reset() {
	for m := u.usedRows; m != 0; m &= m - 1 {
		u.rowCol[bits.TrailingZeros64(m)] = [2]int8{-1, -1}
	}
	u.usedRows = 0
	u.outMask = 0
}

// TryConnect probes and (on OK) drives output column out from row in,
// entering at the given end: Fault when the crossbar is dead, Busy on
// occupancy conflicts — including a same-row companion the row cannot be
// segmented away from.
func (u *Unified) TryConnect(in, entry, out int) Status {
	if in < 0 || in >= u.n || out < 0 || out >= u.n || (entry != EntryLow && entry != EntryHigh) {
		panic(fmt.Sprintf("crossbar: unified connect(%d,%d,%d) out of range", in, entry, out))
	}
	if u.dead {
		return Fault
	}
	if u.rowCol[in][entry] != -1 || u.outMask&(1<<uint(out)) != 0 {
		return Busy
	}
	// Check compatibility with the companion already on this row.
	if otherCol := int(u.rowCol[in][1-entry]); otherCol != -1 {
		lowCol, highCol := out, otherCol
		if entry == EntryHigh {
			lowCol, highCol = otherCol, out
		}
		if lowCol >= highCol {
			// The segmentation ordering is violated; the allocator's swap
			// logic is responsible for never issuing this.
			return Busy
		}
	}
	u.rowCol[in][entry] = int8(out)
	u.usedRows |= 1 << uint(in)
	u.outMask |= 1 << uint(out)
	return OK
}

// Kill marks the whole unified crossbar failed.
func (u *Unified) Kill() { u.dead = true }

// Dead reports whether the crossbar has failed.
func (u *Unified) Dead() bool { return u.dead }
