// Package crossbar provides structural models of the two switch fabrics the
// paper builds routers from:
//
//   - XBar: a plain matrix crossbar (the primary/secondary crossbars of the
//     dual-crossbar DXbar router). It tracks per-cycle input/output
//     occupancy and supports crosspoint faults and whole-crossbar failure
//     (§II.C).
//   - Unified: the dual-input single crossbar (§II.B, Fig. 4): one matrix
//     crossbar whose output lines carry transmission gates, so each input
//     row can be segmented and carry two flits simultaneously — one entering
//     from the low end (the bufferless path) and one from the high end (the
//     buffered path) — provided the low-entry flit uses a lower-numbered
//     output column.
//
// Connection state is per cycle: routers call Reset at the start of each
// cycle, then TryConnect for every granted flit; TryConnect validates the
// request against occupancy and fault state exactly the way the paper's
// allocator probes a crosspoint (busy/free test, §III.E).
//
// All per-cycle occupancy and all fault state is held as uint64 bitmasks
// (one word per input row, one word per occupancy vector), so Reset is two
// word stores and a connection probe is a handful of bit tests — the
// bit-parallel discipline the whole router core is built on.
package crossbar

import "fmt"

// Status is the allocation-free result of a TryConnect probe.
type Status int8

// TryConnect outcomes. Routers distinguish Fault (a permanent hardware fault
// was hit: a faulty crosspoint, a dead crossbar) from Busy (normal
// contention: the input or output line is already driven this cycle).
const (
	OK Status = iota
	Busy
	Fault
)

// maxInputs bounds an XBar's input radix: its fault rows are held by value,
// one word per input, so a router holds its crossbars without a heap object
// each. The routers' crossbars have four or five inputs.
const maxInputs = 8

// XBar is a numIn×numOut matrix crossbar.
type XBar struct {
	numIn, numOut int
	// faultRow[i] has bit o set when crosspoint (i,o) is permanently
	// faulty; anyFault caches whether any row is non-zero, so the healthy
	// hot path skips the row load entirely. dead marks whole-crossbar
	// failure.
	faultRow [maxInputs]uint64
	anyFault bool
	dead     bool
	// inMask/outMask are the per-cycle occupancy vectors (bit i / bit o set
	// = line already driven).
	inMask, outMask uint64
}

// NewXBar returns a fault-free crossbar of the given radix: at most
// maxInputs inputs, and outputs that fit a 64-bit occupancy word.
func NewXBar(numIn, numOut int) *XBar {
	x := new(XBar)
	x.Init(numIn, numOut)
	return x
}

// Init makes x a fault-free crossbar of the given radix in place (NewXBar).
func (x *XBar) Init(numIn, numOut int) {
	if numIn <= 0 || numOut <= 0 || numIn > maxInputs || numOut > 64 {
		panic(fmt.Sprintf("crossbar: invalid radix %dx%d", numIn, numOut))
	}
	*x = XBar{numIn: numIn, numOut: numOut}
}

// Reset clears all per-cycle connections (call at the start of each cycle).
func (x *XBar) Reset() {
	x.inMask, x.outMask = 0, 0
}

// TryConnect probes and (on OK) establishes input→output for this cycle:
// Fault if the crosspoint is faulty or the crossbar dead, Busy if either
// line is already driven.
func (x *XBar) TryConnect(in, out int) Status {
	if in < 0 || in >= x.numIn || out < 0 || out >= x.numOut {
		panic(fmt.Sprintf("crossbar: connect(%d,%d) out of range", in, out))
	}
	outBit := uint64(1) << uint(out)
	if x.dead || (x.anyFault && x.faultRow[in]&outBit != 0) {
		return Fault
	}
	inBit := uint64(1) << uint(in)
	if x.inMask&inBit != 0 || x.outMask&outBit != 0 {
		return Busy
	}
	x.inMask |= inBit
	x.outMask |= outBit
	return OK
}

// InjectCrosspointFault marks one crosspoint permanently faulty.
func (x *XBar) InjectCrosspointFault(in, out int) {
	x.faultRow[in] |= 1 << uint(out)
	x.anyFault = true
}

// Kill marks the whole crossbar permanently failed (§II.C fault model).
func (x *XBar) Kill() { x.dead = true }

// Dead reports whether the whole crossbar has failed.
func (x *XBar) Dead() bool { return x.dead }
