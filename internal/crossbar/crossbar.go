// Package crossbar provides structural models of the two switch fabrics the
// paper builds routers from:
//
//   - XBar: a plain matrix crossbar (the baseline's 5×5 switch, and the
//     primary/secondary crossbars of the dual-crossbar DXbar router). It
//     tracks per-cycle input/output occupancy, counts traversals for the
//     energy model, and supports crosspoint faults and whole-crossbar
//     failure (§II.C).
//   - Unified: the dual-input single crossbar (§II.B, Fig. 4): one matrix
//     crossbar whose output lines carry transmission gates, so each input
//     row can be segmented and carry two flits simultaneously — one entering
//     from the low end (the bufferless path) and one from the high end (the
//     buffered path) — provided the low-entry flit uses a lower-numbered
//     output column. Gates can be stuck-on or stuck-off for fault studies.
//
// Connection state is per cycle: routers call Reset at the start of each
// cycle, then Connect for every granted flit; Connect validates the request
// against occupancy and fault state exactly the way the paper's allocator
// probes a crosspoint (busy/free test, §III.E).
//
// All per-cycle occupancy and all fault state is held as uint64 bitmasks
// (one word per input row, one word per occupancy vector), so Reset is two
// word stores and a connection probe is a handful of bit tests — the
// bit-parallel discipline the whole router core is built on.
package crossbar

import (
	"errors"
	"fmt"
)

// Connection errors. Routers distinguish ErrFault (a permanent hardware
// fault was hit — triggers fault detection) from occupancy errors (normal
// contention — a simulator bug if allocation was correct).
var (
	// ErrFault is returned when the requested path crosses a faulty
	// crosspoint, a dead crossbar, or an unusable transmission-gate
	// configuration.
	ErrFault = errors.New("crossbar: path is faulty")
	// ErrBusy is returned when the input or output line is already driven
	// this cycle.
	ErrBusy = errors.New("crossbar: resource busy")
)

// Status is the allocation-free probe result of TryConnect: the same
// three-way outcome Connect encodes as error values, as a plain enum for
// the bit-parallel hot path (no errors.Is chain per probe).
type Status int8

// TryConnect outcomes.
const (
	OK Status = iota
	Busy
	Fault
)

// Err converts a Status to the corresponding Connect error (nil for OK).
func (s Status) Err() error {
	switch s {
	case Busy:
		return ErrBusy
	case Fault:
		return ErrFault
	}
	return nil
}

// XBar is a numIn×numOut matrix crossbar.
type XBar struct {
	numIn, numOut int
	// faultRow[i] has bit o set when crosspoint (i,o) is permanently
	// faulty; anyFault caches whether any row is non-zero, so the healthy
	// hot path skips the row load entirely. dead marks whole-crossbar
	// failure.
	faultRow []uint64
	anyFault bool
	dead     bool
	// inMask/outMask are the per-cycle occupancy vectors (bit i / bit o set
	// = line already driven). connected[i] is the output driven by input i,
	// valid only where inMask has bit i (stale entries are never read).
	inMask, outMask uint64
	connected       []int8
	traversals      uint64
}

// NewXBar returns a fault-free crossbar of the given radix. Both radices
// must fit a 64-bit occupancy word.
func NewXBar(numIn, numOut int) *XBar {
	if numIn <= 0 || numOut <= 0 || numIn > 64 || numOut > 64 {
		panic(fmt.Sprintf("crossbar: invalid radix %dx%d", numIn, numOut))
	}
	return &XBar{
		numIn:     numIn,
		numOut:    numOut,
		faultRow:  make([]uint64, numIn),
		connected: make([]int8, numIn),
	}
}

// NumIn returns the input radix.
func (x *XBar) NumIn() int { return x.numIn }

// NumOut returns the output radix.
func (x *XBar) NumOut() int { return x.numOut }

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
	x.connected[in] = int8(out)
	x.traversals++
	return OK
}

// Connect establishes input→output for this cycle. It returns ErrFault if
// the crosspoint is faulty or the crossbar is dead, ErrBusy if either line
// is already driven.
func (x *XBar) Connect(in, out int) error { return x.TryConnect(in, out).Err() }

// Connected returns the output driven by input in this cycle (-1 if none).
func (x *XBar) Connected(in int) int {
	if x.inMask&(1<<uint(in)) == 0 {
		return -1
	}
	return int(x.connected[in])
}

// FreeOutMask returns the bitmask of output lines not yet driven this cycle
// (bit o set = output o free), over the crossbar's output radix.
func (x *XBar) FreeOutMask() uint64 {
	return ^x.outMask & (uint64(1)<<uint(x.numOut) - 1)
}

// Traversals returns the cumulative number of successful connections, which
// the energy model multiplies by the per-flit crossbar energy.
func (x *XBar) Traversals() uint64 { return x.traversals }

// InjectCrosspointFault marks one crosspoint permanently faulty.
func (x *XBar) InjectCrosspointFault(in, out int) {
	x.faultRow[in] |= 1 << uint(out)
	x.anyFault = true
}

// Kill marks the whole crossbar permanently failed (§II.C fault model).
func (x *XBar) Kill() { x.dead = true }

// Dead reports whether the whole crossbar has failed.
func (x *XBar) Dead() bool { return x.dead }

// CrosspointCount returns the number of crosspoints (area model input).
func (x *XBar) CrosspointCount() int { return x.numIn * x.numOut }
