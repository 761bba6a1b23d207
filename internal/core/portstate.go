package core

import "dxbar/internal/flit"

// PortState is the structure-of-arrays gather of one router's per-cycle
// arbitration candidates: instead of a slice of (flit pointer, port) pairs
// that every comparison chases through the heap, the fields age-based
// arbitration actually touches — the deflection-priority key, the
// destination node, the source port — live in small parallel arrays on the
// router, with a validity bitmask over the slots. Sorting by age then moves
// one byte per slot (the Order permutation) and compares words that sit on
// the same cache line, and "which slots hold flits" is one mask test.
//
// A PortState is per-router scratch, reset and refilled every cycle; the
// arrays are sized by the port count, which bounds the candidates of every
// design.
type PortState struct {
	// Flits holds the candidate in each filled slot; Src its input port.
	Flits [flit.NumPorts]*flit.Flit
	Src   [flit.NumPorts]flit.Port
	// Dst caches the flit's destination node; Key/ID its age-arbitration key
	// (injection cycle, then flit ID — the total order of flit.Older).
	Dst [flit.NumPorts]int32
	Key [flit.NumPorts]uint64
	ID  [flit.NumPorts]uint64
	// Route is a DXbar waiter's packed productive list (routing.Table.RouteAt),
	// set by the caller in the slot Add returns.
	Route [flit.NumPorts]uint16
	// Order is the age-sorted slot permutation (valid after SortAge; filled
	// with insertion order otherwise). Valid has bit s set when slot s is
	// filled; N counts filled slots.
	Order [flit.NumPorts]int8
	Valid uint8
	N     int
}

// Reset empties the state (two stores).
func (ps *PortState) Reset() {
	ps.Valid = 0
	ps.N = 0
}

// Add fills the next slot with f arriving from src and returns the slot
// index. Order is extended in insertion order (callers that skip SortAge get
// first-come order, which the static port-order ablation relies on).
func (ps *PortState) Add(f *flit.Flit, src flit.Port) int {
	s := ps.N
	ps.Flits[s] = f
	ps.Src[s] = src
	ps.Dst[s] = int32(f.Dst)
	ps.Key[s] = f.InjectionCycle
	ps.ID[s] = f.ID
	ps.Order[s] = int8(s)
	ps.Valid |= 1 << uint(s)
	ps.N = s + 1
	return s
}

// SortAge sorts Order oldest-first by (Key, ID) — bit-identical to sorting
// the flits with flit.SortByAge, since both realize the same total order.
// Insertion sort over at most NumPorts slots.
func (ps *PortState) SortAge() {
	for i := 1; i < ps.N; i++ {
		s := ps.Order[i]
		k, id := ps.Key[s], ps.ID[s]
		j := i - 1
		for j >= 0 {
			t := ps.Order[j]
			if ps.Key[t] < k || (ps.Key[t] == k && ps.ID[t] < id) {
				break
			}
			ps.Order[j+1] = t
			j--
		}
		ps.Order[j+1] = s
	}
}
