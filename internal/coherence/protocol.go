package coherence

import (
	"fmt"
	"math/bits"
)

// MsgType enumerates the MESI directory-protocol messages that travel the
// network.
type MsgType int

// Protocol message types.
const (
	// GetS requests a block for reading (requester → home).
	GetS MsgType = iota
	// GetM requests a block for writing (requester → home).
	GetM
	// Data carries a cache block (home/owner → requester, 5 flits).
	Data
	// FwdGetS asks a dirty owner to forward data and downgrade to S.
	FwdGetS
	// FwdGetM asks a dirty owner to forward data and invalidate.
	FwdGetM
	// Inv asks a sharer to invalidate (home → sharer).
	Inv
	// InvAck confirms an invalidation (sharer → requester).
	InvAck
	// Unblock tells the home the transaction completed (requester → home).
	Unblock
	// Put writes a dirty block back on eviction (owner → home, 5 flits).
	Put
	// PutAck confirms a writeback (home → evictor).
	PutAck
	// UpgAck grants a data-less write upgrade: the requester already holds
	// the block in shared state, so only ownership (plus any outstanding
	// invalidation acks) travels — one flit instead of a 5-flit Data.
	UpgAck
)

// String returns the message-type mnemonic.
func (t MsgType) String() string {
	switch t {
	case GetS:
		return "GetS"
	case GetM:
		return "GetM"
	case Data:
		return "Data"
	case FwdGetS:
		return "FwdGetS"
	case FwdGetM:
		return "FwdGetM"
	case Inv:
		return "Inv"
	case InvAck:
		return "InvAck"
	case Unblock:
		return "Unblock"
	case Put:
		return "Put"
	case PutAck:
		return "PutAck"
	case UpgAck:
		return "UpgAck"
	}
	return fmt.Sprintf("MsgType(%d)", int(t))
}

// Flits returns the message's packet size in flits.
func (t MsgType) Flits() int {
	if t == Data || t == Put {
		return DataFlits
	}
	return CtrlFlits
}

// message is one protocol message, a small value: the in-flight table, the
// event calendar and the wait queues hold messages, not pointers to them.
type message struct {
	addr uint64
	typ  MsgType
	// from and to are tile/directory node indices.
	from, to int32
	// requester is the tile the transaction serves (meaningful for
	// Fwd*/Inv, whose reply targets differ from their sender).
	requester int32
	// acks is the invalidation-ack count carried by a Data reply for a
	// GetM over shared state.
	acks int32
}

// dirState is a directory entry's stable MESI state (the requester-side
// E vs S distinction is irrelevant to network traffic, so E is folded into
// S — exclusive-clean replies generate the same messages).
type dirState int

const (
	dirInvalid dirState = iota
	dirShared
	dirModified
)

func (s dirState) String() string {
	switch s {
	case dirInvalid:
		return "I"
	case dirShared:
		return "S"
	case dirModified:
		return "M"
	}
	return "?"
}

// dirEntry is the directory's view of one block. Entries are carved from
// slab chunks (System.entry) and never move, so events may point at them.
type dirEntry struct {
	state dirState
	// busy marks an in-flight transaction; further requests queue.
	busy  bool
	owner int32
	// sharers is a bitset over tiles: ascending iteration is the sorted
	// order invalidations must go out in.
	sharers nodeSet
	// waiting holds the requests that arrived while busy, FIFO.
	waiting fifo
}

// nodeSet is a bitset over node indices.
type nodeSet []uint64

func (b nodeSet) add(n int)      { b[n>>6] |= 1 << (uint(n) & 63) }
func (b nodeSet) remove(n int)   { b[n>>6] &^= 1 << (uint(n) & 63) }
func (b nodeSet) has(n int) bool { return b[n>>6]>>(uint(n)&63)&1 != 0 }

// next returns the lowest member that is at least from, or -1.
func (b nodeSet) next(from int) int {
	for w := from >> 6; w < len(b); w++ {
		x := b[w]
		if w == from>>6 {
			x &= ^uint64(0) << (uint(from) & 63)
		}
		if x != 0 {
			return w<<6 + bits.TrailingZeros64(x)
		}
	}
	return -1
}
