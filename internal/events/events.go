// Package events is the runtime flight recorder: a fixed-capacity,
// overwrite-oldest ring buffer of typed per-flit events recorded from the
// routers and the engine while a simulation runs. It answers the question
// aggregate statistics cannot — "what happened to *this* packet at *this*
// router" — for debugging livelock, starvation, fault degradation and
// tail-latency outliers in deflection networks.
//
// Not to be confused with internal/traffic's traces, which capture and replay
// the *input* workload (the packets a Source generates). This package records
// the *runtime* behaviour of the network while it switches those packets.
//
// The recorder is built for bounded overhead: it is off by default (a nil
// *Recorder is a valid, inert recorder — every method is nil-safe), and when
// on it records into a preallocated ring with zero allocations per event —
// no interfaces, no strings, no maps on the hot path. A per-kind bitmask
// filters at record time, and a per-router × per-kind counter matrix is
// maintained alongside the ring so whole-run counts survive ring overwrite.
package events

import (
	"fmt"
	"strings"

	"dxbar/internal/flit"
)

// Kind is the type of one recorded event.
type Kind uint8

// The event kinds, covering every per-flit decision point of the router
// designs plus the per-router control-plane transitions.
const (
	// Inject: a flit left its source injection queue and entered the
	// network. Detail is the queueing delay in cycles (entry − generation).
	Inject Kind = iota
	// PrimaryWin: an incoming flit won arbitration and switched through the
	// primary (bufferless) path in its arrival cycle. Port is the input
	// port, Detail the output port (DXbar, unified).
	PrimaryWin
	// Buffered: a flit lost arbitration (or hit a dead fabric) and was
	// demuxed into a buffer. Port is the input port, Detail the buffer
	// occupancy after the write (DXbar, unified, buffered baselines, AFC).
	Buffered
	// Retransmit: a source retransmission was scheduled for the flit. Node
	// is the flit's source, Detail the delay in cycles until reinjection
	// (SCARAB NACK path, fault recovery).
	Retransmit
	// Deflect: a flit was assigned a non-productive output port. Port is
	// the port it was deflected to, Detail its total deflections so far
	// (Flit-Bless, AFC bufferless mode).
	Deflect
	// Drop: a flit was dropped at the router. Detail is the NACK return
	// distance to the source in hops (SCARAB).
	Drop
	// Swap: the unified allocator's conflict-free swap logic exchanged the
	// crossbar entry points of the two sub-inputs of one port. Detail is
	// the number of swaps this cycle; no flit is attached.
	Swap
	// FairnessFlip: the router's fairness counter reached its threshold and
	// flipped priority to the waiting flits (§II.A.2). Detail is the
	// router's total flips so far; no flit is attached.
	FairnessFlip
	// FaultManifest: an injected crossbar fault physically manifested at
	// this router. Detail is the faulty fabric (0 primary, 1 secondary); no
	// flit is attached.
	FaultManifest
	// FaultDetected: BIST flagged the manifest fault; the router degrades
	// into single-fabric operation (§II.C). Detail as FaultManifest.
	FaultDetected
	// Eject: a flit was delivered at its destination. Detail is the flit's
	// end-to-end latency in cycles (delivery − generation).
	Eject

	// NumKinds is the number of event kinds.
	NumKinds = int(Eject) + 1
)

var kindNames = [NumKinds]string{
	"inject", "primary_win", "buffered", "retransmit", "deflect",
	"drop", "swap", "fairness_flip", "fault_manifest", "fault_detected",
	"eject",
}

// String returns the kind's snake_case name (the name KindByName accepts).
func (k Kind) String() string {
	if int(k) < NumKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// PerFlit reports whether events of this kind carry a flit (packet/flit
// IDs); Swap, FairnessFlip and the fault transitions are router-scoped.
func (k Kind) PerFlit() bool {
	switch k {
	case Swap, FairnessFlip, FaultManifest, FaultDetected:
		return false
	}
	return true
}

// KindByName resolves a snake_case kind name.
func KindByName(name string) (Kind, bool) {
	for i, n := range kindNames {
		if n == name {
			return Kind(i), true
		}
	}
	return 0, false
}

// KindNames lists every kind name in kind order (CLI help, mask parsing).
func KindNames() []string {
	return append([]string(nil), kindNames[:]...)
}

// ParseKinds resolves a list of kind names (each entry may itself be a
// comma-separated list). An empty list means "all kinds".
func ParseKinds(names []string) ([]Kind, error) {
	var kinds []Kind
	for _, entry := range names {
		for _, name := range strings.Split(entry, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			k, ok := KindByName(name)
			if !ok {
				return nil, fmt.Errorf("events: unknown event kind %q (known: %s)",
					name, strings.Join(kindNames[:], " "))
			}
			kinds = append(kinds, k)
		}
	}
	return kinds, nil
}

// Event is one recorded flight-recorder entry. The struct is flat and
// string-free so the ring is a single contiguous allocation and recording is
// a struct store.
type Event struct {
	// Cycle is the cycle the event happened at.
	Cycle uint64
	// PacketID and FlitID identify the flit involved (0 for router-scoped
	// kinds; real packet IDs start at 1).
	PacketID uint64
	FlitID   uint64
	// Detail is kind-specific (see the Kind constants).
	Detail int32
	// Node is the router the event happened at.
	Node int32
	// Kind is the event type.
	Kind Kind
	// Port is the kind-specific port (input port for arbitration events,
	// assigned port for deflections, Local for inject/eject, Invalid when
	// not meaningful).
	Port flit.Port
}

// String renders a compact debug representation.
func (e Event) String() string {
	if e.Kind.PerFlit() {
		return fmt.Sprintf("ev{c=%d n=%d %s pkt=%d flit=%d port=%s detail=%d}",
			e.Cycle, e.Node, e.Kind, e.PacketID, e.FlitID, e.Port, e.Detail)
	}
	return fmt.Sprintf("ev{c=%d n=%d %s detail=%d}", e.Cycle, e.Node, e.Kind, e.Detail)
}
