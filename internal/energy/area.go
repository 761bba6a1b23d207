package energy

import "fmt"

// Component areas in mm² at 65 nm (Table III structure). The paper's table
// prints the component values illegibly in the archived text; these values
// are chosen to satisfy every relation the prose states and are documented
// in EXPERIMENTS.md:
//
//   - the buffers have a larger area than the crossbar;
//   - DXbar occupies 33% more area than Flit-Bless/SCARAB, the unified
//     design 25% more;
//   - DXbar is larger than Buffered 4 but smaller than Buffered 8;
//   - both proposed designs are "much closer" to the buffered baselines.
const (
	// Crossbar5x5MM2 is a full 5×5 matrix crossbar.
	Crossbar5x5MM2 = 0.0058
	// Crossbar4x5MM2 is the DXbar primary (4 link inputs × 5 outputs),
	// scaled by crosspoint count.
	Crossbar4x5MM2 = Crossbar5x5MM2 * 20 / 25
	// UnifiedGateOverhead is the transmission-gate area overhead of the
	// unified crossbar relative to a plain 5×5.
	UnifiedGateOverhead = 0.20
	// FourBuffers4MM2 is four 4-flit serial FIFOs (one per link input).
	FourBuffers4MM2 = 0.0074
	// FourLinksMM2 is the four 128-bit input links with look-ahead wires.
	FourLinksMM2 = 0.0342
	// DeflectLogicMM2 is Flit-Bless's permutation/deflection logic.
	DeflectLogicMM2 = 0.0008
	// NackNetworkMM2 is SCARAB's dedicated circuit-switched NACK wiring.
	NackNetworkMM2 = 0.0012
	// AllocatorMM2 approximates the baseline separable allocator.
	AllocatorMM2 = 0.0006
	// DualAllocatorMM2 is DXbar's augmented allocator (demuxes, muxes,
	// fairness counter) and the unified design's swap logic.
	DualAllocatorMM2 = 0.0008
	// UnifiedAllocatorMM2 is the dual-input allocator with the two serial
	// V:1 arbiters and the conflict detection/switch logic.
	UnifiedAllocatorMM2 = 0.0010
)

// Timing constants from §III.B (Synopsys, 65 nm, 1 GHz target).
const (
	// LinkTraversalNS is the critical path: the LT stage (0.47 ns).
	LinkTraversalNS = 0.47
	// UnifiedSwitchWorstNS is the unified crossbar's longest switch
	// traversal, with all 5 transmission gates switching (0.27 ns).
	UnifiedSwitchWorstNS = 0.27
	// ClockCycleNS is the targeted clock (1 GHz).
	ClockCycleNS = 1.0
)

// Table3Row is one row of the reproduced Table III.
type Table3Row struct {
	Design string
	// AreaMM2 is the per-router area.
	AreaMM2 float64
	// BufferEnergyPJ is the buffer energy per buffered flit (write+read);
	// 0 for the bufferless designs.
	BufferEnergyPJ float64
}

// RouterArea returns the per-router area in mm² for a design name as used
// throughout the repository ("flitbless", "scarab", "buffered4",
// "buffered8", "dxbar", "unified"; routing suffixes are ignored).
func RouterArea(design string) (float64, error) {
	switch design {
	case "flitbless":
		return FourLinksMM2 + Crossbar4x5MM2 + DeflectLogicMM2, nil
	case "scarab":
		return FourLinksMM2 + Crossbar4x5MM2 + DeflectLogicMM2 + NackNetworkMM2, nil
	case "buffered4":
		return FourLinksMM2 + Crossbar5x5MM2 + FourBuffers4MM2 + AllocatorMM2, nil
	case "buffered8":
		return FourLinksMM2 + Crossbar5x5MM2 + 2*FourBuffers4MM2 + AllocatorMM2 + 0.0002, nil
	case "dxbar":
		return FourLinksMM2 + Crossbar4x5MM2 + Crossbar5x5MM2 + FourBuffers4MM2 + DualAllocatorMM2, nil
	case "unified":
		return FourLinksMM2 + Crossbar5x5MM2*(1+UnifiedGateOverhead) + FourBuffers4MM2 + UnifiedAllocatorMM2, nil
	}
	return 0, fmt.Errorf("energy: unknown design %q", design)
}

// BufferEnergyPerFlit returns the write+read buffer energy per buffered flit
// for a design (the Table III "Buffer Energy" column).
func BufferEnergyPerFlit(design string) (float64, error) {
	switch design {
	case "flitbless", "scarab":
		return 0, nil
	case "buffered4", "buffered8", "dxbar", "unified":
		p := pricesOf(design)
		return p.write + p.read, nil
	}
	return 0, fmt.Errorf("energy: unknown design %q", design)
}

// Table3 reproduces Table III for the six evaluated designs, in the paper's
// row order.
func Table3() []Table3Row {
	designs := []string{"flitbless", "scarab", "buffered4", "buffered8", "dxbar", "unified"}
	rows := make([]Table3Row, 0, len(designs))
	for _, d := range designs {
		area, _ := RouterArea(d)
		be, _ := BufferEnergyPerFlit(d)
		rows = append(rows, Table3Row{Design: d, AreaMM2: area, BufferEnergyPJ: be})
	}
	return rows
}
