package energy

import "fmt"

// Static (leakage) power model — an extension beyond the paper's
// dynamic-energy evaluation. The paper's *motivation* (§I) is that "input
// buffers contribute to a significant portion (~40%) of the total power
// budget"; that fraction only materializes when buffer leakage is included
// alongside dynamic access energy. These constants are calibrated so the
// generic Buffered 4 router at a typical operating point (UR, load 0.3)
// spends ~40% of its total power in the buffers, reproducing the premise
// (asserted by TestBufferPowerShareMatchesMotivation and, on a simulated run,
// by the power-budget claim row TestPaperClaims/ext-power-030-buffered4-share).
//
// The paper's figures remain dynamic-only (its Fig. 6 shows bufferless and
// DXbar at parity at zero load, which only holds without leakage), so
// static power is reported separately and never folded into AvgEnergyNJ.
const (
	// BufferSlotLeakPJPerCycle is the leakage of one flit-wide buffer slot
	// per cycle (128-bit register file cell, 65 nm).
	BufferSlotLeakPJPerCycle = 0.8
	// CrosspointLeakPJPerCycle is the leakage of one crossbar crosspoint
	// per cycle.
	CrosspointLeakPJPerCycle = 0.05
	// LinkLeakPJPerCycle is the repeater leakage of the four output links
	// per cycle.
	LinkLeakPJPerCycle = 2.0
	// AllocLeakPJPerCycle covers the allocator and control logic.
	AllocLeakPJPerCycle = 0.4
)

// routerStatic describes a design's leaky inventory.
type routerStatic struct {
	bufferSlots int
	crosspoints int
}

func staticInventory(design string) (routerStatic, error) {
	switch design {
	case "flitbless", "scarab":
		return routerStatic{bufferSlots: 0, crosspoints: 20}, nil
	case "buffered4":
		return routerStatic{bufferSlots: 16, crosspoints: 25}, nil
	case "buffered8":
		return routerStatic{bufferSlots: 32, crosspoints: 25}, nil
	case "dxbar":
		return routerStatic{bufferSlots: 16, crosspoints: 45}, nil // 4×5 + 5×5
	case "unified":
		return routerStatic{bufferSlots: 16, crosspoints: 25}, nil
	case "afc":
		// AFC power-gates its buffers in bufferless mode. Its leakage is
		// the worst case, buffered mode, in every run: Result.Power does
		// not weight it by the time spent in each mode.
		return routerStatic{bufferSlots: 16, crosspoints: 25}, nil
	}
	return routerStatic{}, fmt.Errorf("energy: unknown design %q", design)
}

// RouterStaticPJPerCycle returns one router's total leakage per cycle (pJ).
func RouterStaticPJPerCycle(design string) (float64, error) {
	inv, err := staticInventory(design)
	if err != nil {
		return 0, err
	}
	return float64(inv.bufferSlots)*BufferSlotLeakPJPerCycle +
		float64(inv.crosspoints)*CrosspointLeakPJPerCycle +
		LinkLeakPJPerCycle + AllocLeakPJPerCycle, nil
}

// BufferStaticPJPerCycle returns only the buffer leakage per router cycle.
func BufferStaticPJPerCycle(design string) (float64, error) {
	inv, err := staticInventory(design)
	if err != nil {
		return 0, err
	}
	return float64(inv.bufferSlots) * BufferSlotLeakPJPerCycle, nil
}

// PowerBreakdown splits a run's power into buffer and non-buffer parts,
// combining windowed dynamic event counts with leakage. All values are in
// milliwatts for the whole network at the 1 GHz clock (1 cycle = 1 ns, so
// pJ/cycle ≡ mW).
type PowerBreakdown struct {
	BufferDynamicMW  float64
	BufferStaticMW   float64
	OtherDynamicMW   float64
	OtherStaticMW    float64
	TotalMW          float64
	BufferShareOfTot float64
}

// Breakdown computes the power split for a design from windowed event
// counts over `cycles` cycles on `nodes` routers.
func Breakdown(design string, c Counts, cycles uint64, nodes int) (PowerBreakdown, error) {
	if cycles == 0 || nodes <= 0 {
		return PowerBreakdown{}, fmt.Errorf("energy: breakdown needs cycles and nodes")
	}
	p := pricesOf(design)
	bufDynPJ := float64(c.BufferWrites)*p.write + float64(c.BufferReads)*p.read
	totDynPJ := EnergyPJ(design, c)
	bufLeak, err := BufferStaticPJPerCycle(design)
	if err != nil {
		return PowerBreakdown{}, err
	}
	totLeak, err := RouterStaticPJPerCycle(design)
	if err != nil {
		return PowerBreakdown{}, err
	}
	perCycle := float64(cycles)
	b := PowerBreakdown{
		BufferDynamicMW: bufDynPJ / perCycle,
		BufferStaticMW:  bufLeak * float64(nodes),
		OtherDynamicMW:  (totDynPJ - bufDynPJ) / perCycle,
		OtherStaticMW:   (totLeak - bufLeak) * float64(nodes),
	}
	b.TotalMW = b.BufferDynamicMW + b.BufferStaticMW + b.OtherDynamicMW + b.OtherStaticMW
	if b.TotalMW > 0 {
		b.BufferShareOfTot = (b.BufferDynamicMW + b.BufferStaticMW) / b.TotalMW
	}
	return b, nil
}
