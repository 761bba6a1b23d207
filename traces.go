package dxbar

import (
	"fmt"
	"io"

	"dxbar/internal/coherence"
	"dxbar/internal/energy"
	"dxbar/internal/stats"
	"dxbar/internal/topology"
	"dxbar/internal/traffic"
)

// RecordSplash runs a coherence workload once (on the DXbar design, whose
// behaviour does not affect what the workload *generates* open-loop) and
// writes the generated packet trace to w. The trace can then be replayed
// against any design with RunTrace — a cheap way to compare designs on
// identical traffic.
//
// Note the recorded trace is open-loop: replaying it loses the
// request-reply timing dependence (a design that delivers slower will not
// slow the recorded injection down). Use RunSplash for the closed-loop
// Fig. 9/10 numbers; use traces for fast relative sweeps and regression
// diffs.
func RecordSplash(c SplashConfig, w io.Writer) error {
	c = splashDefaults(c)
	if c.Design == "" {
		c.Design = DesignDXbar
	}
	mesh, err := topology.NewMesh(c.Width, c.Height)
	if err != nil {
		return err
	}
	prof, ok := coherence.ProfileByName(c.Benchmark)
	if !ok {
		return fmt.Errorf("dxbar: unknown benchmark %q", c.Benchmark)
	}
	sys, err := coherence.NewSystem(mesh, prof, c.Seed)
	if err != nil {
		return err
	}
	rec := &traffic.Recorder{Inner: sys, Trace: traffic.Trace{Width: c.Width, Height: c.Height}}
	coll := stats.NewCollector(mesh.Nodes(), 0, c.MaxCycles)
	net, err := NewNetwork(NetworkOptions{
		Design:   c.Design,
		Routing:  c.Routing,
		Mesh:     mesh,
		Source:   rec,
		Sink:     sys,
		Stats:    coll,
		PreCycle: sys.PreCycle,
	})
	if err != nil {
		return err
	}
	if !net.Engine.RunUntil(sys.Quiesced, c.MaxCycles) {
		return fmt.Errorf("dxbar: benchmark %s did not finish within %d cycles", c.Benchmark, c.MaxCycles)
	}
	return rec.Trace.Write(w)
}

// TraceResult summarizes an open-loop trace replay.
type TraceResult struct {
	// CompletionCycles is the cycle by which every trace packet delivered.
	CompletionCycles uint64
	// Packets, AvgLatency and energy as in Result.
	Packets       uint64
	AvgLatency    float64
	AvgEnergyNJ   float64
	TotalEnergyNJ float64
	Design        Design
	Routing       string
}

// RunTrace replays a recorded trace against the given design.
func RunTrace(design Design, routingName string, r io.Reader, maxCycles uint64) (TraceResult, error) {
	tr, err := traffic.ReadTrace(r)
	if err != nil {
		return TraceResult{}, err
	}
	if maxCycles == 0 {
		maxCycles = 3_000_000
	}
	mesh, err := topology.NewMesh(tr.Width, tr.Height)
	if err != nil {
		return TraceResult{}, err
	}
	player := traffic.NewPlayer(tr)
	coll := stats.NewCollector(mesh.Nodes(), 0, maxCycles)
	net, err := NewNetwork(NetworkOptions{
		Design:  design,
		Routing: routingName,
		Mesh:    mesh,
		Source:  player,
		Stats:   coll,
	})
	if err != nil {
		return TraceResult{}, err
	}
	want := uint64(len(tr.Records))
	if !net.Engine.RunUntil(replayDone(player, net, want), maxCycles) {
		return TraceResult{}, fmt.Errorf("dxbar: trace replay did not drain within %d cycles "+
			"(%d packets delivered of %d)", maxCycles, coll.Total(packetsDelivered), want)
	}
	res := coll.Results()
	out := TraceResult{
		CompletionCycles: net.Engine.Cycle(),
		Packets:          res.Packets,
		AvgLatency:       res.AvgLatency,
		TotalEnergyNJ:    energy.EnergyPJ(string(design), coll.EnergyCounts()) / 1000.0,
		Design:           design,
		Routing:          routingName,
	}
	if res.Packets > 0 {
		out.AvgEnergyNJ = out.TotalEnergyNJ / float64(res.Packets)
	}
	return out, nil
}

// packetsDelivered is the collector's whole-run count of completed packets
// (stats.Collector.Total): a trace replay's window spans the whole run, so it
// equals Results().Packets without computing the summary.
const packetsDelivered = "totalPacketsDelivered"

// replayDone is RunTrace's stop condition, checked after every cycle: every
// record replayed, want packets delivered and no flit left queued. It reads
// counters only, so the replay's cycles allocate nothing.
func replayDone(p *traffic.Player, net *Network, want uint64) func() bool {
	return func() bool {
		return p.Remaining() == 0 && net.Stats.Total(packetsDelivered) >= want && net.Engine.QueuedFlits() == 0
	}
}
