package dxbar

// This file is the run-health glue between the public Run path and
// internal/diag: per-run monitor construction and post-mortem bundle assembly.

import (
	"fmt"
	"io"
	"log/slog"
	"strconv"
	"strings"

	"dxbar/internal/diag"
	"dxbar/internal/events"
	"dxbar/internal/metrics"
	"dxbar/internal/report"
	"dxbar/internal/sim"
	"dxbar/internal/stats"
)

// runDiag is one run's resolved diagnostics: the monitor the engine feeds,
// the bundle directory, and the registry/logger the bundle writer uses.
type runDiag struct {
	mon    *diag.Monitor
	dir    string
	reg    *metrics.Registry
	logger *slog.Logger
}

// newRunDiag resolves a run's diagnostics from its config (a nil Config.Diag
// means diag's built-in thresholds). Returns a zero runDiag (nil monitor —
// every hook no-ops) when diagnostics are disabled.
func newRunDiag(cfg Config, nodes int) runDiag {
	if cfg.DisableDiag {
		return runDiag{}
	}
	var dcfg diag.Config
	if cfg.Diag != nil {
		dcfg = *cfg.Diag
	}
	if dcfg.Registry == nil {
		dcfg.Registry = cfg.Metrics
	}
	return runDiag{
		mon:    diag.NewMonitor(dcfg, nodes),
		dir:    cfg.DiagDir,
		reg:    dcfg.Registry,
		logger: dcfg.Logger,
	}
}

// installDumper wires the monitor's post-mortem dump callback to a bundle
// writer over the run's live state. No-op when bundles are disabled (no
// directory) or diagnostics are off.
func (d runDiag) installDumper(cfg Config, net *Network, coll *stats.Collector, rec *events.Recorder, ckpt *checkpointTracker) {
	if d.mon == nil || d.dir == "" {
		return
	}
	d.mon.SetDumper(func(cycle uint64, reason string) {
		path, err := writeRunBundle(d.dir, reason, cycle, cfg, net, coll, rec, d.reg, d.mon, ckpt)
		if d.logger == nil {
			return
		}
		if err != nil {
			d.logger.Error("post-mortem bundle failed", "dir", path, "reason", reason, "err", err)
		} else {
			d.logger.Warn("post-mortem bundle written", "dir", path, "reason", reason, "cycle", cycle)
		}
	})
}

// bundleRunState is run.json: the run's identity and the engine gauges worth
// having in front of you during a post-mortem.
type bundleRunState struct {
	Reason        string  `json:"reason"`
	Cycle         uint64  `json:"cycle"`
	Design        Design  `json:"design"`
	Routing       string  `json:"routing"`
	Pattern       string  `json:"pattern"`
	Load          float64 `json:"load"`
	Seed          int64   `json:"seed"`
	WarmupCycles  uint64  `json:"warmup_cycles"`
	MeasureCycles uint64  `json:"measure_cycles"`
	Shards        int     `json:"shards"`
	InFlightFlits int     `json:"in_flight_flits"`
	QueuedFlits   int     `json:"queued_flits"`
	EjectedFlits  uint64  `json:"ejected_flits"`
	DroppedFlits  uint64  `json:"dropped_flits"`
	MaxFlitAge    uint64  `json:"max_flit_age"`
	Interrupted   bool    `json:"interrupted"`
	// LastCheckpoint is the newest checkpoint file the run has written (empty
	// when checkpointing is off) — the restore point for post-mortem replay
	// (dxbar-sim -rewind) of the cycles leading into the anomaly.
	LastCheckpoint string `json:"last_checkpoint,omitempty"`
}

// bundleAnomalies is anomalies.json.
type bundleAnomalies struct {
	Anomalies []diag.Anomaly `json:"anomalies"`
	Dropped   uint64         `json:"dropped"`
}

// bundleShards is shards.json: the shard layout and execution profile of the
// run so far.
type bundleShards struct {
	Shards  int                `json:"shards"`
	Profile []sim.ShardProfile `json:"profile,omitempty"`
}

// writeRunBundle writes one self-contained post-mortem bundle for a live (or
// just-finished) run: config, anomaly records, run state, latency histogram,
// the flight-recorder ring as a Chrome trace, shard profile, final metrics
// snapshot and a goroutine dump, indexed by a trailing manifest.json. It
// runs at a sequential point of the cycle loop (a detector window boundary)
// or after the run, so everything it reads is consistent; it allocates
// freely — the failure path is not the hot path.
func writeRunBundle(dir, reason string, cycle uint64, cfg Config, net *Network, coll *stats.Collector, rec *events.Recorder, reg *metrics.Registry, mon *diag.Monitor, ckpt *checkpointTracker) (string, error) {
	state := bundleRunState{
		Reason:         reason,
		Cycle:          cycle,
		Design:         cfg.Design,
		Routing:        cfg.Routing,
		Pattern:        cfg.Pattern,
		Load:           cfg.Load,
		Seed:           cfg.Seed,
		WarmupCycles:   cfg.WarmupCycles,
		MeasureCycles:  cfg.MeasureCycles,
		Shards:         net.Engine.Shards(),
		InFlightFlits:  net.Engine.Pool().Outstanding(),
		QueuedFlits:    net.Engine.QueuedFlits(),
		EjectedFlits:   coll.TotalEjected(),
		DroppedFlits:   coll.Total("totalDropped"),
		MaxFlitAge:     mon.MaxFlitAge(),
		Interrupted:    diag.Interrupted(),
		LastCheckpoint: ckpt.get(),
	}

	label := fmt.Sprintf("%s %s %s load %.3f seed %d", cfg.Design, cfg.Routing, cfg.Pattern, cfg.Load, cfg.Seed)
	latency := HistogramRecordFor(label, Result{Results: coll.Results(), Load: cfg.Load})

	trace := report.TraceRecord{Series: label, Width: cfg.Width, Height: cfg.Height}
	if rec != nil {
		trace = TraceRecordFor(label, Result{
			Events: rec.Events(), Width: cfg.Width, Height: cfg.Height,
		})
	}

	entries := []diag.BundleEntry{
		diag.JSONEntry("anomalies.json", bundleAnomalies{
			Anomalies: mon.Anomalies(),
			Dropped:   mon.DroppedAnomalies(),
		}),
		diag.JSONEntry("config.json", cfg.withoutHandles()),
		diag.GoroutinesEntry(),
		diag.JSONEntry("latency.json", latency),
		diag.MetricsEntry(reg),
		diag.JSONEntry("run.json", state),
		diag.JSONEntry("shards.json", bundleShards{
			Shards:  net.Engine.Shards(),
			Profile: net.Engine.ShardProfiles(),
		}),
		diag.BundleEntry{Name: "trace.json", Write: func(w io.Writer) error {
			return report.WriteChromeTrace(w, trace)
		}},
	}
	return diag.WriteBundle(dir, reason, cycle, entries)
}

// AnomaliesText renders a run's anomaly records as a plain-text table — the
// CLI's end-of-run summary for sick runs.
func AnomaliesText(r Result) string {
	if len(r.Anomalies) == 0 {
		return "(no anomalies detected)"
	}
	t := report.Table{
		Title:   "run-health anomalies",
		Columns: []string{"kind", "cycle", "node", "packet", "flit", "value", "baseline"},
	}
	for _, a := range r.Anomalies {
		baseline := "-"
		if a.Baseline > 0 {
			baseline = strconv.FormatFloat(a.Baseline, 'f', 1, 64)
		}
		node := "-"
		if a.Node >= 0 {
			node = strconv.FormatInt(int64(a.Node), 10)
		}
		packet, flitID := "-", "-"
		if a.Kind == diag.KindStarvation {
			packet = strconv.FormatUint(a.PacketID, 10)
			flitID = strconv.FormatUint(a.FlitID, 10)
		}
		t.Rows = append(t.Rows, []string{
			a.Kind.String(),
			strconv.FormatUint(a.Cycle, 10),
			node, packet, flitID,
			strconv.FormatUint(a.Value, 10),
			baseline,
		})
	}
	var b strings.Builder
	_ = report.WriteTableText(&b, t)
	if r.AnomaliesDropped > 0 {
		fmt.Fprintf(&b, "(%d further anomalies beyond the record cap; counts in dxbar_anomaly_total are exact)\n", r.AnomaliesDropped)
	}
	return b.String()
}
