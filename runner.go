package dxbar

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"dxbar/internal/coherence"
	"dxbar/internal/energy"
	"dxbar/internal/events"
	"dxbar/internal/faults"
	"dxbar/internal/metrics"
	"dxbar/internal/runstore"
	"dxbar/internal/sim"
	"dxbar/internal/stats"
	"dxbar/internal/topology"
	"dxbar/internal/traffic"
)

// latencyBounds caches the latency histogram's bucket bounds — identical for
// every run, and ~2000 float64s, so sweeps sharing a registry should not
// rebuild them per point.
var (
	latencyBoundsOnce sync.Once
	latencyBounds     []float64
)

// newTelemetry builds the per-run telemetry handle for a config, or nil when
// the config carries neither a registry nor a progress tracker.
func newTelemetry(cfg Config, mesh *topology.Mesh) *metrics.SimTelemetry {
	if cfg.Metrics == nil && cfg.Progress == nil {
		return nil
	}
	opts := metrics.SimTelemetryOptions{
		Shards:   sim.ResolveShards(cfg.Shards, mesh.Width, mesh.Height),
		Progress: cfg.Progress,
	}
	if cfg.Metrics != nil {
		latencyBoundsOnce.Do(func() { latencyBounds = stats.LatencyBucketUppers() })
		opts.LatencyBounds = latencyBounds
	}
	return metrics.NewSimTelemetry(cfg.Metrics, opts)
}

// shardImbalance is max/mean cumulative router-phase time over a profile.
func shardImbalance(profs []sim.ShardProfile) float64 {
	if len(profs) == 0 {
		return 0
	}
	var total, max float64
	for _, p := range profs {
		busy := p.RouterPhase.Seconds()
		total += busy
		if busy > max {
			max = busy
		}
	}
	if total == 0 {
		return 0
	}
	return max * float64(len(profs)) / total
}

// engineKey identifies the engines a runner may transparently reuse: an
// engine can only be Reset into a config with the same mesh and the same
// structural parameters (buffer depth, credit delay, resolved shard count).
type engineKey struct {
	width, height int
	bufferDepth   int
	creditDelay   int
	shards        int
}

// runner executes simulations while recycling meshes and engines across
// runs. Reusing an engine skips re-allocating every latch, buffer and
// scratch slice of the network (sim.Engine.Reset), which is what makes
// batch sweeps (RunMany, RunManySplash) cheap: each worker goroutine owns
// one runner and amortizes the network build over all its jobs.
//
// A runner is NOT safe for concurrent use; give each goroutine its own.
type runner struct {
	meshes  map[[2]int]*topology.Mesh
	engines map[engineKey]*sim.Engine
}

func newRunner() *runner {
	return &runner{
		meshes:  make(map[[2]int]*topology.Mesh),
		engines: make(map[engineKey]*sim.Engine),
	}
}

// mesh returns the cached mesh for the given dimensions, building it on
// first use. Engine reuse depends on mesh identity (sim.Engine.Reset
// requires the same *topology.Mesh), so all runs of one runner at the same
// dimensions share one mesh.
func (r *runner) mesh(w, h int) (*topology.Mesh, error) {
	key := [2]int{w, h}
	if m, ok := r.meshes[key]; ok {
		return m, nil
	}
	m, err := topology.NewMesh(w, h)
	if err != nil {
		return nil, err
	}
	r.meshes[key] = m
	return m, nil
}

// network builds (or recycles) a Network for the options. On a cache hit
// the engine is Reset in place — same mesh, fresh routers, fresh state —
// which preserves run-to-run determinism: a reset engine produces
// bit-identical results to a freshly built one.
func (r *runner) network(o NetworkOptions) (*Network, error) {
	cfg, factory, err := prepare(o)
	if err != nil {
		return nil, err
	}
	key := engineKey{
		width:       o.Mesh.Width,
		height:      o.Mesh.Height,
		bufferDepth: cfg.BufferDepth,
		creditDelay: cfg.CreditDelay,
		shards:      sim.ResolveShards(cfg.Shards, o.Mesh.Width, o.Mesh.Height),
	}
	if key.creditDelay == 0 {
		key.creditDelay = 1
	}
	if eng, ok := r.engines[key]; ok {
		if err := eng.Reset(cfg, factory); err == nil {
			return o.network(eng), nil
		}
		// Incompatible (e.g. a different mesh pointer slipped in): fall
		// through and rebuild.
		delete(r.engines, key)
	}
	eng, err := sim.New(cfg, factory)
	if err != nil {
		return nil, err
	}
	r.engines[key] = eng
	return o.network(eng), nil
}

// run is the open-loop synthetic-traffic simulation behind the public Run.
func (r *runner) run(c Config) (Result, error) {
	return r.runFrom(c, nil, 0)
}

// runFrom executes a run, optionally continuing from a checkpoint. With a
// nil Checkpoint it is the ordinary cold-start path. With one, the engine is
// restored before any cycle runs, and the run covers only the cycles the
// checkpoint hasn't already covered — the resumed run's Result is
// bit-identical to the uninterrupted run's. rewindWindow > 0 additionally
// clips the run to that many cycles past the checkpoint (the Rewind path);
// the partial window is renormalized like an interrupted run's.
func (r *runner) runFrom(c Config, ck *Checkpoint, rewindWindow uint64) (Result, error) {
	cfg := c.withDefaults()
	if cfg.EventTrace < 0 || cfg.EventTrace > maxEventTrace {
		return Result{}, fmt.Errorf("dxbar: EventTrace %d outside 0..%d", cfg.EventTrace, maxEventTrace)
	}
	// Run ledger: archive the completed run under its content hash and —
	// with LedgerReuse — recognize an already-archived identical run before
	// simulating a single cycle. Runs are deterministic, so a key hit is the
	// run's result. A misconfigured ledger directory fails fast here; write
	// failures later only log (like checkpoints, the archive is a safety
	// net, never the simulation's problem).
	var (
		led        *Ledger
		ledKey     string
		ledCfgJSON []byte
	)
	if cfg.LedgerDir != "" {
		var err error
		led, err = OpenLedger(cfg.LedgerDir)
		if err != nil {
			return Result{}, err
		}
		ledCfgJSON, err = json.Marshal(cfg.experiment())
		if err != nil {
			return Result{}, err
		}
		ledKey, ledCfgJSON, err = runstore.Key(runstore.KindRun, ledCfgJSON)
		if err != nil {
			return Result{}, err
		}
		if cfg.LedgerReuse && ck == nil && rewindWindow == 0 && ledgerReusable(cfg) {
			if rec, ok := led.Lookup(ledKey); ok {
				if res, err := LedgerResult(rec); err == nil {
					_, reuseHits := ledgerMetrics(cfg.Metrics)
					reuseHits.Add(1)
					if cfg.Progress != nil {
						total := cfg.WarmupCycles + cfg.MeasureCycles
						cfg.Progress.SetTotal(total)
						cfg.Progress.Set(total)
					}
					return res, nil
				}
			}
		}
	}
	mesh, err := r.mesh(cfg.Width, cfg.Height)
	if err != nil {
		return Result{}, err
	}
	pattern, err := traffic.New(cfg.Pattern, mesh)
	if err != nil {
		return Result{}, err
	}
	bern, err := traffic.NewBernoulli(mesh, pattern, cfg.Load, cfg.FlitsPerPacket, cfg.Seed)
	if err != nil {
		return Result{}, err
	}
	// Only a positive fraction builds a plan, so a negative or NaN one would
	// silently run a healthy network.
	if !(cfg.FaultFraction >= 0 && cfg.FaultFraction <= 1) {
		return Result{}, fmt.Errorf("dxbar: FaultFraction %v out of [0,1]", cfg.FaultFraction)
	}
	var plan *faults.Plan
	if cfg.FaultFraction > 0 {
		switch cfg.FaultGranularity {
		case "", "crossbar":
			plan, err = faults.NewPlan(mesh.Nodes(), cfg.FaultFraction, cfg.FaultCycle, cfg.Seed)
		case "crosspoint":
			plan, err = faults.NewCrosspointPlan(mesh.Nodes(), cfg.FaultFraction, cfg.FaultCycle, cfg.Seed)
		default:
			return Result{}, fmt.Errorf("dxbar: unknown fault granularity %q", cfg.FaultGranularity)
		}
		if err != nil {
			return Result{}, err
		}
	}
	coll := stats.NewCollector(mesh.Nodes(), cfg.WarmupCycles, cfg.WarmupCycles+cfg.MeasureCycles)
	if cfg.TrackUtilization {
		coll.EnableLinkUtilization(mesh.Width, mesh.Height)
	}
	if cfg.SampleInterval > 0 {
		total := cfg.WarmupCycles + cfg.MeasureCycles
		coll.EnableTimeSeries(cfg.SampleInterval, int(total/cfg.SampleInterval)+1)
	}
	var rec *events.Recorder
	if cfg.EventTrace > 0 {
		kinds, err := events.ParseKinds(cfg.EventKinds)
		if err != nil {
			return Result{}, err
		}
		rec = events.NewRecorder(mesh.Nodes(), cfg.EventTrace, kinds...)
	}
	tel := newTelemetry(cfg, mesh)
	if cfg.Progress != nil {
		cfg.Progress.SetTotal(cfg.WarmupCycles + cfg.MeasureCycles)
	}
	// Run-health monitor: on by default (newRunDiag returns a nil monitor —
	// every hook no-ops — only with cfg.DisableDiag). Detectors observe and
	// never steer, so results stay bit-identical either way.
	dg := newRunDiag(cfg, mesh.Nodes())
	net, err := r.network(NetworkOptions{
		Design:               cfg.Design,
		Routing:              cfg.Routing,
		Mesh:                 mesh,
		Source:               &sim.SourceAdapter{B: bern},
		Stats:                coll,
		FairnessThreshold:    cfg.FairnessThreshold,
		FaultPlan:            plan,
		BufferDepth:          cfg.BufferDepth,
		CreditDelay:          cfg.CreditDelay,
		PortOrderArbitration: cfg.PortOrderArbitration,
		Events:               rec,
		Shards:               cfg.Shards,
		Telemetry:            tel,
		Diag:                 dg.mon,
	})
	if err != nil {
		return Result{}, err
	}
	if ck != nil {
		if err := net.Engine.Restore(ck.engine); err != nil {
			return Result{}, err
		}
	}

	// Periodic checkpointing. A directory that cannot be created fails the
	// run here, like a misconfigured ledger; a write that fails later logs and
	// the run continues — a full disk should cost the safety net, not the
	// simulation.
	var ckptTrack *checkpointTracker
	var every uint64 // 0: no checkpoints
	if cfg.CheckpointInterval > 0 && cfg.CheckpointDir != "" {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return Result{}, fmt.Errorf("dxbar: checkpoint directory %s: %w", cfg.CheckpointDir, err)
		}
		every = cfg.CheckpointInterval
		ckptTrack = &checkpointTracker{}
	}
	// The bundle writer closes over the live network, so it installs after
	// the network exists; anomalies before the first detector window cannot
	// occur (the watchdog thresholds exceed the window).
	dg.installDumper(cfg, net, coll, rec, ckptTrack)

	total := cfg.WarmupCycles + cfg.MeasureCycles
	stop := total
	if ck != nil && rewindWindow > 0 {
		stop = min(stop, ck.Cycle+rewindWindow)
	}
	// One leg for warmup and measurement (the collector's window decides
	// which cycles' events count), cut at every multiple of the checkpoint
	// interval: a checkpoint is written between two Run calls, where the
	// engine's transient state (output latches, staged shard side effects) is
	// empty. A resumed engine's first checkpoint is the first multiple
	// strictly after the restored cycle. A stop request ends a leg short of
	// its mark, which ends the run.
	for cyc := net.Engine.Cycle(); cyc < stop; {
		mark := stop
		if every > 0 {
			mark = min(stop, (cyc/every+1)*every)
		}
		net.Engine.Run(mark - cyc)
		if cyc = net.Engine.Cycle(); cyc != mark {
			break
		}
		if every > 0 && cyc%every == 0 {
			if path, err := writeCheckpoint(cfg.CheckpointDir, cfg.CheckpointKeep, cfg, cyc, net.Engine); err == nil {
				ckptTrack.set(path)
			} else if dg.logger != nil {
				dg.logger.Error("checkpoint write failed", "dir", cfg.CheckpointDir, "cycle", cyc, "err", err)
			}
		}
	}

	window := coll.EnergyCounts()
	interrupted := dg.mon.StopRequested()
	// A run that stopped short of the configured window — graceful shutdown,
	// or a rewind clipped to its window — covers fewer cycles than the
	// collector was sized for; normalize the per-cycle rates and power by the
	// cycles actually simulated rather than the window that never completed.
	// One path for every early ending, whether or not Interrupted is set.
	measured := cfg.MeasureCycles
	if actual := net.Engine.Cycle(); actual < total {
		coll.Truncate(actual)
		measured = 0
		if actual > cfg.WarmupCycles {
			measured = actual - cfg.WarmupCycles
		}
		if measured == 0 {
			measured = 1 // ended in warmup: keep the power model defined
		}
	}
	// Final telemetry flush, then detach this run's residual gauge
	// contributions from the shared registry (counters stay — they are
	// cumulative across runs by design). An interrupted run flushes the
	// same way: graceful shutdown is exactly "stop early, publish, detach".
	net.Engine.FlushTelemetry()
	tel.Detach()
	if interrupted {
		// Leave a forensic bundle for the run that was cut short, unless an
		// anomaly already wrote one.
		dg.mon.FinalDump(net.Engine.Cycle(), "interrupt")
	}
	dg.mon.Detach()

	res := Result{
		Results:         coll.Results(),
		EventCounts:     window,
		TotalEnergyNJ:   energy.EnergyPJ(string(cfg.Design), window) / 1000.0,
		Design:          cfg.Design,
		Routing:         cfg.Routing,
		Pattern:         cfg.Pattern,
		Load:            cfg.Load,
		NodeUtilization: coll.NodeUtilization(),
		TimeSeries:      coll.Samples(),
		SampleInterval:  cfg.SampleInterval,
		Width:           cfg.Width,
		Height:          cfg.Height,
	}
	if rec != nil {
		res.Events = rec.Events()
		res.EventsRecorded = rec.Total()
		res.EventsOverwritten = rec.Overwritten()
		res.RouterEvents = rec.Matrix()
	}
	if cfg.ShardProfile {
		res.ShardProfile = net.Engine.ShardProfiles()
		res.ShardImbalance = shardImbalance(res.ShardProfile)
	}
	res.Anomalies = dg.mon.Anomalies()
	res.AnomaliesDropped = dg.mon.DroppedAnomalies()
	res.Interrupted = interrupted
	if res.Packets > 0 {
		res.AvgEnergyNJ = res.TotalEnergyNJ / float64(res.Packets)
	}
	res.Power, err = energy.Breakdown(string(cfg.Design), window, measured, mesh.Nodes())
	if err != nil {
		return Result{}, err
	}
	// Archive the completed run. Partial windows (graceful interrupt, rewind
	// clip) are skipped: a ledger record always describes the configured
	// window, so the content key stays truthful.
	if led != nil && !interrupted && net.Engine.Cycle() == total {
		if _, err := led.archiveRun(ledKey, ledCfgJSON, res); err != nil {
			if dg.logger != nil {
				dg.logger.Error("ledger write failed", "dir", cfg.LedgerDir, "key", ledKey, "err", err)
			}
		} else {
			records, _ := ledgerMetrics(cfg.Metrics)
			records.Add(1)
		}
	}
	return res, nil
}

// splashDefaults applies SplashConfig's defaults (shared by RunSplash and
// RecordSplash).
func splashDefaults(c SplashConfig) SplashConfig {
	if c.Width == 0 {
		c.Width = 8
	}
	if c.Height == 0 {
		c.Height = 8
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 3_000_000
	}
	if c.Routing == "" {
		c.Routing = "DOR"
	}
	return c
}

// runSplash is the closed-loop coherence simulation behind RunSplash.
func (r *runner) runSplash(c SplashConfig) (SplashResult, error) {
	c = splashDefaults(c)
	mesh, err := r.mesh(c.Width, c.Height)
	if err != nil {
		return SplashResult{}, err
	}
	prof, ok := coherence.ProfileByName(c.Benchmark)
	if !ok {
		return SplashResult{}, fmt.Errorf("dxbar: unknown benchmark %q", c.Benchmark)
	}
	if c.DetailedCaches {
		prof = prof.Detailed()
	}
	sys, err := coherence.NewSystem(mesh, prof, c.Seed)
	if err != nil {
		return SplashResult{}, err
	}
	coll := stats.NewCollector(mesh.Nodes(), 0, c.MaxCycles)
	net, err := r.network(NetworkOptions{
		Design:   c.Design,
		Routing:  c.Routing,
		Mesh:     mesh,
		Source:   sys,
		Sink:     sys,
		Stats:    coll,
		PreCycle: sys.PreCycle,
	})
	if err != nil {
		return SplashResult{}, err
	}
	if !net.Engine.RunUntil(sys.Quiesced, c.MaxCycles) {
		return SplashResult{}, fmt.Errorf("dxbar: benchmark %s on %s did not finish within %d cycles",
			c.Benchmark, c.Design, c.MaxCycles)
	}
	res := SplashResult{
		ExecutionCycles: sys.FinishCycle(),
		TotalEnergyNJ:   energy.EnergyPJ(string(c.Design), coll.EnergyCounts()) / 1000.0,
		Design:          c.Design,
		Routing:         c.Routing,
		Benchmark:       c.Benchmark,
	}
	sr := coll.Results()
	res.Packets = sr.Packets
	res.AvgLatency = sr.AvgLatency
	res.P50Latency = sr.P50Latency
	res.P99Latency = sr.P99Latency
	res.MaxLatency = sr.MaxLatency
	res.InFlightPackets = sr.InFlightPackets
	if sr.Packets > 0 {
		res.AvgEnergyNJ = res.TotalEnergyNJ / float64(sr.Packets)
	}
	return res, nil
}
