package dxbar

// The run ledger: every completed run can be archived into a
// content-addressed store (internal/runstore) keyed by a hash of its
// configuration. Runs are deterministic — same config + seed is
// bit-identical — so the key is the result's identity and the ledger doubles
// as a cross-process result cache: Config.LedgerReuse returns an archived
// Result without simulating. Archiving happens once, after the run
// completes; the cycle loop never sees the ledger, so results are
// bit-identical with it on or off (TestLedgerBitIdentity).
//
// A record stores the Result whole: its latency histogram encodes itself as
// its non-empty bins plus the maximum (stats.Histogram.MarshalJSON), so one
// json.Unmarshal in LedgerResult gives back a Result deep-equal to the
// freshly simulated one.

import (
	"encoding/json"
	"fmt"

	"dxbar/internal/metrics"
	"dxbar/internal/runstore"
)

// LedgerRecord is one archived run entry (see internal/runstore.Record):
// schema version, content key, environment stamp, and the raw config/result
// JSON payloads.
type LedgerRecord = runstore.Record

// Ledger is a handle on a run-ledger directory.
type Ledger struct {
	store *runstore.Store
}

// OpenLedger opens (creating if needed) the ledger directory dir.
func OpenLedger(dir string) (*Ledger, error) {
	s, err := runstore.Open(dir)
	if err != nil {
		return nil, err
	}
	return &Ledger{store: s}, nil
}

// Dir returns the ledger directory.
func (l *Ledger) Dir() string { return l.store.Dir() }

// Lookup is the dedup probe: (record, true) when the key is archived,
// readable and provably the record archived under it (runstore.Store.Lookup).
func (l *Ledger) Lookup(key string) (*LedgerRecord, bool) { return l.store.Lookup(key) }

// Path returns the file a key's record lives at.
func (l *Ledger) Path(key string) string { return l.store.Path(key) }

// LedgerKey returns the content address Run archives c under: a SHA-256
// over the defaulted configuration's experiment (Config.experiment). Fields
// that cannot change the Result (live handles, checkpoint/ledger/diag
// directories, shard count — sharding is bit-identical) are excluded, so a
// sequential run and a sharded run of the same experiment share one record.
func LedgerKey(c Config) (string, error) {
	cfgJSON, err := json.Marshal(c.withDefaults().experiment())
	if err != nil {
		return "", err
	}
	key, _, err := runstore.Key(runstore.KindRun, cfgJSON)
	return key, err
}

// ledgerReusable reports whether a config's Result can be faithfully
// reconstructed from a ledger record: event traces carry an opaque
// per-router counter matrix, and shard profiles are wall-clock measurements
// that differ run to run — both fall back to simulating.
func ledgerReusable(cfg Config) bool {
	return cfg.EventTrace == 0 && !cfg.ShardProfile
}

// archiveRun writes a completed run into the ledger under its precomputed
// key and canonical config (runstore.Key's) and returns the record path.
func (l *Ledger) archiveRun(key string, cfgJSON []byte, res Result) (string, error) {
	resJSON, err := json.Marshal(res)
	if err != nil {
		return "", fmt.Errorf("dxbar: ledger: marshal result: %w", err)
	}
	return l.store.Put(&runstore.Record{Kind: runstore.KindRun, Key: key, Config: cfgJSON, Result: resJSON})
}

// LedgerResult decodes a run record back into a Result, histogram included,
// in one json.Unmarshal. The decoded Result is deep-equal to the one the
// archiving run returned (for configs ledgerReusable accepts — reuse never
// serves traced or profiled runs).
func LedgerResult(rec *LedgerRecord) (Result, error) {
	if rec.Kind != runstore.KindRun {
		return Result{}, fmt.Errorf("dxbar: ledger record %.12s is a %q record, not a run", rec.Key, rec.Kind)
	}
	var res Result
	if err := json.Unmarshal(rec.Result, &res); err != nil {
		return Result{}, fmt.Errorf("dxbar: ledger record %.12s: %w", rec.Key, err)
	}
	return res, nil
}

// ledgerMetrics registers (or fetches) the ledger's counter families on reg.
// Nil-safe: a nil registry hands back no-op handles.
func ledgerMetrics(reg *metrics.Registry) (records, reuseHits *metrics.Counter) {
	records = reg.Counter(metrics.MetricLedgerRecords,
		"Run-ledger records archived (one per completed run with Config.LedgerDir set).")
	reuseHits = reg.Counter(metrics.MetricLedgerReuseHits,
		"Runs satisfied from the ledger without re-simulating (content-hash dedup).")
	return records, reuseHits
}
