package dxbar

// Checkpoint & resume: a run with Config.CheckpointInterval/CheckpointDir set
// periodically serializes its complete engine state — every flit in flight,
// injection backlogs, the retransmit wheel, credit pipelines, the source RNG
// state, the collector (energy counts included), recorder and monitor state —
// into an atomic-renamed file. Resume continues such a run bit-identically;
// Rewind re-runs a window from a checkpoint with the flight recorder widened,
// for post-mortem re-execution of an interesting region (a p99 outlier, an
// anomaly storm) at full trace detail without re-simulating from cycle 0.
//
// File format: one snapshot stream (internal/snapshot — magic, version, CRC)
// holding a "CKPT" section with the cycle, the scrubbed run config as JSON and
// the engine's own Snapshot stream as a nested byte string. The nesting keeps
// the engine encoding identical to what Engine.Snapshot writes, so the
// round-trip and fuzz suites exercise the same bytes the files carry.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"dxbar/internal/sim"
	"dxbar/internal/snapshot"
)

// defaultCheckpointKeep is how many checkpoint files a run retains when
// Config.CheckpointKeep is 0.
const defaultCheckpointKeep = 3

// checkpointPattern matches the files written by checkpointed runs.
const checkpointPattern = "ckpt-*.dxsn"

// Checkpoint is one decoded checkpoint file: the run configuration it was
// taken under, the cycle it captures and the engine snapshot itself. The
// measurement window's counts, energy included, are in the engine's
// collector.
type Checkpoint struct {
	// Config is the saved run configuration (defaults applied, live handles
	// scrubbed). Resume re-runs it verbatim; ResumeWith lets the caller
	// adjust observation-layer fields first.
	Config Config
	// Cycle is the engine cycle the checkpoint captures.
	Cycle uint64

	engine []byte
}

// writeCheckpoint serializes one checkpoint file under dir, atomically:
// the stream is written to a temp file in the same directory and renamed into
// place, so a kill -9 at any instant leaves either the previous file set or
// the new one — never a torn file. After the rename, older checkpoints beyond
// keep are pruned. Returns the final path.
func writeCheckpoint(dir string, keep int, cfg Config, cyc uint64, eng *sim.Engine) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	cfgJSON, err := json.Marshal(cfg.withoutHandles())
	if err != nil {
		return "", err
	}
	ck := &Checkpoint{Cycle: cyc}
	var engBuf bytes.Buffer
	if err := eng.Snapshot(&engBuf); err != nil {
		return "", err
	}
	ck.engine = engBuf.Bytes()

	tmp, err := os.CreateTemp(dir, "ckpt-*.tmp")
	if err != nil {
		return "", err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename

	w := snapshot.NewWriter(tmp)
	if err = ck.state(w, &cfgJSON); err == nil {
		err = w.Close()
	}
	if err != nil {
		tmp.Close()
		return "", err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return "", err
	}
	if err := tmp.Close(); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("ckpt-%012d.dxsn", cyc))
	if err := os.Rename(tmp.Name(), path); err != nil {
		return "", err
	}
	pruneCheckpoints(dir, keep)
	return path, nil
}

// pruneCheckpoints removes all but the newest keep checkpoint files. Cycle
// numbers are zero-padded to fixed width, so lexical order is cycle order.
func pruneCheckpoints(dir string, keep int) {
	if keep <= 0 {
		keep = defaultCheckpointKeep
	}
	paths, err := filepath.Glob(filepath.Join(dir, checkpointPattern))
	if err != nil || len(paths) <= keep {
		return
	}
	sort.Strings(paths)
	for _, p := range paths[:len(paths)-keep] {
		os.Remove(p)
	}
}

// LatestCheckpoint returns the newest checkpoint file under dir, or an error
// when none exist.
func LatestCheckpoint(dir string) (string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, checkpointPattern))
	if err != nil {
		return "", err
	}
	if len(paths) == 0 {
		return "", fmt.Errorf("dxbar: no checkpoint files under %s", dir)
	}
	sort.Strings(paths)
	return paths[len(paths)-1], nil
}

// LoadCheckpoint reads and validates a checkpoint file without building an
// engine. Any truncation, bit flip or structural mismatch is an error — the
// engine blob's own integrity is verified again at restore time.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r, err := snapshot.NewReader(data)
	if err != nil {
		return nil, fmt.Errorf("dxbar: checkpoint %s: %w", path, err)
	}
	ck := &Checkpoint{}
	var cfgJSON []byte
	if err = ck.state(r, &cfgJSON); err == nil {
		err = r.Close()
	}
	if err != nil {
		return nil, fmt.Errorf("dxbar: checkpoint %s: %w", path, err)
	}
	if err := json.Unmarshal(cfgJSON, &ck.Config); err != nil {
		return nil, fmt.Errorf("dxbar: checkpoint %s: config: %w", path, err)
	}
	// The engine blob aliases the file buffer; copy so the Checkpoint owns
	// its bytes independent of the (now unreferenced) read buffer.
	ck.engine = append([]byte(nil), ck.engine...)
	return ck, nil
}

// state is the CKPT section's codec: the cycle, the scrubbed config JSON and
// the nested engine stream.
func (ck *Checkpoint) state(s *snapshot.Stream, cfgJSON *[]byte) error {
	s.Tag("CKPT")
	s.U64(&ck.Cycle)
	s.Bytes(cfgJSON)
	s.Bytes(&ck.engine)
	return s.Err()
}

// Resume continues a checkpointed run to its configured end. The result is
// bit-identical to the uninterrupted run's: the checkpoint captures every
// piece of state the remaining cycles depend on, including the RNG state.
// Checkpointing stays enabled under the saved config, so a resumed run keeps
// writing checkpoints into the same directory.
func Resume(path string) (Result, error) {
	return ResumeWith(path, nil)
}

// ResumeWith continues a checkpointed run after letting mutate adjust the
// saved config. Only observation-layer fields may change — tracing, shard
// count, diagnostics, checkpoint cadence, metrics — anything that steers
// results (design, mesh, load, seed, window) must stay, and the restore
// rejects structural mismatches it can detect.
func ResumeWith(path string, mutate func(*Config)) (Result, error) {
	ck, err := LoadCheckpoint(path)
	if err != nil {
		return Result{}, err
	}
	if mutate != nil {
		mutate(&ck.Config)
	}
	return newRunner().runFrom(ck.Config, ck, 0)
}

// Rewind restores a checkpoint and re-runs up to window cycles from it with
// the flight recorder widened to every event kind — the post-mortem loupe:
// restore just before the region of interest and replay it at full trace
// detail. trace is the recorder ring capacity (0 keeps the saved config's
// EventTrace). The returned Result covers only the cycles actually re-run
// (partial-window metrics are renormalized exactly like an interrupted
// run's); further checkpoint writes are disabled during the rewind. mutate
// (may be nil) adjusts the saved config first, as in ResumeWith — how a
// process reattaches its own registry, logger and thresholds; the rewind's
// settings above win over it.
func Rewind(path string, window uint64, trace int, mutate func(*Config)) (Result, error) {
	ck, err := LoadCheckpoint(path)
	if err != nil {
		return Result{}, err
	}
	if window == 0 {
		return Result{}, fmt.Errorf("dxbar: rewind window must be positive")
	}
	if mutate != nil {
		mutate(&ck.Config)
	}
	ck.Config.CheckpointInterval = 0
	ck.Config.CheckpointDir = ""
	if trace > 0 {
		ck.Config.EventTrace = trace
	}
	ck.Config.EventKinds = nil // widened: record every kind
	return newRunner().runFrom(ck.Config, ck, window)
}

// checkpointTracker records the most recent checkpoint path of a live run, so
// the diag post-mortem bundle can point at it. runFrom writes checkpoints
// between Run calls and the bundle writer runs at sequential points of the
// cycle loop, but the tracker is also read by FinalDump after the run; a
// mutex keeps it safe regardless of caller.
type checkpointTracker struct {
	mu   sync.Mutex
	path string
}

func (t *checkpointTracker) set(p string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.path = p
	t.mu.Unlock()
}

func (t *checkpointTracker) get() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.path
}
