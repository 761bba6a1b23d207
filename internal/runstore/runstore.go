// Package runstore is the content-addressed run ledger: a directory of
// schema-versioned JSON records, one per completed simulation, keyed by a
// cryptographic hash of the run's configuration. Because runs are
// deterministic (same config + seed ⇒ bit-identical Result), the key IS the
// result's identity — the ledger doubles as a dedup cache: before
// re-simulating, look the key up and reuse the archived record.
//
// The package mirrors the checkpoint subsystem's durability discipline:
// records are written to a temp file in the destination directory, fsynced
// and renamed into place, so a crash at any instant leaves either the old
// record set or the new one — never a torn file. Records carry an
// environment stamp (Go version, platform, git revision) so cross-machine
// and cross-version comparisons stay honest, but the stamp is metadata: it
// never enters the key.
package runstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// Schema is the ledger record format version. Bump on any incompatible
// change to Record's JSON shape; readers reject newer schemas rather than
// misinterpreting them.
const Schema = 1

// KindRun is the one record kind written: an open-loop synthetic-traffic run
// (dxbar.Result). The kind is part of the content key and readers reject any
// other, so a ledger written by a build with more kinds stays safe to open.
const KindRun = "run"

// recordPattern matches the files a Store writes.
const recordPattern = "run-*.json"

// EnvStamp records the environment a result was produced under. It is
// metadata for cross-run comparison — never part of the content key.
type EnvStamp struct {
	// Go is the toolchain that built the binary (runtime.Version()).
	Go string `json:"go"`
	// OS and Arch are the platform (GOOS/GOARCH).
	OS   string `json:"os"`
	Arch string `json:"arch"`
	// NumCPU is the host's logical CPU count (wall-clock context for any
	// sharded-speedup comparison).
	NumCPU int `json:"num_cpu"`
	// GitRevision and GitDirty identify the source tree, read from the
	// binary's embedded VCS build info. Empty/false when the binary was
	// built outside a checkout (go test binaries, stripped builds).
	GitRevision string `json:"git_revision,omitempty"`
	GitDirty    bool   `json:"git_dirty,omitempty"`
}

// Stamp captures the current environment. The VCS fields come from
// debug.ReadBuildInfo — no subprocess, so stamping works in sandboxes
// without a git binary.
func Stamp() EnvStamp {
	e := EnvStamp{
		Go:     runtime.Version(),
		OS:     runtime.GOOS,
		Arch:   runtime.GOARCH,
		NumCPU: runtime.NumCPU(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.GitRevision = s.Value
			case "vcs.modified":
				e.GitDirty = s.Value == "true"
			}
		}
	}
	return e
}

// Record is one archived run: the scrubbed configuration that keys it, the
// full result payload, and the environment it was produced under. Config and
// Result stay raw JSON so the ledger never imports the simulator — the same
// inversion internal/report uses.
type Record struct {
	// Schema is the record format version (the package Schema at write time).
	Schema int `json:"schema"`
	// Key is the content address: Key(Kind, Config).
	Key string `json:"key"`
	// Kind is the payload family (KindRun).
	Kind string `json:"kind"`
	// CreatedAt is the archive time (UTC).
	CreatedAt time.Time `json:"created_at"`
	// Env stamps the producing environment.
	Env EnvStamp `json:"env"`
	// Meta carries free-form bench metadata (label, CLI provenance).
	Meta map[string]string `json:"meta,omitempty"`
	// Config is the scrubbed run configuration the key hashes.
	Config json.RawMessage `json:"config"`
	// Result is the archived result payload.
	Result json.RawMessage `json:"result"`
	// Latency optionally carries the latency distribution in its exported
	// bucket form (the in-Result histogram is an opaque fixed array that
	// does not survive JSON; this does).
	Latency json.RawMessage `json:"latency,omitempty"`
	// Digest is the hex SHA-256 of Config, Result and Latency as the record
	// file holds them (see digest): Put writes it, Lookup checks it.
	Digest string `json:"digest,omitempty"`
}

// digest hashes a record's payloads, each prefixed with its length.
func digest(rec *Record) string {
	h := sha256.New()
	for _, raw := range []json.RawMessage{rec.Config, rec.Result, rec.Latency} {
		fmt.Fprintf(h, "%d:%s", len(raw), raw)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Key computes a record's content address: hex SHA-256 over the kind and the
// canonicalized config JSON. Canonicalization re-marshals through untyped
// maps, whose keys encoding/json sorts — so two configs with the same fields
// in different order (or produced by different struct versions with
// identical content) hash identically.
func Key(kind string, configJSON []byte) (string, error) {
	var v any
	if err := json.Unmarshal(configJSON, &v); err != nil {
		return "", fmt.Errorf("runstore: key: config is not valid JSON: %w", err)
	}
	canon, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("runstore: key: %w", err)
	}
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write(canon)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Store is a ledger directory. Concurrent writers are safe against each
// other at the filesystem level (atomic rename); a Store itself is stateless.
type Store struct {
	dir string
}

// Open returns a Store over dir, creating the directory if absent.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("runstore: empty ledger directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runstore: open %s: %w", dir, err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the ledger directory.
func (s *Store) Dir() string { return s.dir }

// Path returns the file a key's record lives at (whether or not it exists).
func (s *Store) Path(key string) string {
	return filepath.Join(s.dir, "run-"+key+".json")
}

// Put archives a record, filling Schema, CreatedAt and Env when unset,
// computing Key from (Kind, Config) when empty, and setting Digest. The write
// is atomic: temp file, fsync, rename. An existing record under the same key
// is replaced — deterministic payloads make the overwrite a refresh of the
// metadata, not a change of content. Returns the record's final path.
func (s *Store) Put(rec *Record) (string, error) {
	if rec.Kind == "" {
		return "", fmt.Errorf("runstore: record kind is required")
	}
	if len(rec.Config) == 0 {
		return "", fmt.Errorf("runstore: record config is required")
	}
	if rec.Schema == 0 {
		rec.Schema = Schema
	}
	if rec.Key == "" {
		k, err := Key(rec.Kind, rec.Config)
		if err != nil {
			return "", err
		}
		rec.Key = k
	}
	if rec.CreatedAt.IsZero() {
		rec.CreatedAt = time.Now().UTC()
	}
	if rec.Env == (EnvStamp{}) {
		rec.Env = Stamp()
	}
	rec.Digest = ""
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return "", fmt.Errorf("runstore: marshal record: %w", err)
	}
	// MarshalIndent re-indents the payloads, and the digest covers them as
	// the file holds them (so Lookup hashes what it reads, with no JSON
	// pass): read them back from the encoding, then encode again with the
	// digest, which leaves them byte for byte as they were.
	var written Record
	if err := json.Unmarshal(data, &written); err != nil {
		return "", fmt.Errorf("runstore: reread record: %w", err)
	}
	rec.Digest = digest(&written)
	if data, err = json.MarshalIndent(rec, "", "  "); err != nil {
		return "", fmt.Errorf("runstore: marshal record: %w", err)
	}
	data = append(data, '\n')

	tmp, err := os.CreateTemp(s.dir, "run-*.tmp")
	if err != nil {
		return "", err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
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
	path := s.Path(rec.Key)
	if err := os.Rename(tmp.Name(), path); err != nil {
		return "", err
	}
	return path, nil
}

// Lookup is the dedup probe: the record for key, or (nil, false) when it is
// absent, unreadable or not provably the record Put wrote for key — its key
// field or the key its Config hashes to is another, or its Digest is absent or
// disagrees with its payloads. A miss re-simulates and rewrites the record, so
// a broken or edited record never blocks a re-simulation and is never served.
func (s *Store) Lookup(key string) (*Record, bool) {
	rec, err := LoadRecord(s.Path(key))
	if err != nil || rec.Key != key || rec.Digest != digest(rec) {
		return nil, false
	}
	if k, err := Key(rec.Kind, rec.Config); err != nil || k != key {
		return nil, false
	}
	return rec, true
}

// List loads every record in the store, sorted by creation time (ties broken
// by key). Unreadable files are skipped — a ledger listing is an analytics
// input, not an integrity check.
func (s *Store) List() ([]*Record, error) {
	paths, err := filepath.Glob(filepath.Join(s.dir, recordPattern))
	if err != nil {
		return nil, err
	}
	var out []*Record
	for _, p := range paths {
		if strings.HasSuffix(p, ".tmp") {
			continue
		}
		rec, err := LoadRecord(p)
		if err != nil {
			continue
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].CreatedAt.Equal(out[j].CreatedAt) {
			return out[i].CreatedAt.Before(out[j].CreatedAt)
		}
		return out[i].Key < out[j].Key
	})
	return out, nil
}

// LoadRecord reads one record file. Missing, truncated, newer-schema and
// non-ledger JSON files (no key or kind) are errors.
func LoadRecord(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("runstore: %s: %w", path, err)
	}
	if rec.Schema > Schema {
		return nil, fmt.Errorf("runstore: %s: schema %d is newer than supported %d", path, rec.Schema, Schema)
	}
	if rec.Key == "" || rec.Kind == "" {
		return nil, fmt.Errorf("runstore: %s: missing key or kind", path)
	}
	return &rec, nil
}
