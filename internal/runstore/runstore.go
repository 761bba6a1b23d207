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
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// Schema is the ledger record format version. Bump on any incompatible
// change to Record's JSON shape; readers reject every other schema, so an
// old record is a Lookup miss whose run re-simulates and rewrites it.
const Schema = 2

// KindRun is the one record kind written: an open-loop synthetic-traffic run
// (dxbar.Result). The kind is part of the content key and readers reject any
// other, so a ledger written by a build with more kinds stays safe to open.
const KindRun = "run"

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
	// Config is the scrubbed run configuration, canonical: the bytes Key hashes.
	Config json.RawMessage `json:"config"`
	// Result is the archived result payload, compact.
	Result json.RawMessage `json:"result"`
	// Digest is the hex SHA-256 of Config and Result as the record file holds
	// them (see digest): Put writes it, Lookup checks it.
	Digest string `json:"digest,omitempty"`
}

// digest hashes a record's payloads, each prefixed with its length.
func digest(rec *Record) string {
	h := sha256.New()
	for _, raw := range []json.RawMessage{rec.Config, rec.Result} {
		fmt.Fprintf(h, "%d:%s", len(raw), raw)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// canonical re-marshals config JSON through untyped maps, whose keys
// encoding/json sorts — so two configs with the same fields in different
// order (or produced by different struct versions with identical content)
// hash identically. Numbers keep their literal text: as float64s, seeds 2^53
// and 2^53+1 would share one key and one archived Result.
func canonical(configJSON []byte) ([]byte, error) {
	var v any
	dec := json.NewDecoder(bytes.NewReader(configJSON))
	dec.UseNumber()
	err := dec.Decode(&v)
	if err == nil && len(bytes.TrimSpace(configJSON[dec.InputOffset():])) > 0 {
		err = errors.New("data after the value")
	}
	if err != nil {
		return nil, fmt.Errorf("runstore: key: config is not valid JSON: %w", err)
	}
	return json.Marshal(v)
}

// keyOf hashes a kind and a canonical config: hex SHA-256 of kind‖0‖config.
func keyOf(kind string, canon []byte) string {
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write(canon)
	return hex.EncodeToString(h.Sum(nil))
}

// Key computes a record's content address, keyOf its canonical config, and
// returns the canonical bytes too: a Put given both stores them as they are.
func Key(kind string, configJSON []byte) (key string, canon []byte, err error) {
	if canon, err = canonical(configJSON); err != nil {
		return "", nil, err
	}
	return keyOf(kind, canon), canon, nil
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
// canonicalizing Config (unless it already hashes to Key: then it is the
// canonical bytes Key hashed), compacting Result, computing Key from (Kind,
// Config) when empty, and setting Digest. The file is one line of compact JSON with
// HTML escaping off, so it holds the payloads as the digest covers them. The
// write is atomic: temp file, fsync, rename. An existing record under the
// same key is replaced — deterministic payloads make the overwrite a refresh
// of the metadata, not a change of content. Returns the record's final path.
func (s *Store) Put(rec *Record) (string, error) {
	if rec.Kind == "" {
		return "", fmt.Errorf("runstore: record kind is required")
	}
	if len(rec.Config) == 0 {
		return "", fmt.Errorf("runstore: record config is required")
	}
	canon := []byte(rec.Config)
	if rec.Key == "" || keyOf(rec.Kind, canon) != rec.Key {
		var err error
		if canon, err = canonical(canon); err != nil {
			return "", err
		}
	}
	var res bytes.Buffer
	if err := json.Compact(&res, rec.Result); err != nil {
		return "", fmt.Errorf("runstore: record result: %w", err)
	}
	rec.Config, rec.Result = canon, res.Bytes()
	if rec.Schema == 0 {
		rec.Schema = Schema
	}
	if rec.Key == "" {
		rec.Key = keyOf(rec.Kind, canon)
	}
	if rec.CreatedAt.IsZero() {
		rec.CreatedAt = time.Now().UTC()
	}
	if rec.Env == (EnvStamp{}) {
		rec.Env = Stamp()
	}
	rec.Digest = digest(rec)
	var data bytes.Buffer
	enc := json.NewEncoder(&data)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(rec); err != nil {
		return "", fmt.Errorf("runstore: marshal record: %w", err)
	}

	tmp, err := os.CreateTemp(s.dir, "run-*.tmp")
	if err != nil {
		return "", err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data.Bytes()); err != nil {
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
// field is another, its Config is not bytes that hash to key (one hash, no
// JSON pass), or its Digest is absent or disagrees with its payloads. A miss
// re-simulates and rewrites the record, so a broken, edited or old-schema
// record never blocks a re-simulation and is never served.
func (s *Store) Lookup(key string) (*Record, bool) {
	rec, err := LoadRecord(s.Path(key))
	if err != nil || rec.Key != key || keyOf(rec.Kind, rec.Config) != key || rec.Digest != digest(rec) {
		return nil, false
	}
	return rec, true
}

// LoadRecord reads one record file. Missing, truncated, other-schema (schema
// 1 named as retired) and non-ledger JSON files (no key or kind) are errors.
func LoadRecord(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("runstore: %s: %w", path, err)
	}
	switch {
	case rec.Schema == 1:
		return nil, fmt.Errorf("runstore: %s: schema 1 records are retired (this build reads schema %d)", path, Schema)
	case rec.Schema != Schema:
		return nil, fmt.Errorf("runstore: %s: schema %d is not the supported %d", path, rec.Schema, Schema)
	case rec.Key == "" || rec.Kind == "":
		return nil, fmt.Errorf("runstore: %s: missing key or kind", path)
	}
	return &rec, nil
}
