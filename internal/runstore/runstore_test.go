package runstore

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestKeyCanonicalization(t *testing.T) {
	// Same content, different field order ⇒ same key.
	a := []byte(`{"design":"dxbar","load":0.3,"seed":7}`)
	b := []byte(`{"seed":7,"design":"dxbar","load":0.3}`)
	ka, _, err := Key(KindRun, a)
	if err != nil {
		t.Fatal(err)
	}
	kb, _, err := Key(KindRun, b)
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatalf("field order changed the key: %s vs %s", ka, kb)
	}
	if len(ka) != 64 {
		t.Fatalf("key is not hex sha256: %q", ka)
	}

	// Different content ⇒ different key.
	kc, _, err := Key(KindRun, []byte(`{"design":"dxbar","load":0.3,"seed":8}`))
	if err != nil {
		t.Fatal(err)
	}
	if kc == ka {
		t.Fatal("different seeds collided")
	}
	// Kind is part of the address: the same config under another kind must
	// not alias.
	ks, _, err := Key("splash", a)
	if err != nil {
		t.Fatal(err)
	}
	if ks == ka {
		t.Fatal("kinds alias")
	}

	// Integers past float64's exact range keep their digits.
	k53, _, err := Key(KindRun, []byte(`{"seed":9007199254740992}`))
	if err != nil {
		t.Fatal(err)
	}
	if k54, _, err := Key(KindRun, []byte(`{"seed":9007199254740993}`)); err != nil || k54 == k53 {
		t.Fatalf("seeds 2^53 and 2^53+1 share a key (err %v)", err)
	}

	for _, bad := range []string{`not json`, `{"seed":1} trailing`, ``} {
		if _, _, err := Key(KindRun, []byte(bad)); err == nil {
			t.Fatalf("invalid config JSON %q must not produce a key", bad)
		}
	}
}

// TestPutGivenKey: a Put given Key's key stores the canonical config whether
// it is handed the raw config (canonicalized) or Key's canonical bytes (stored
// as they are), and either record is a Lookup hit.
func TestPutGivenKey(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	raw := []byte(`{"seed": 1, "design": "dxbar"}`)
	key, canon, err := Key(KindRun, raw)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range [][]byte{raw, canon} {
		rec := &Record{Kind: KindRun, Key: key, Config: cfg, Result: json.RawMessage(`{}`)}
		if _, err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Lookup(key)
		if !ok {
			t.Fatalf("Put(config %s) under Key's key: Lookup missed", cfg)
		}
		if !bytes.Equal(got.Config, canon) {
			t.Fatalf("Put(config %s) stored config %s, want %s", cfg, got.Config, canon)
		}
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := json.RawMessage(`{"seed": 1, "design": "dxbar"}`)
	res := json.RawMessage(`{"AvgLatency": 12.5, "Packets": 4000}`)
	rec := &Record{Kind: KindRun, Config: cfg, Result: res}
	path, err := s.Put(rec)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Key == "" || rec.Schema != Schema || rec.CreatedAt.IsZero() {
		t.Fatalf("Put did not fill defaults: %+v", rec)
	}
	if rec.Env.Go == "" || rec.Env.NumCPU == 0 {
		t.Fatalf("Put did not stamp the environment: %+v", rec.Env)
	}
	// The file is one compact line holding the canonical config, which is
	// what the key hashes.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Count(data, []byte("\n")) != 1 || !bytes.Contains(data, []byte(`"config":{"design":"dxbar","seed":1},"result":{"AvgLatency":12.5,"Packets":4000}`)) {
		t.Fatalf("record is not compact with a canonical config:\n%s", data)
	}
	if path != s.Path(rec.Key) {
		t.Fatalf("path mismatch: %s vs %s", path, s.Path(rec.Key))
	}

	got, err := LoadRecord(s.Path(rec.Key))
	if err != nil {
		t.Fatal(err)
	}
	var wantRes, gotRes map[string]any
	if err := json.Unmarshal(res, &wantRes); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(got.Result, &gotRes); err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindRun ||
		gotRes["AvgLatency"] != wantRes["AvgLatency"] || gotRes["Packets"] != wantRes["Packets"] {
		t.Fatalf("round-trip mismatch: %+v", got)
	}

	// Lookup: present hits, absent misses.
	if _, ok := s.Lookup(rec.Key); !ok {
		t.Fatal("Lookup missed a present record")
	}
	if _, ok := s.Lookup(strings.Repeat("0", 64)); ok {
		t.Fatal("Lookup hit an absent record")
	}
}

func TestPutReplacesExisting(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := json.RawMessage(`{"seed":1}`)
	first := &Record{Kind: KindRun, Config: cfg, Result: json.RawMessage(`1`)}
	if _, err := s.Put(first); err != nil {
		t.Fatal(err)
	}
	second := &Record{Kind: KindRun, Config: cfg, Result: json.RawMessage(`2`)}
	if _, err := s.Put(second); err != nil {
		t.Fatal(err)
	}
	if first.Key != second.Key {
		t.Fatal("same config produced different keys")
	}
	got, err := LoadRecord(s.Path(first.Key))
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Result) != `2` {
		t.Fatalf("replace did not take: %s", got.Result)
	}
	if recs := records(t, s); len(recs) != 1 {
		t.Fatalf("replace left %d records", len(recs))
	}
}

// records loads every record file in the store.
func records(t *testing.T, s *Store) []*Record {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(s.Dir(), "run-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var out []*Record
	for _, p := range paths {
		rec, err := LoadRecord(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
	return out
}

// TestLookupRobustness: a torn record file is a load error and a Lookup
// miss, and neither it nor a stray temp file stops the honest records from
// being served.
func TestLookupRobustness(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; i < 3; i++ {
		rec := &Record{Kind: KindRun, Config: json.RawMessage(`{"seed":` + string(rune('0'+i)) + `}`), Result: json.RawMessage(`{}`)}
		if _, err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, rec.Key)
	}
	torn := strings.Repeat("f", 64)
	if err := os.WriteFile(s.Path(torn), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "run-123.tmp"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if _, ok := s.Lookup(k); !ok {
			t.Errorf("Lookup missed the honest record %.12s", k)
		}
	}
	if _, ok := s.Lookup(torn); ok {
		t.Fatal("Lookup hit a corrupt record")
	}
	if _, err := LoadRecord(s.Path(torn)); err == nil {
		t.Fatal("LoadRecord accepted a corrupt record")
	}
}

func TestSchemaGate(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec := &Record{Kind: KindRun, Config: json.RawMessage(`{"seed":1}`), Result: json.RawMessage(`{}`)}
	if _, err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	// Hand-edit the schema on disk: the reader refuses a newer one and the
	// retired schema 1 (by name), and Lookup misses on both.
	data, err := os.ReadFile(s.Path(rec.Key))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ schema, msg string }{{"99", "schema 99"}, {"1", "schema 1 records are retired"}} {
		edited := strings.Replace(string(data), `"schema":2,`, `"schema":`+c.schema+`,`, 1)
		if edited == string(data) {
			t.Fatal("fixture assumption broke: schema field not found")
		}
		if err := os.WriteFile(s.Path(rec.Key), []byte(edited), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadRecord(s.Path(rec.Key)); err == nil || !strings.Contains(err.Error(), c.msg) {
			t.Errorf("LoadRecord of a schema-%s record: %v, want an error naming %q", c.schema, err, c.msg)
		}
		if _, ok := s.Lookup(rec.Key); ok {
			t.Errorf("Lookup accepted a schema-%s record", c.schema)
		}
	}
}

func TestStampFields(t *testing.T) {
	e := Stamp()
	if e.Go == "" || e.OS == "" || e.Arch == "" || e.NumCPU < 1 {
		t.Fatalf("incomplete stamp: %+v", e)
	}
}

// TestLookupRejectsTamperedRecords: Lookup serves only the record Put wrote
// for the key. Each row rewrites A's record file in one way, under A's key
// (or B's), and looks that key up.
func TestLookupRejectsTamperedRecords(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := &Record{Kind: KindRun, Config: json.RawMessage(`{"design":"dxbar","seed":1}`),
		Result: json.RawMessage(`{"AvgLatency":12.5,"Packets":4000,"LatencyHistogram":{"buckets":[[31,1]],"max":31}}`)}
	b := &Record{Kind: KindRun, Config: json.RawMessage(`{"design":"dxbar","seed":2}`), Result: json.RawMessage(`{}`)}
	for _, r := range []*Record{a, b} {
		if _, err := s.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	honest, err := os.ReadFile(s.Path(a.Key))
	if err != nil {
		t.Fatal(err)
	}
	edit := func(old, new string) func() error {
		return func() error {
			if !strings.Contains(string(honest), old) {
				t.Fatalf("fixture assumption broke: %s not in the record", old)
			}
			return os.WriteFile(s.Path(a.Key), []byte(strings.Replace(string(honest), old, new, 1)), 0o644)
		}
	}
	forged := *a // Put keeps its key and writes a digest that fits the new config
	forged.Config = json.RawMessage(`{"design":"dxbar","seed":9}`)
	// The same config in another key order, with a digest that fits it: the
	// stored bytes must be the canonical config, not just mean it.
	reordered := func() error {
		rec := *a
		rec.Config = json.RawMessage(`{"seed":1,"design":"dxbar"}`)
		old := `"config":{"design":"dxbar","seed":1}`
		if !strings.Contains(string(honest), old) {
			t.Fatalf("fixture assumption broke: %s not in the record", old)
		}
		data := strings.Replace(string(honest), old, `"config":`+string(rec.Config), 1)
		return os.WriteFile(s.Path(a.Key), []byte(strings.Replace(data, a.Digest, digest(&rec), 1)), 0o644)
	}
	for _, c := range []struct {
		name  string
		write func() error
		key   string
		hit   bool
	}{
		{"honest", edit("", ""), a.Key, true},
		{"result digit flipped", edit(`"Packets":4000`, `"Packets":4001`), a.Key, false},
		{"latency digit flipped", edit(`"max":31`, `"max":32`), a.Key, false},
		{"config edited, digest recomputed", func() error { _, err := s.Put(&forged); return err }, a.Key, false},
		{"config reordered, digest recomputed", reordered, a.Key, false},
		{"key field edited", edit(`"key":"`+a.Key, `"key":"`+b.Key), a.Key, false},
		{"filed under another key", func() error { return os.WriteFile(s.Path(b.Key), honest, 0o644) }, b.Key, false},
		{"no digest", edit(`"digest":"`+a.Digest, `"digest":"`), a.Key, false},
	} {
		if err := c.write(); err != nil {
			t.Fatal(err)
		}
		if _, hit := s.Lookup(c.key); hit != c.hit {
			t.Errorf("%s: Lookup hit = %v, want %v", c.name, hit, c.hit)
		}
	}
}
