package runstore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestKeyCanonicalization(t *testing.T) {
	// Same content, different field order ⇒ same key.
	a := []byte(`{"design":"dxbar","load":0.3,"seed":7}`)
	b := []byte(`{"seed":7,"design":"dxbar","load":0.3}`)
	ka, err := Key(KindRun, a)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := Key(KindRun, b)
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
	kc, err := Key(KindRun, []byte(`{"design":"dxbar","load":0.3,"seed":8}`))
	if err != nil {
		t.Fatal(err)
	}
	if kc == ka {
		t.Fatal("different seeds collided")
	}
	// Kind is part of the address: the same config under another kind must
	// not alias.
	ks, err := Key("splash", a)
	if err != nil {
		t.Fatal(err)
	}
	if ks == ka {
		t.Fatal("kinds alias")
	}

	if _, err := Key(KindRun, []byte(`not json`)); err == nil {
		t.Fatal("invalid config JSON must not produce a key")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := json.RawMessage(`{"design":"dxbar","seed":1}`)
	res := json.RawMessage(`{"AvgLatency":12.5,"Packets":4000}`)
	rec := &Record{Kind: KindRun, Config: cfg, Result: res, Meta: map[string]string{"tool": "test"}}
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
	if got.Kind != KindRun || got.Meta["tool"] != "test" ||
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
	recs, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("replace left %d records", len(recs))
	}
}

func TestListOrderAndRobustness(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	// Insert out of chronological order.
	for i, off := range []int{2, 0, 1} {
		rec := &Record{
			Kind:      KindRun,
			Config:    json.RawMessage(`{"seed":` + string(rune('0'+i)) + `}`),
			Result:    json.RawMessage(`{}`),
			CreatedAt: base.Add(time.Duration(off) * time.Hour),
		}
		if _, err := s.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	// A corrupt file and a stray temp file must not break the listing.
	if err := os.WriteFile(filepath.Join(dir, "run-"+strings.Repeat("f", 64)+".json"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "run-123.tmp"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("listed %d records, want 3", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].CreatedAt.Before(recs[i-1].CreatedAt) {
			t.Fatalf("list not chronological: %v after %v", recs[i].CreatedAt, recs[i-1].CreatedAt)
		}
	}
	// The corrupt record is a Lookup miss and a load error.
	if _, ok := s.Lookup(strings.Repeat("f", 64)); ok {
		t.Fatal("Lookup hit a corrupt record")
	}
	if _, err := LoadRecord(s.Path(strings.Repeat("f", 64))); err == nil {
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
	// Hand-raise the schema on disk; the reader must refuse it.
	data, err := os.ReadFile(s.Path(rec.Key))
	if err != nil {
		t.Fatal(err)
	}
	raised := strings.Replace(string(data), `"schema": 1`, `"schema": 99`, 1)
	if raised == string(data) {
		t.Fatal("fixture assumption broke: schema field not found")
	}
	if err := os.WriteFile(s.Path(rec.Key), []byte(raised), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadRecord(s.Path(rec.Key)); err == nil {
		t.Fatal("LoadRecord accepted a newer schema")
	}
	if _, ok := s.Lookup(rec.Key); ok {
		t.Fatal("Lookup accepted a newer schema")
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
		Result: json.RawMessage(`{"AvgLatency":12.5,"Packets":4000}`), Latency: json.RawMessage(`{"max":31}`)}
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
	for _, c := range []struct {
		name  string
		write func() error
		key   string
		hit   bool
	}{
		{"honest", edit("", ""), a.Key, true},
		{"result digit flipped", edit(`"Packets": 4000`, `"Packets": 4001`), a.Key, false},
		{"latency digit flipped", edit(`"max": 31`, `"max": 32`), a.Key, false},
		{"config edited, digest recomputed", func() error { _, err := s.Put(&forged); return err }, a.Key, false},
		{"key field edited", edit(`"key": "`+a.Key, `"key": "`+b.Key), a.Key, false},
		{"filed under another key", func() error { return os.WriteFile(s.Path(b.Key), honest, 0o644) }, b.Key, false},
		{"no digest", edit(`"digest": "`+a.Digest, `"digest": "`), a.Key, false},
	} {
		if err := c.write(); err != nil {
			t.Fatal(err)
		}
		if _, hit := s.Lookup(c.key); hit != c.hit {
			t.Errorf("%s: Lookup hit = %v, want %v", c.name, hit, c.hit)
		}
	}
}
