package dxbar

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dxbar/internal/metrics"
	"dxbar/internal/runstore"
)

// ledgerTestConfig is a short deterministic run used across the ledger suite.
func ledgerTestConfig() Config {
	return Config{
		Design:        DesignDXbar,
		Pattern:       "UR",
		Load:          0.30,
		Seed:          42,
		WarmupCycles:  300,
		MeasureCycles: 1200,
	}
}

// configExperimentFields are the Config fields that shape the Result and so
// belong in the ledger key. Every other field must be dropped by
// Config.withoutHandles (a live handle) or by Config.experiment alone
// (execution-only); TestLedgerKeyInvariance holds the three classes to a
// partition of Config, so a new field has to be put in one of them.
var configExperimentFields = []string{
	"Design", "Routing", "Width", "Height", "Pattern", "Load", "FlitsPerPacket",
	"WarmupCycles", "MeasureCycles", "Seed",
	"FaultFraction", "FaultCycle", "FaultGranularity",
	"FairnessThreshold", "BufferDepth", "CreditDelay",
	"PortOrderArbitration",
	"TrackUtilization", "SampleInterval", "EventTrace", "EventKinds",
	"ShardProfile", "DisableDiag",
}

// perturb sets a Config field to a non-zero value different from its current
// one.
func perturb(t *testing.T, f reflect.Value) {
	t.Helper()
	switch f.Kind() {
	case reflect.String:
		f.SetString(f.String() + "x")
	case reflect.Int, reflect.Int64:
		f.SetInt(f.Int() + 1)
	case reflect.Uint64:
		f.SetUint(f.Uint() + 1)
	case reflect.Float64:
		f.SetFloat(f.Float() + 0.05)
	case reflect.Bool:
		f.SetBool(!f.Bool())
	case reflect.Slice:
		f.Set(reflect.Append(f, reflect.Zero(f.Type().Elem())))
	case reflect.Pointer:
		f.Set(reflect.New(f.Type().Elem()))
	default:
		t.Fatalf("perturb: no rule for kind %s", f.Kind())
	}
}

// TestLedgerKeyInvariance walks every Config field: each is exactly one of
// live handle, execution-only or experiment; perturbing a handle or an
// execution-only field (shard count, checkpoint/ledger/diag directories…)
// must not change the content key, perturbing an experiment field must.
func TestLedgerKeyInvariance(t *testing.T) {
	base := ledgerTestConfig()
	base = base.withDefaults()
	k0, err := LedgerKey(base)
	if err != nil {
		t.Fatal(err)
	}
	// The key hashes the JSON of the whole stripped Config, so it moves when a
	// field is added, renamed or reclassified — and every archived record
	// with it. Pinned so that cannot happen unnoticed.
	if want := "d09deae8cad77fc65bff4d68c9aed35ba05982387cffd101123453d0e423d16d"; k0 != want {
		t.Errorf("ledger key of the fixed config is %s, want %s: existing ledgers no longer match", k0, want)
	}

	experiment := map[string]bool{}
	for _, name := range configExperimentFields {
		experiment[name] = true
	}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		c := base
		perturb(t, reflect.ValueOf(&c).Elem().Field(i))
		handle := reflect.ValueOf(c.withoutHandles()).Field(i).IsZero()
		execOnly := !handle && reflect.ValueOf(c.experiment()).Field(i).IsZero()
		classes := 0
		for _, in := range []bool{handle, execOnly, experiment[name]} {
			if in {
				classes++
			}
		}
		if classes != 1 {
			t.Errorf("Config.%s is in %d classes (handle %v, execution-only %v, experiment %v), want exactly one: "+
				"list it in Config.withoutHandles, Config.experiment or configExperimentFields",
				name, classes, handle, execOnly, experiment[name])
			continue
		}
		k, err := LedgerKey(c)
		if err != nil {
			t.Fatalf("Config.%s perturbed: %v", name, err)
		}
		if changed := k != k0; changed != experiment[name] {
			t.Errorf("perturbing Config.%s: key changed = %v, want %v", name, changed, experiment[name])
		}
		delete(experiment, name)
	}
	for name := range experiment {
		t.Errorf("configExperimentFields names %s, which is not a Config field", name)
	}
}

// TestLedgerReuseSkipsIneligible: traced runs must simulate even with a
// record present (their Result carries payloads the archive cannot
// faithfully reproduce).
func TestLedgerReuseSkipsIneligible(t *testing.T) {
	dir := t.TempDir()
	cfg := ledgerTestConfig()
	cfg.LedgerDir = dir
	cfg.EventTrace = 256
	first := run(t, cfg)
	if first.EventsRecorded == 0 {
		t.Fatal("fixture assumption broke: traced run recorded no events")
	}
	cfg.LedgerReuse = true
	second := run(t, cfg)
	if second.EventsRecorded == 0 || second.RouterEvents == nil {
		t.Fatal("reuse served a traced run from the archive")
	}
}

// TestLedgerSharded: a sharded run shares the sequential run's key and its
// archived payload is bit-identical, so either engine can populate — or be
// served by — the same record.
func TestLedgerSharded(t *testing.T) {
	dir := t.TempDir()
	cfg := ledgerTestConfig()
	cfg.Width, cfg.Height = 8, 8
	cfg.LedgerDir = dir
	seq := run(t, cfg)
	sharded := cfg
	sharded.Shards = 2
	sharded.LedgerReuse = true
	got := run(t, sharded)
	if !reflect.DeepEqual(seq, got) {
		t.Fatal("sharded reuse differs from the sequential archive")
	}
}

// TestLedgerResultRetiredKeys: records archived while the sharded engine still
// moved its tile boundaries carry ShardRebalances / ShardNodesMigrated in the
// Result JSON and RebalanceInterval in the config. They must keep decoding,
// the retired keys ignored.
func TestLedgerResultRetiredKeys(t *testing.T) {
	rec := &LedgerRecord{
		Kind:   "run",
		Key:    "0123456789abcdef",
		Config: json.RawMessage(`{"Design":"dxbar","Shards":0,"RebalanceInterval":-1}`),
		Result: json.RawMessage(`{"Design":"dxbar","Packets":42,"ShardImbalance":1.5,"ShardRebalances":3,"ShardNodesMigrated":96}`),
	}
	res, err := LedgerResult(rec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Design != DesignDXbar || res.Packets != 42 || res.ShardImbalance != 1.5 {
		t.Fatalf("decoded %+v, want the surviving fields intact", res)
	}
}

// TestLedgerResultRejectsForeignKind: a record of any kind but "run" (older
// builds archived closed-loop runs as "splash") lists, but is not a Result.
func TestLedgerResultRejectsForeignKind(t *testing.T) {
	l, err := OpenLedger(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.store.Put(&runstore.Record{Kind: "splash", Config: []byte(`{"Benchmark":"fft"}`), Result: []byte(`{"Packets":99}`)}); err != nil {
		t.Fatal(err)
	}
	recs := ledgerRecords(t, l)
	if len(recs) != 1 || recs[0].Kind != "splash" {
		t.Fatalf("%d records, want the splash one", len(recs))
	}
	if _, err := LedgerResult(recs[0]); err == nil {
		t.Fatal("LedgerResult accepted a splash record")
	}
}

// TestLedgerRewindNotArchived: a rewind-clipped partial window must not
// claim — or overwrite — the full window's content key.
func TestLedgerRewindNotArchived(t *testing.T) {
	ckDir := t.TempDir()
	ledDir := t.TempDir()
	cfg := ledgerTestConfig()
	cfg.CheckpointDir = ckDir
	cfg.CheckpointInterval = 500
	cfg.LedgerDir = ledDir
	full := run(t, cfg)
	l, err := OpenLedger(ledDir)
	if err != nil {
		t.Fatal(err)
	}
	if recs := ledgerRecords(t, l); len(recs) != 1 {
		t.Fatalf("full run: %d records", len(recs))
	}

	// Rewind replays a clipped window from a mid-run checkpoint under the
	// (ledgered) saved config; the partial Result must not be archived.
	path, err := LatestCheckpoint(ckDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Rewind(path, 100, 0, nil); err != nil {
		t.Fatal(err)
	}
	recs := ledgerRecords(t, l)
	if len(recs) != 1 {
		t.Fatalf("after rewind: %d records", len(recs))
	}
	archived, err := LedgerResult(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, archived) {
		t.Fatal("rewind overwrote the full run's record with a partial window")
	}
}

// ledgerRecords loads every record file in l's directory.
func ledgerRecords(t testing.TB, l *Ledger) []*LedgerRecord {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(l.Dir(), "run-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var out []*LedgerRecord
	for _, p := range paths {
		rec, err := runstore.LoadRecord(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
	return out
}

// The pinned ledger records: ledgerTestConfig archived by this build (schema
// 2, with a fixed creation time and environment stamp), and by the last
// schema-1 build.
const (
	ledgerGolden  = "testdata/ledger-schema2.json"
	ledgerSchema1 = "testdata/ledger-schema1.json"
)

// TestLedgerRecordGolden pins a schema-2 record byte for byte: one compact
// line, the canonical config, the Result with its latency histogram inside,
// and the digest over both. DXBAR_UPDATE_GOLDEN=1 rewrites the file; a
// change to it is a format change, which bumps runstore.Schema.
func TestLedgerRecordGolden(t *testing.T) {
	cfg := ledgerTestConfig()
	cfg.LedgerDir = t.TempDir()
	run(t, cfg)
	l, err := OpenLedger(cfg.LedgerDir)
	if err != nil {
		t.Fatal(err)
	}
	recs := ledgerRecords(t, l)
	if len(recs) != 1 {
		t.Fatalf("%d records, want 1", len(recs))
	}
	rec := recs[0]
	rec.CreatedAt = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	rec.Env = runstore.EnvStamp{Go: "go1.24.0", OS: "linux", Arch: "amd64", NumCPU: 2}
	path, err := l.store.Put(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("DXBAR_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(ledgerGolden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(ledgerGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the record differs from %s (DXBAR_UPDATE_GOLDEN=1 rewrites it; a format change bumps runstore.Schema):\n got %s\nwant %s", ledgerGolden, got, want)
	}
	if bytes.Count(got, []byte("\n")) != 1 || !bytes.Contains(got, []byte(`"LatencyHistogram":{"buckets":[[`)) {
		t.Fatalf("the record is not one compact line with the histogram inside the Result:\n%s", got)
	}
}

// TestLedgerRetiresSchema1: a record the last schema-1 build wrote for
// ledgerTestConfig, filed under its (unchanged) key, is rejected by name and
// is a Lookup miss; the next LedgerReuse run simulates and rewrites it as a
// schema-2 record that serves the same Result.
func TestLedgerRetiresSchema1(t *testing.T) {
	cfg := ledgerTestConfig()
	cfg.LedgerDir, cfg.LedgerReuse, cfg.Metrics = t.TempDir(), true, metrics.NewRegistry()
	l, err := OpenLedger(cfg.LedgerDir)
	if err != nil {
		t.Fatal(err)
	}
	key, err := LedgerKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(ledgerSchema1)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(l.Path(key), old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runstore.LoadRecord(l.Path(key)); err == nil || !strings.Contains(err.Error(), "schema 1 records are retired") {
		t.Fatalf("LoadRecord of a schema-1 record: %v, want it rejected by name", err)
	}
	if _, ok := l.Lookup(key); ok {
		t.Fatal("Lookup served a schema-1 record")
	}
	res := run(t, cfg)
	if _, hits := ledgerMetrics(cfg.Metrics); hits.Value() != 0 {
		t.Fatal("the run was served from a schema-1 record")
	}
	rec, ok := l.Lookup(key)
	if !ok || rec.Schema != runstore.Schema {
		t.Fatalf("the run did not rewrite the record as schema %d: %+v", runstore.Schema, rec)
	}
	served, err := LedgerResult(rec)
	if err != nil || !reflect.DeepEqual(served, res) {
		t.Fatalf("the rewritten record serves another Result (err %v)", err)
	}
	var was struct{ Result struct{ Packets uint64 } }
	if err := json.Unmarshal(old, &was); err != nil || was.Result.Packets != res.Packets {
		t.Fatalf("the schema-1 record archived %d packets, the run delivered %d (%v)", was.Result.Packets, res.Packets, err)
	}
}

// FuzzLedgerRecord: any bytes in a record file make Lookup and LedgerResult
// miss, fail or return a Result, never panic; and a Result that comes back
// re-archives to the same payload bytes. Lookup serves only a record whose
// config and digest fit the key, which a mutation cannot forge, so whatever
// LoadRecord accepts also goes to LedgerResult directly: the decoders see the
// mutated payloads too. Seeded with the golden record, the schema-1 record and
// truncations of both.
func FuzzLedgerRecord(f *testing.F) {
	key, err := LedgerKey(ledgerTestConfig())
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range []string{ledgerGolden, ledgerSchema1} {
		seed, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		for _, n := range []int{len(seed), len(seed) - 2, len(seed) / 2, 1, 0} {
			f.Add(seed[:n])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := OpenLedger(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(l.Path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if rec, err := runstore.LoadRecord(l.Path(key)); err == nil {
			LedgerResult(rec)
		}
		rec, ok := l.Lookup(key)
		if !ok {
			return
		}
		res, err := LedgerResult(rec)
		if err != nil {
			return
		}
		again, err := OpenLedger(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := again.archiveRun(key, rec.Config, res); err != nil {
			t.Fatalf("re-archiving a served Result: %v", err)
		}
		back, ok := again.Lookup(key)
		if !ok || !bytes.Equal(back.Config, rec.Config) || !bytes.Equal(back.Result, rec.Result) {
			t.Fatalf("a served Result re-archives to other payload bytes:\n was %s\n now %s", rec.Result, back.Result)
		}
	})
}
