package dxbar

import (
	"encoding/json"
	"reflect"
	"testing"

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
	recs, err := l.store.List()
	if err != nil || len(recs) != 1 || recs[0].Kind != "splash" {
		t.Fatalf("list: %v, %d records", err, len(recs))
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
	recs, err := l.store.List()
	if err != nil || len(recs) != 1 {
		t.Fatalf("full run: %v, %d records", err, len(recs))
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
	recs, err = l.store.List()
	if err != nil || len(recs) != 1 {
		t.Fatalf("after rewind: %v, %d records", err, len(recs))
	}
	archived, err := LedgerResult(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(full, archived) {
		t.Fatal("rewind overwrote the full run's record with a partial window")
	}
}
