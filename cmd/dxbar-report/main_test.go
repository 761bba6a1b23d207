package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dxbar/internal/runstore"
)

// putRun archives a run record with the given result payload in its own
// ledger directory and returns the record's path.
func putRun(t *testing.T, config, result string) string {
	t.Helper()
	s, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	path, err := s.Put(&runstore.Record{
		Kind:   runstore.KindRun,
		Config: []byte(config),
		Result: []byte(result),
	})
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func writeFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "record.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDiffLedgerRecords(t *testing.T) {
	const cfg = `{"Design":"dxbar","Load":0.3,"Seed":1}`
	a := putRun(t, cfg, `{"AvgLatency": 21.5, "P99Latency": 41, "Power": {"TotalMW": 12.5}}`)
	same := putRun(t, cfg, `{"AvgLatency": 21.5, "P99Latency": 41, "Power": {"TotalMW": 12.5}}`)
	broken := putRun(t, cfg, `{"AvgLatency": 21.5, "P99Latency": 43, "Power": {"TotalMW": 12.5}}`)
	other := putRun(t, `{"Design":"dxbar","Load":0.4,"Seed":1}`, `{"AvgLatency": 30, "P99Latency": 60, "Power": {"TotalMW": 14}}`)

	var stdout, stderr bytes.Buffer
	if code := run([]string{a, same}, &stdout, &stderr); code != 0 {
		t.Fatalf("identical records: exit %d, stderr %q", code, stderr.String())
	}
	if out := stdout.String(); !strings.Contains(out, "identical") || strings.Contains(out, "determinism is broken") {
		t.Errorf("identical records reported as\n%s", out)
	}

	// Same content key, different Results: a determinism break, named as one,
	// with the moved metric listed.
	stdout.Reset()
	if code := run([]string{a, broken}, &stdout, &stderr); code != 0 {
		t.Fatalf("determinism break: exit %d, stderr %q", code, stderr.String())
	}
	for _, want := range []string{"same content key, different Results", "P99Latency", "43"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("determinism-break report is missing %q\n%s", want, stdout.String())
		}
	}

	// Different keys are an ordinary diff, not a determinism break.
	stdout.Reset()
	if code := run([]string{a, other}, &stdout, &stderr); code != 0 {
		t.Fatalf("different keys: exit %d, stderr %q", code, stderr.String())
	}
	if out := stdout.String(); !strings.Contains(out, "AvgLatency") || strings.Contains(out, "determinism is broken") {
		t.Errorf("different-key diff reported as\n%s", out)
	}

	// -out writes the same report to a file and leaves stdout empty.
	stdout.Reset()
	outFile := filepath.Join(t.TempDir(), "report.md")
	if code := run([]string{"-out", outFile, a, broken}, &stdout, &stderr); code != 0 {
		t.Fatalf("-out: exit %d, stderr %q", code, stderr.String())
	}
	b, err := os.ReadFile(outFile)
	if err != nil || !strings.Contains(string(b), "same content key, different Results") || stdout.Len() != 0 {
		t.Errorf("-out file = %q (err %v), stdout %q", b, err, stdout.String())
	}
}

func TestRejectsNonLedgerInput(t *testing.T) {
	good := putRun(t, `{"Design":"dxbar"}`, `{"P99Latency": 41}`)
	s, err := runstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	splash, err := s.Put(&runstore.Record{Kind: "splash", Config: []byte(`{"Benchmark":"FFT"}`), Result: []byte(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	goodBytes, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	for name, bad := range map[string]string{
		"host-time record":   writeFile(t, `{"schema": 1, "date": "2026-08-05T00:00:00Z", "designs": {"dxbar": {"ns_per_cycle": 12500}}}`),
		"truncated record":   writeFile(t, string(goodBytes[:len(goodBytes)/2])),
		"not json":           writeFile(t, "ns/cycle 12500\n"),
		"empty file":         writeFile(t, ""),
		"result not object":  writeFile(t, `{"schema": 2, "key": "abc", "kind": "run", "config": {}, "result": [1, 2]}`),
		"schema-1 record":    "../../testdata/ledger-schema1.json",
		"newer schema":       writeFile(t, `{"schema": 99, "key": "abc", "kind": "run", "config": {}, "result": {}}`),
		"splash record":      splash,
		"missing file":       filepath.Join(t.TempDir(), "absent.json"),
		"directory not file": t.TempDir(),
	} {
		for _, args := range [][]string{{bad, good}, {good, bad}} {
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 1 {
				t.Errorf("%s: exit %d, want 1", name, code)
			}
			if !strings.Contains(stderr.String(), "dxbar-report:") || stdout.Len() != 0 {
				t.Errorf("%s: stderr %q, stdout %q", name, stderr.String(), stdout.String())
			}
			if name == "schema-1 record" && !strings.Contains(stderr.String(), "schema 1 records are retired") {
				t.Errorf("%s: stderr %q does not name the retired schema", name, stderr.String())
			}
		}
	}

	// Wrong arity and retired flags are usage errors.
	for _, args := range [][]string{nil, {good}, {good, good, good}, {"-trend", "bench"}, {"-noise", "10", good, good}} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
}
