package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageErrors: a flag combination the tool cannot honour exits 2 with a
// one-line message, before any file is created.
func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out.trace")
	for name, args := range map[string][]string{
		"record without -bench": {"-record", out},
		"record and replay":     {"-bench", "LU", "-record", out, "-replay", "in.trace"},
		"record with -design":   {"-bench", "LU", "-record", out, "-design", "scarab"},
		"record with -detailed": {"-bench", "LU", "-record", out, "-detailed"},
		"record, unknown bench": {"-bench", "Cholesky", "-record", out},
		"unknown design":        {"-bench", "LU", "-design", "wormhole"},
		"replay with -bench":    {"-replay", "in.trace", "-bench", "LU"},
		"unknown log format":    {"-list", "-log-format", "xml"},
		"unknown flag":          {"-shards", "2"},
	} {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 2 {
				t.Errorf("exit %d, want 2 (stderr %q)", code, stderr.String())
			}
			if msg := stderr.String(); name != "unknown flag" && (strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "dxbar-splash: ")) {
				t.Errorf("want a one-line usage error, got %q", msg)
			}
			if stdout.Len() != 0 {
				t.Errorf("usage error wrote to stdout: %q", stdout.String())
			}
			if left, _ := os.ReadDir(dir); len(left) != 0 {
				t.Errorf("usage error left %v behind", left)
			}
		})
	}
}

// TestRecordReplayRoundTrip pins the numbers of a record → replay round trip
// and of the closed-loop run of the same benchmark (seed 42).
func TestRecordReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "lu.trace")
	for _, step := range []struct {
		args []string
		want string
	}{
		{[]string{"-bench", "LU", "-record", trace}, "recorded LU trace to " + trace + "\n"},
		{[]string{"-replay", trace, "-design", "flitbless"},
			"replay on flitbless (DOR): completed in 10492 cycles, 4646 packets, lat 12.7, 0.6758 nJ/packet\n"},
		{[]string{"-replay", trace},
			"replay on dxbar (DOR): completed in 10492 cycles, 4646 packets, lat 12.6, 0.6689 nJ/packet\n"},
		// The recording went through the recorder's forwarded NextPending and
		// the replay asks the player which nodes are due: the figures are the
		// ones per-node polling of both produced.
		{[]string{"-replay", trace, "-design", "buffered4"},
			"replay on buffered4 (DOR): completed in 10499 cycles, 4646 packets, lat 18.0, 0.9927 nJ/packet\n"},
		{[]string{"-bench", "LU", "-design", "dxbar"},
			"benchmark  design     alg  exec (cyc)    packets  lat (cyc)      p50      p99    nJ/packet\n" +
				"LU         dxbar      DOR       10477       4646       12.9       12       27       0.6689\n"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(step.args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v: exit %d, stderr %q", step.args, code, stderr.String())
		}
		if stdout.String() != step.want {
			t.Errorf("%v printed\n%q, want\n%q", step.args, stdout.String(), step.want)
		}
	}
	if left, _ := os.ReadDir(dir); len(left) != 1 {
		t.Errorf("recording left %v behind, want only the trace", left)
	}
}

// TestFailedRunLeavesNothing: a recording that cannot be written and a replay
// of a file that is not a trace exit 1 and leave no file behind.
func TestFailedRunLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	notATrace := filepath.Join(dir, "garbage")
	if err := os.WriteFile(notATrace, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, args := range map[string][]string{
		"record into a missing directory": {"-bench", "LU", "-record", filepath.Join(dir, "missing", "x.trace")},
		"replay of a non-trace":           {"-replay", notATrace},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 1 || stderr.Len() == 0 {
			t.Errorf("%s: exit %d (stderr %q), want 1 and an error", name, code, stderr.String())
		}
	}
	if left, _ := os.ReadDir(dir); len(left) != 1 {
		t.Errorf("failed runs left %v behind, want only the input file", left)
	}
}
