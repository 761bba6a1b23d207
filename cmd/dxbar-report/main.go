// Command dxbar-report diffs two run-ledger records (dxbar.Config.LedgerDir)
// exactly. Simulation Results are deterministic, so any delta is a real
// behavior change; two records under the same content key with different
// Results are flagged as a determinism break. Output is markdown, suitable
// for a CI artifact or a PR comment.
//
// Usage:
//
//	dxbar-report old.json new.json            # exact Result diff
//	dxbar-report -out report.md old.json new.json
//
// The exit status is 0 whenever the diff could be made — the report is
// evidence, the reader is the gate — and 1 when a file is missing, truncated
// or not a run-ledger record. Host-time questions ("how fast is the
// simulator") belong to `bash benchmark/run.sh`, not to this tool.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"dxbar/internal/report"
	"dxbar/internal/runstore"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its process edges injected: the exit status is the return
// value and both streams are parameters.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dxbar-report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: dxbar-report [-out report.md] old.json new.json")
		fs.PrintDefaults()
	}
	outPath := fs.String("out", "", "write the markdown report to this file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}

	var md bytes.Buffer
	err := diffLedger(&md, fs.Arg(0), fs.Arg(1))
	if err == nil {
		if *outPath != "" {
			err = os.WriteFile(*outPath, md.Bytes(), 0o644)
		} else {
			_, err = stdout.Write(md.Bytes())
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "dxbar-report:", err)
		return 1
	}
	return 0
}

// diffLedger compares two run-ledger records exactly.
func diffLedger(w io.Writer, oldPath, newPath string) error {
	oldRec, oldM, err := loadRun(oldPath)
	if err != nil {
		return err
	}
	newRec, newM, err := loadRun(newPath)
	if err != nil {
		return err
	}
	d := report.DiffRun(shortKey(oldRec.Key), shortKey(newRec.Key), oldM, newM)
	if err := d.WriteMarkdown(w); err != nil {
		return err
	}
	if oldRec.Key == newRec.Key && !d.Identical() {
		fmt.Fprintf(w, "\n**⚠ same content key, different Results** — determinism is broken "+
			"or the records were written by builds with different simulation behavior.\n")
	}
	fmt.Fprintf(w, "\nEnvironments: %s/%s %s → %s/%s %s\n",
		oldRec.Env.OS, oldRec.Env.Arch, oldRec.Env.Go,
		newRec.Env.OS, newRec.Env.Arch, newRec.Env.Go)
	return nil
}

// loadRun reads one ledger record of a simulation run and flattens its
// Result's numeric scalars.
func loadRun(path string) (*runstore.Record, map[string]float64, error) {
	rec, err := runstore.LoadRecord(path)
	if err != nil {
		return nil, nil, fmt.Errorf("%w (expected a run-ledger record, run-<key>.json)", err)
	}
	if rec.Kind != runstore.KindRun {
		return nil, nil, fmt.Errorf("%s: ledger record kind %q is not a simulation run", path, rec.Kind)
	}
	m, err := report.FlattenResultMetrics(rec.Result)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return rec, m, nil
}

func shortKey(k string) string {
	if len(k) > 12 {
		return k[:12]
	}
	return k
}
