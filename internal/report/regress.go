package report

// Exact run diffs: flatten two run-ledger records' archived Results and
// compare them metric by metric. Simulation Results are deterministic, so
// there is no noise threshold — any difference is a behavior change. Like the
// rest of the package this layer only consumes serialized shapes — it never
// imports the simulator, so the CLI that wraps it (cmd/dxbar-report) works
// on any ledger record the repo has ever written.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// MetricDelta is one metric's movement between two records.
type MetricDelta struct {
	Name string
	Old  float64
	New  float64
	// Pct is the relative change in percent ((new-old)/|old|·100; 0 when both
	// values are 0, +Inf when only the old value is 0).
	Pct float64
}

func delta(name string, oldV, newV float64) MetricDelta {
	d := MetricDelta{Name: name, Old: oldV, New: newV}
	if oldV != 0 {
		d.Pct = (newV - oldV) / math.Abs(oldV) * 100
	} else if newV != 0 {
		d.Pct = math.Inf(1)
	}
	return d
}

// FlattenResultMetrics extracts every numeric scalar from a serialized
// simulation Result (a ledger record's "Result" section), flattening nested
// objects with dotted names ("Power.TotalMW"). Arrays and strings are
// skipped — the scalars are what run diffs compare.
func FlattenResultMetrics(resultJSON []byte) (map[string]float64, error) {
	var v map[string]any
	if err := json.Unmarshal(resultJSON, &v); err != nil {
		return nil, fmt.Errorf("report: parse result: %w", err)
	}
	out := map[string]float64{}
	flattenInto(out, "", v)
	return out, nil
}

func flattenInto(out map[string]float64, prefix string, v map[string]any) {
	for k, e := range v {
		name := k
		if prefix != "" {
			name = prefix + "." + k
		}
		switch t := e.(type) {
		case float64:
			out[name] = t
		case bool:
			if t {
				out[name] = 1
			} else {
				out[name] = 0
			}
		case map[string]any:
			flattenInto(out, name, t)
		}
	}
}

// RunDiff is the exact comparison of two deterministic run Results.
type RunDiff struct {
	OldName, NewName string
	// Changed holds every metric whose value differs (Pct against the old
	// value) — determinism means any difference is a real behavior change
	// for the reader to judge.
	Changed []MetricDelta
	// OnlyOld / OnlyNew are metrics present on one side only (a schema or
	// feature change between the builds that wrote the records).
	OnlyOld, OnlyNew []string
}

// DiffRun compares two flattened Result metric sets exactly — simulation
// output is deterministic, so there is no noise threshold: every changed bit
// is reported.
func DiffRun(oldName, newName string, oldM, newM map[string]float64) *RunDiff {
	d := &RunDiff{OldName: oldName, NewName: newName}
	for k, ov := range oldM {
		nv, ok := newM[k]
		if !ok {
			d.OnlyOld = append(d.OnlyOld, k)
			continue
		}
		if ov != nv {
			d.Changed = append(d.Changed, delta(k, ov, nv))
		}
	}
	for k := range newM {
		if _, ok := oldM[k]; !ok {
			d.OnlyNew = append(d.OnlyNew, k)
		}
	}
	sort.Slice(d.Changed, func(i, j int) bool { return d.Changed[i].Name < d.Changed[j].Name })
	sort.Strings(d.OnlyOld)
	sort.Strings(d.OnlyNew)
	return d
}

// Identical reports a bit-identical diff: same metrics, same values.
func (d *RunDiff) Identical() bool {
	return len(d.Changed) == 0 && len(d.OnlyOld) == 0 && len(d.OnlyNew) == 0
}

// WriteMarkdown renders the run diff.
func (d *RunDiff) WriteMarkdown(w io.Writer) error {
	fmt.Fprintf(w, "## Run diff: %s → %s\n\n", d.OldName, d.NewName)
	if d.Identical() {
		fmt.Fprintf(w, "Results are identical — every archived metric matches exactly.\n")
		return nil
	}
	if len(d.Changed) > 0 {
		t := Table{Title: "changed metrics (exact comparison)",
			Columns: []string{"metric", "old", "new", "Δ%"}}
		for _, m := range d.Changed {
			t.Rows = append(t.Rows, []string{
				m.Name, trimFloat(m.Old), trimFloat(m.New), fmt.Sprintf("%+.2f", m.Pct),
			})
		}
		if err := WriteTableMarkdown(w, t); err != nil {
			return err
		}
	}
	for _, k := range d.OnlyOld {
		fmt.Fprintf(w, "\n- metric `%s` present only in the old record\n", k)
	}
	for _, k := range d.OnlyNew {
		fmt.Fprintf(w, "\n- metric `%s` present only in the new record\n", k)
	}
	return nil
}
