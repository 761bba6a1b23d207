package report

import (
	"strings"
	"testing"
)

func TestFlattenAndDiffRun(t *testing.T) {
	oldM, err := FlattenResultMetrics([]byte(`{
	  "P99Latency": 41, "AvgEnergyNJ": 1.5, "Design": "dxbar",
	  "Power": {"TotalMW": 12.5, "LeakageMW": 3.25},
	  "TimeSeries": [1, 2, 3]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if oldM["P99Latency"] != 41 || oldM["Power.TotalMW"] != 12.5 {
		t.Fatalf("flattened %v", oldM)
	}
	if _, ok := oldM["Design"]; ok {
		t.Error("string field leaked into metric set")
	}
	if _, ok := oldM["TimeSeries"]; ok {
		t.Error("array field leaked into metric set")
	}

	same := map[string]float64{"P99Latency": 41, "AvgEnergyNJ": 1.5, "Power.TotalMW": 12.5, "Power.LeakageMW": 3.25}
	if d := DiffRun("a", "b", oldM, same); !d.Identical() {
		t.Errorf("identical metric sets diffed: %+v", d)
	}

	moved := map[string]float64{"P99Latency": 43, "AvgEnergyNJ": 1.5, "Power.TotalMW": 12.5, "NewMetric": 7}
	d := DiffRun("a", "b", oldM, moved)
	if d.Identical() {
		t.Fatal("changed metrics reported identical")
	}
	if len(d.Changed) != 1 || d.Changed[0].Name != "P99Latency" || d.Changed[0].New != 43 {
		t.Errorf("Changed = %+v", d.Changed)
	}
	if len(d.OnlyOld) != 1 || d.OnlyOld[0] != "Power.LeakageMW" {
		t.Errorf("OnlyOld = %v", d.OnlyOld)
	}
	if len(d.OnlyNew) != 1 || d.OnlyNew[0] != "NewMetric" {
		t.Errorf("OnlyNew = %v", d.OnlyNew)
	}

	var b strings.Builder
	if err := d.WriteMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"P99Latency", "`Power.LeakageMW`", "`NewMetric`"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("run-diff markdown missing %q\n%s", want, b.String())
		}
	}
	b.Reset()
	_ = DiffRun("a", "b", oldM, same).WriteMarkdown(&b)
	if !strings.Contains(b.String(), "identical") {
		t.Error("identical diff markdown lacks the identical note")
	}
}
