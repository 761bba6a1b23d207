package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"dxbar"
)

func TestDigestIsOrderAndRunStable(t *testing.T) {
	fill := func(order []int) string {
		d := digest{}
		for _, i := range order {
			switch i {
			case 0:
				d.add("dxbar", uint64(1200), 0.298647, []float64{0.1, 0.2})
			case 1:
				d.add("scarab", uint64(900), 0.25, 17)
			case 2:
				d.addFigure(dxbar.Figure{ID: "fig5", Series: []dxbar.Series{{Label: "DXbar DOR", X: []float64{0.1}, Y: []float64{0.0999}}}})
			}
		}
		return d.sum()
	}
	a := fill([]int{0, 1, 2})
	if b := fill([]int{2, 0, 1}); a != b {
		t.Errorf("digest depends on insertion order: %s vs %s", a, b)
	}
	if b := fill([]int{0, 1, 2}); a != b {
		t.Errorf("digest differs between two identical runs: %s vs %s", a, b)
	}
	d := digest{}
	d.add("dxbar", uint64(1201), 0.298647, []float64{0.1, 0.2})
	if d.sum() == fill([]int{0}) {
		t.Error("digest did not change with a changed packet count")
	}
	// Last-bit float noise (fused multiply-add on another architecture) must
	// not change the digest; a ninth-digit change must.
	x, y := digest{}, digest{}
	x.add("v", 0.1+0.2)
	y.add("v", 0.3)
	if x.sum() != y.sum() {
		t.Error("digest is sensitive to the last bit of a float")
	}
	y.add("v", 0.30000001)
	if x.sum() == y.sum() {
		t.Error("digest is blind to a change in the eighth digit")
	}
}

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"dxbar/internal/routing.(*Table).RequestAt":                                  "routing",
		"dxbar/internal/core.(*DXbar).Step":                                          "core",
		"dxbar/internal/sim.(*Engine).Step":                                          "sim",
		"dxbar/internal/sim.seqBackend.routerPhase":                                  "sim",
		"dxbar/internal/bitarb.RotatePick":                                           "bitarb",
		"dxbar/internal/sim.(*shardedBackend).runShard.func1":                        "sim",
		"dxbar/internal/coherence.(*System).PreCycle":                                "coherence",
		"dxbar/internal/faults.(*Detector).Tick":                                     "other", // not a named layer
		"dxbar.RunMany.func1":                                                        "other",
		"dxbar.(*runner).runFrom":                                                    "other",
		"main.(*rep).span":                                                           "other",
		"runtime.mallocgc":                                                           "runtime",
		"runtime.memmove":                                                            "runtime",
		"runtime/internal/atomic.(*Uint32).Load":                                     "runtime",
		"internal/runtime/maps.(*Map).getWithKey":                                    "runtime",
		"internal/runtime/atomic.Xadd":                                               "runtime",
		"sync.(*WaitGroup).Wait":                                                     "other",
		"encoding/json.(*encodeState).marshal":                                       "other",
		"slices.SortFunc[go.shape.[]dxbar/internal/stats.Bucket,go.shape.struct {}]": "other",
		"dxbar/internal/stats.sortBy[go.shape.struct { dxbar/internal/flit.ID }]":    "stats",
		"": "other",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// protobuf encoding helpers for the synthetic profile below.
func pbVarint(field int, v uint64) []byte {
	b := binary.AppendUvarint(nil, uint64(field)<<3)
	return binary.AppendUvarint(b, v)
}

func pbBytes(field int, p []byte) []byte {
	b := binary.AppendUvarint(nil, uint64(field)<<3|2)
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func pbPacked(field int, vs ...uint64) []byte {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	return pbBytes(field, p)
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

func TestProfileAggregation(t *testing.T) {
	// String table: index 0 must be "".
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"dxbar/internal/routing.(*Table).RequestAt", // 5: inlined leaf
		"dxbar/internal/core.(*DXbar).Step",         // 6: the function it was inlined into
		"runtime.mallocgc",                          // 7
		"dxbar.RunMany.func1",                       // 8
		"phase", "timed",                            // 9, 10: a label, which the parser skips
	}
	function := func(id, name uint64) []byte { return pbBytes(5, cat(pbVarint(1, id), pbVarint(2, name))) }
	line := func(fn uint64) []byte { return pbBytes(4, pbVarint(1, fn)) }
	label := func(k, v uint64) []byte { return pbBytes(3, cat(pbVarint(1, k), pbVarint(2, v))) }
	var prof []byte
	// Location 1: RequestAt inlined into Step - innermost line first.
	prof = append(prof, pbBytes(4, cat(pbVarint(1, 1), line(1), line(2)))...)
	prof = append(prof, pbBytes(4, cat(pbVarint(1, 2), line(2)))...) // Step itself
	prof = append(prof, pbBytes(4, cat(pbVarint(1, 3), line(3)))...) // mallocgc
	prof = append(prof, pbBytes(4, cat(pbVarint(1, 4), line(4)))...) // facade
	// Samples: leaf location first, then callers; values are [count, nanos].
	prof = append(prof, pbBytes(2, cat(pbPacked(1, 1, 4), pbPacked(2, 3, 30e6), label(9, 10)))...) // routing 30 ms
	prof = append(prof, pbBytes(2, cat(pbPacked(1, 2, 4), pbPacked(2, 5, 50e6)))...)               // core 50 ms
	prof = append(prof, pbBytes(2, cat(pbPacked(1, 3, 2, 4), pbPacked(2, 1, 10e6)))...)            // runtime 10 ms
	prof = append(prof, pbBytes(2, cat(pbVarint(1, 4), pbVarint(2, 1), pbVarint(2, 10e6)))...)     // other 10 ms, unpacked encoding
	for i, f := range []uint64{5, 6, 7, 8} {
		prof = append(prof, function(uint64(i+1), f)...)
	}
	for _, s := range strs {
		prof = append(prof, pbBytes(6, []byte(s))...)
	}
	var zipped bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	zw.Write(prof)
	zw.Close()

	samples, err := parseCPUProfile(zipped.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 4 {
		t.Fatalf("parsed %d samples, want 4", len(samples))
	}
	got := layerCPU(samples)
	want := map[string]time.Duration{"routing": 30 * time.Millisecond, "core": 50 * time.Millisecond,
		"runtime": 10 * time.Millisecond, "other": 10 * time.Millisecond}
	var total time.Duration
	for _, l := range layerNames {
		if got[l] != want[l] {
			t.Errorf("layer %s: %v, want %v", l, got[l], want[l])
		}
		total += got[l]
	}
	if total != 100*time.Millisecond {
		t.Errorf("layers sum to %v, want the profile's 100 ms (100 %%)", total)
	}
	for l := range got {
		found := false
		for _, n := range layerNames {
			found = found || n == l
		}
		if !found {
			t.Errorf("sample attributed to %q, which is not a named layer", l)
		}
	}
	if _, err := parseCPUProfile([]byte("not a profile")); err == nil {
		t.Error("garbage input parsed without error")
	}
}

func TestBoundHonoursFloors(t *testing.T) {
	byName := map[string]metric{}
	for _, m := range endToEnd {
		byName[m.Name] = m
	}
	cases := []struct {
		metric    string
		base, cur float64
		worse     bool
	}{
		{"wall_s", 1.0, 1.24, false},
		{"wall_s", 1.0, 1.26, true},
		{"wall_s", 1.0, 0.5, false},
		{"setup_s", 0.004, 0.012, false}, // 3x, but 8 ms is under the 20 ms floor
		{"setup_s", 0.040, 0.065, true},  // +62 %, 25 ms
		{"setup_s", 1.5, 1.8, false},     // +20 % is inside the 25 % bound
		{"setup_s", 1.5, 1.9, true},
		{"peak_rss_mb", 12, 19, false}, // +58 %, but 7 MiB is under the 8 MiB floor
		{"peak_rss_mb", 110, 128, true},
		{"peak_rss_mb", 110, 125, false},
	}
	for _, c := range cases {
		if got := byName[c.metric].worse(c.base, c.cur); got != c.worse {
			t.Errorf("%s %g -> %g: worse = %v, want %v", c.metric, c.base, c.cur, got, c.worse)
		}
	}
	up := metric{Name: "x", Better: "higher", Bound: 0.1}
	if !up.worse(10, 8) || up.worse(10, 9.5) || up.worse(10, 12) {
		t.Error("higher-is-better bound compares the wrong way")
	}
}

// validName is the contract's rule for metric and workload names.
func validName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for i, r := range s {
		alnum := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9'
		if !alnum && (i == 0 || !strings.ContainsRune("_.-", r)) {
			return false
		}
	}
	return true
}

func TestTablesMeetTheContract(t *testing.T) {
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !validName(n) {
			t.Errorf("%s name %q is not 1-64 of [A-Za-z0-9_.-] starting with a letter or digit", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1-200", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range endToEnd {
		name("end-to-end", m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must have the largest bound; %s has %g", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("end-to-end metrics must include setup_s in s, lower is better")
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if m.Doc == "" {
			t.Errorf("%s: no description", m.Name)
		}
	}
	for _, m := range perLayer {
		name("per-layer", m.Name)
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2-8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", n)
	}
	for _, bad := range []string{"", "_x", "a b", "a/b", "é", string(make([]byte, 65))} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}

	// The pinned digests follow the same table.
	var exp struct {
		Seed    int64             `json:"seed"`
		Digests map[string]string `json:"digests"`
	}
	if err := json.Unmarshal(expectedJSON, &exp); err != nil {
		t.Fatal(err)
	}
	if exp.Seed != pinnedSeed {
		t.Errorf("expected.json is for seed %d, the program pins %d", exp.Seed, pinnedSeed)
	}
	for _, w := range workloads {
		if len(exp.Digests[w.Name]) != 64 {
			t.Errorf("expected.json has no digest for %s", w.Name)
		}
	}
	if len(exp.Digests) != len(workloads) {
		t.Errorf("expected.json has %d digests, want %d", len(exp.Digests), len(workloads))
	}
}

func TestManifestIsTheCommittedFile(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the tables in table.go; regenerate it with: bash benchmark/run.sh -manifest > BENCHMARK.json")
	}
	if len(want) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(want))
	}
	var list bytes.Buffer
	printList(&list)
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !bytes.Contains(list.Bytes(), []byte(m.Name)) {
			t.Errorf("-list does not print %s", m.Name)
		}
	}
}

func TestPaperGainErr(t *testing.T) {
	fig := dxbar.Figure{Series: []dxbar.Series{
		{Label: "DXbar DOR", Y: []float64{0.1, 0.36, 0.42}},
		{Label: "Buffered 8", Y: []float64{0.1, 0.35, 0.33}}, // gain 20 %: gap 0
		{Label: "Buffered 4", Y: []float64{0.1, 0.30, 0.28}}, // gain 40 %: gap 0
		{Label: "Flit-Bless", Y: []float64{0.1, 0.28, 0.21}}, // gain 50 %: gap 10
		{Label: "SCARAB", Y: []float64{0.1, 0.35, 0.30}},     // gain 20 %: gap 20
		{Label: "DXbar WF", Y: []float64{0.1, 0.30, 0.30}},   // not quoted
	}}
	pp, err := paperGainErr(fig)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pp-7.5) > 1e-9 {
		t.Errorf("paper gain error = %g pp, want 7.5", pp)
	}
	if _, err := paperGainErr(dxbar.Figure{}); err == nil {
		t.Error("an empty figure gave no error")
	}
}

func TestSummarize(t *testing.T) {
	d := summarize([]float64{5, 1, 3, 2, 4})
	if d.Min != 1 || d.Median != 3 || d.Q1 != 2 || d.Q3 != 4 || d.N != 5 {
		t.Errorf("summarize = %+v", d)
	}
	if d := summarize([]float64{7}); d.Min != 7 || d.Median != 7 || d.Q3 != 7 {
		t.Errorf("summarize of one value = %+v", d)
	}
}
