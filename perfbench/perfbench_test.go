package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %g, want %g", c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of an empty sample is not 0")
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	const ms = time.Millisecond
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100 * ms},
		// Two concurrent children overlapping on [30, 40): their union
		// covers [10, 60), not 60 ms.
		{ID: 2, Parent: 1, Name: "a.x", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "b.y", Start: 30 * ms, End: 60 * ms},
		// A child running past its parent's end covers only [90, 100).
		{ID: 4, Parent: 1, Name: "a.x", Start: 90 * ms, End: 120 * ms},
		// A grandchild takes time from its parent only.
		{ID: 5, Parent: 3, Name: "c.z", Start: 35 * ms, End: 45 * ms},
		// Open spans are skipped.
		{ID: 6, Parent: 1, Name: "d.w", Start: 95 * ms, End: -1},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 40 * ms, 2: 30 * ms, 3: 20 * ms, 4: 30 * ms, 5: 10 * ms} {
		if self[id] != want {
			t.Errorf("span %d self time %v, want %v", id, self[id], want)
		}
	}
	if _, ok := self[6]; ok {
		t.Error("open span has a self time")
	}

	probe := []span{{ID: 7, Name: "probe", Start: 0, End: 50 * ms}, {ID: 8, Parent: 7, Name: "a.x", Start: 0, End: 50 * ms}}
	byName := selfByName(append(spans, probe...), "op")
	if byName["a.x"] != 60*ms || byName["op"] != 40*ms || byName["c.z"] != 10*ms {
		t.Errorf("selfByName = %v, want a.x 60ms, op 40ms, c.z 10ms and no probe time", byName)
	}
}

func TestRecorderNilAndNesting(t *testing.T) {
	var off *recorder
	if id := off.start("op", 0, 1); id != 0 {
		t.Fatalf("nil recorder returned span id %d", id)
	}
	off.end(0)
	r := newRecorder()
	root := r.start("op", 0, 7)
	if err := r.record("fault.prepare", root, 7, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	r.end(root)
	got := r.snapshot()
	if len(got) != 2 || got[1].Parent != got[0].ID || got[1].Req != 7 || got[0].End < got[1].End {
		t.Fatalf("spans %+v do not nest", got)
	}
}

func TestTallyCountsFailures(t *testing.T) {
	var tl tally
	tl.check(true, "fine")
	tl.check(false, "golden differs for %s", "GEMM K1")
	tl.sites(300, 0, "clean campaign")
	tl.sites(100, 3, "campaign with quarantined sites")
	a, f := tl.counts()
	if a != 402 || f != 4 {
		t.Fatalf("attempted %d failed %d, want 402 and 4", a, f)
	}
	if got, want := tl.failedFrac(), 4.0/402; got != want {
		t.Errorf("failedFrac %g, want %g", got, want)
	}
	if len(tl.reasons) != 2 || !strings.Contains(tl.reasons[0], "GEMM K1") || !strings.Contains(tl.reasons[1], "3 of 100") {
		t.Errorf("reasons %q", tl.reasons)
	}
	for i := 0; i < 2*maxReasons; i++ {
		tl.check(false, "again")
	}
	if len(tl.reasons) != maxReasons {
		t.Errorf("kept %d reasons, want %d", len(tl.reasons), maxReasons)
	}
	var empty tally
	if empty.failedFrac() != 0 {
		t.Error("failedFrac of nothing attempted is not 0")
	}
}

// benchmarkJSON is the part of BENCHMARK.json the program must agree with.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(bj.PerLayer), len(perLayer))
	}
	for i, m := range bj.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not a program workload", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the program has %d", names, len(workloads))
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of range", bj.RunSeconds)
	}
}

// TestPrintedMetricsAreDeclared emits both result lines from a run with
// every metric set and checks that the names printed are exactly the ones
// BENCHMARK.json declares, with their units.
func TestPrintedMetricsAreDeclared(t *testing.T) {
	bj := readBenchmarkJSON(t)
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bj.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		want[true][m.Name] = m.Unit
	}
	for _, traced := range []bool{false, true} {
		b := &bench{workload: "estimate", traced: traced, vals: make(map[string]value)}
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		for i, d := range defs {
			if !traced || d.enters(b.workload) {
				b.set(d.name, float64(i)+0.5, 1, "")
			}
		}
		b.tally.check(true, "")
		var out bytes.Buffer
		if err := b.emit(&out); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Attempted != 1 || res.Failed != 0 {
			t.Errorf("result counts %+v", res)
		}
		var got []string
		for name, m := range res.Metrics {
			got = append(got, name)
			if unit, ok := want[traced][name]; !ok || unit != m.Unit {
				t.Errorf("printed %s in %s, BENCHMARK.json has %q (declared %v)", name, m.Unit, unit, ok)
			}
		}
		if len(got) != len(want[traced]) {
			sort.Strings(got)
			t.Errorf("traced=%v printed %d metrics %v, BENCHMARK.json declares %d", traced, len(got), got, len(want[traced]))
		}
	}
}

func TestEmitRejectsMissingMetric(t *testing.T) {
	b := &bench{workload: "service", traced: true, vals: make(map[string]value)}
	for _, d := range perLayer {
		if d.enters("service") && d.name != "journal.sync_ms" {
			b.set(d.name, 1, 1, "")
		}
	}
	b.tally.check(true, "")
	if err := b.emit(&bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "journal.sync_ms") {
		t.Fatalf("emit without journal.sync_ms on service: %v", err)
	}
	b.set("journal.sync_ms", 1, 1, "")
	if err := b.emit(&bytes.Buffer{}); err != nil {
		t.Fatalf("emit with every service metric: %v", err)
	}
}
