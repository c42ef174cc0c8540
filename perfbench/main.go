// Command perfbench is the repository benchmark. One command runs one
// workload, checks its outputs, and prints every metric by name with its
// unit and sample count, ending with one JSON line:
//
//	bash perfbench/run.sh --workload estimate --seed 1 --seconds 35 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// records spans around every call into a layer and prints the per-layer
// metrics instead. README.md in this directory maps each metric to its
// layer and workload.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload interface {
	// setup does everything before the first timed operation: warm-up and,
	// for the service, server start. It is what setup_s measures.
	setup() error
	// run measures for the bench's window, checks outputs and sets metrics.
	run() error
	// close releases what setup started and waits for it to stop.
	close()
}

// workloads maps each name to its constructor. Why each exists is written
// next to its definition and in BENCHMARK.json.
var workloads = map[string]func(*bench) workload{
	"plan-paper": newPlanPaper,
	"estimate":   newEstimate,
	"service":    newService,
}

// setupProbes is how many fresh processes measure setup_s; the median is
// reported.
const setupProbes = 9

// minOps is the least number of operations an untraced run completes, so
// that the 90th percentile has at least 10 samples beyond it.
const minOps = 100

// value is one measured metric.
type value struct {
	v    float64
	n    int
	note string
}

// bench is the state of one benchmark run.
type bench struct {
	workload string
	seed     int64
	window   time.Duration
	traced   bool
	// dir is this run's scratch directory inside the checkout.
	dir string
	// rec holds the spans of a traced run; nil when untraced.
	rec   *recorder
	tally tally
	vals  map[string]value
	// extra lines for the human-readable report.
	notes       []string
	heapPeak    uint64
	heapSamples int
}

func (b *bench) set(name string, v float64, n int, note string) {
	b.vals[name] = value{v: v, n: n, note: note}
}

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// sampleHeap records the live heap at a layer boundary: two collections
// first (the second empties sync.Pool victim caches), so the figure is
// what the boundary keeps alive, not how far the collector happened to
// lag. Callers keep it outside timed regions.
func (b *bench) sampleHeap() {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	b.heapPeak = max(b.heapPeak, m.HeapAlloc)
	b.heapSamples++
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: plan-paper, estimate or service")
	seed := fs.Int64("seed", 1, "workload seed; every site sample and submission seed derives from it")
	seconds := fs.Int("seconds", 35, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	probe := fs.Bool("setup-probe", false, "set up, print a ready line and exit (used to time setup_s)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mk, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want plan-paper, estimate or service)", *name)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", *seconds)
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	out := filepath.Join(root, ".bench_build", "perfbench")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	b := &bench{
		workload: *name,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		dir:      dir,
		vals:     make(map[string]value),
	}
	if *probe {
		w := mk(b)
		defer w.close()
		if err := w.setup(); err != nil {
			return err
		}
		_, err := fmt.Fprintln(stdout, "ready")
		return err
	}

	var setups []float64
	if b.traced {
		b.rec = newRecorder()
	} else if setups, err = measureSetup(args); err != nil {
		return err
	}
	w := mk(b)
	defer w.close()
	if err := w.setup(); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	if err := w.run(); err != nil {
		return err
	}
	if !b.traced {
		b.set("setup_s", median(setups), len(setups), "process start to first timed operation, median of fresh processes")
		b.set("heap_peak_mb", float64(b.heapPeak)/(1<<20), b.heapSamples, "peak live heap at layer boundaries")
	} else {
		path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", b.workload, b.seed))
		if err := b.rec.write(path); err != nil {
			return err
		}
		b.note("spans: %d written to %s", len(b.rec.snapshot()), path)
	}
	return b.emit(stdout)
}

// measureSetup starts this binary setupProbes times in setup-probe mode
// and times each from process start until it reports ready.
func measureSetup(args []string) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	probeArgs := append(append([]string(nil), args...), "--setup-probe", "--trace", "0")
	var out []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, probeArgs...)
		cmd.Stderr = os.Stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(pipe).ReadString('\n')
		elapsed := time.Since(t0)
		if rerr == nil {
			_, rerr = io.Copy(io.Discard, pipe)
		}
		if werr := cmd.Wait(); werr != nil {
			return nil, fmt.Errorf("setup probe: %w", werr)
		}
		if rerr != nil || strings.TrimSpace(line) != "ready" {
			return nil, fmt.Errorf("setup probe printed %q: %v", line, rerr)
		}
		out = append(out, elapsed.Seconds())
	}
	return out, nil
}

// jsonMetric is one entry of the result line's metrics object.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// emit prints the human-readable table, then the result line. A per-layer
// metric whose layer this workload does not enter reads 0; any other
// missing metric is an error.
func (b *bench) emit(w io.Writer) error {
	defs := endToEnd
	if b.traced {
		defs = perLayer
	}
	attempted, failed := b.tally.counts()
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: make(map[string]jsonMetric)}
	mode := "end-to-end, tracing off"
	if b.traced {
		mode = "per-layer, traced"
	}
	fmt.Fprintf(w, "perfbench workload=%s seed=%d window=%s (%s)\n", b.workload, b.seed, b.window, mode)
	fmt.Fprintf(w, "%-28s %14s %-9s %6s  %s\n", "metric", "value", "unit", "n", "what")
	for _, d := range defs {
		v, ok := b.vals[d.name]
		if !ok {
			if !b.traced || d.enters(b.workload) {
				return fmt.Errorf("metric %s was not measured", d.name)
			}
			v = value{note: "layer not entered by this workload"}
		}
		if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
			return fmt.Errorf("metric %s is not finite: %v", d.name, v.v)
		}
		res.Metrics[d.name] = jsonMetric{Value: v.v, Unit: d.unit}
		fmt.Fprintf(w, "%-28s %14.4f %-9s %6d  %s\n", d.name, v.v, d.unit, v.n, v.note)
	}
	fmt.Fprintf(w, "%-28s %14.6f %-9s %6d  failed over attempted (sites, requests, checks)\n",
		"failed_frac", b.tally.failedFrac(), "ratio", attempted)
	for _, n := range b.notes {
		fmt.Fprintln(w, n)
	}
	for _, r := range b.tally.reasons {
		fmt.Fprintln(w, "FAILED:", r)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
