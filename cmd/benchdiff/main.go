// Command benchdiff compares two benchjson outputs (benchmark name -> ns/op)
// and fails when any benchmark present in both regressed beyond the allowed
// percentage. It is the CI gate that keeps the perf trajectory across PRs
// honest: BENCH_prN.json files are recorded by `make bench`, and `make ci`
// diffs the fresh run against the previous PR's file.
//
// Usage:
//
//	benchdiff -max-regress 25 BENCH_pr2.json BENCH_pr3.json
//	benchdiff -allow-missing -max-regress 25 BENCH_pr2.json BENCH_pr3.json
//
// Benchmarks present in only one file (added or retired) are listed but
// never fail the gate. Allocation entries ("<name> B/op", "<name>
// allocs/op", recorded by benchjson for benchmarks that report them) are
// printed with their deltas after the time report; they are informational
// and never gate or enter the drift correction. With -allow-missing, a nonexistent OLD file is not an
// error either: the diff is skipped with a note and the gate passes, so
// `make ci` works on fresh clones that lack the previous PR's recording.
//
// -min-time-ms sets a noise floor: a benchmark whose baseline AND current
// ns/op are both below the floor is reported (as "noisy") but cannot fail
// the gate. Sub-millisecond benches swing tens of percent with scheduler
// and GC jitter at smoke-mode sample counts — interleaved reruns show the
// medians unchanged — so gating them produces flaky CI, not protection.
// Anything slow enough to measure reliably stays gated.
//
// -drift-correct (default on) makes the gate robust to whole-machine speed
// drift between the two recordings: on shared or single-vCPU hosts the
// same tree can measure tens of percent slower wholesale when a co-tenant
// is busy, which would fail every benchmark at once while a genuinely
// regressed one hides in the crowd. The correction divides each
// benchmark's old->new ratio by the suite's median ratio (computed over
// benchmarks above the noise floor) before gating, so a uniform slowdown
// cancels out and only benchmarks that slowed down relative to the rest
// of the suite can fail. The raw delta is still reported next to the
// corrected one, and the drift factor is printed so a wholesale slowdown
// stays visible even though it no longer flakes the gate.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

func main() {
	maxRegress := flag.Float64("max-regress", 25, "allowed slowdown in percent before failing")
	allowMissing := flag.Bool("allow-missing", false, "pass (with a note) when the OLD baseline file does not exist")
	minTimeMS := flag.Float64("min-time-ms", 0, "noise floor: benchmarks under this many ms in both files never fail the gate")
	driftCorrect := flag.Bool("drift-correct", true, "divide per-benchmark ratios by the suite median ratio, cancelling whole-machine speed drift")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-max-regress pct] [-allow-missing] [-drift-correct] OLD.json NEW.json")
		os.Exit(2)
	}
	oldRes, oldMem, err := load(flag.Arg(0))
	if err != nil && *allowMissing && errors.Is(err, os.ErrNotExist) {
		fmt.Printf("benchdiff: baseline %s missing; skipping regression gate\n", flag.Arg(0))
		return
	}
	fatal(err)
	newRes, newMem, err := load(flag.Arg(1))
	fatal(err)

	names := make([]string, 0, len(oldRes))
	for name := range oldRes {
		names = append(names, name)
	}
	sort.Strings(names)

	// Median old->new ratio over the reliably-measurable shared benchmarks:
	// the suite-wide machine-speed drift between the two recordings. At
	// least three such benchmarks are required — a median of one or two is
	// just that benchmark, and correcting by it would blind the gate.
	drift := 1.0
	if *driftCorrect {
		var ratios []float64
		for _, name := range names {
			prev, cur := oldRes[name], newRes[name]
			if prev > 0 && cur > 0 && prev >= *minTimeMS*1e6 && cur >= *minTimeMS*1e6 {
				ratios = append(ratios, cur/prev)
			}
		}
		if len(ratios) >= 3 {
			sort.Float64s(ratios)
			drift = ratios[len(ratios)/2]
			if len(ratios)%2 == 0 {
				drift = (ratios[len(ratios)/2-1] + ratios[len(ratios)/2]) / 2
			}
			fmt.Printf("benchdiff: suite drift %+.1f%% (median of %d ratios); gating relative to it\n",
				100*(drift-1), len(ratios))
		}
	}

	regressions := 0
	for _, name := range names {
		prev := oldRes[name]
		cur, ok := newRes[name]
		if !ok {
			fmt.Printf("gone     %-36s (was %s)\n", name, ms(prev))
			continue
		}
		if prev <= 0 {
			continue
		}
		delta := 100 * (cur - prev) / prev
		gated := 100 * (cur/(prev*drift) - 1)
		note := ""
		if drift != 1.0 {
			note = fmt.Sprintf(", %+.1f%% raw", delta)
		}
		if gated > *maxRegress && prev < *minTimeMS*1e6 && cur < *minTimeMS*1e6 {
			fmt.Printf("noisy    %-36s %s -> %s (%+.1f%%%s, under %.0fms floor)\n",
				name, ms(prev), ms(cur), gated, note, *minTimeMS)
		} else if gated > *maxRegress {
			regressions++
			fmt.Printf("REGRESS  %-36s %s -> %s (%+.1f%%%s, limit %+.1f%%)\n",
				name, ms(prev), ms(cur), gated, note, *maxRegress)
		} else {
			fmt.Printf("ok       %-36s %s -> %s (%+.1f%%%s)\n", name, ms(prev), ms(cur), gated, note)
		}
	}
	added := make([]string, 0)
	for name := range newRes {
		if _, ok := oldRes[name]; !ok {
			added = append(added, name)
		}
	}
	sort.Strings(added)
	for _, name := range added {
		fmt.Printf("new      %-36s %s (no baseline)\n", name, ms(newRes[name]))
	}
	printMem(oldMem, newMem)

	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d benchmark(s) regressed more than %.1f%% vs %s\n",
			regressions, *maxRegress, flag.Arg(0))
		os.Exit(1)
	}
}

// load reads a benchjson recording, split into ns/op entries keyed by
// benchmark name and allocation entries keyed "<name> <unit>".
func load(path string) (times, mem map[string]float64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var m map[string]float64
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	times, mem = map[string]float64{}, map[string]float64{}
	for k, v := range m {
		if strings.HasSuffix(k, " B/op") || strings.HasSuffix(k, " allocs/op") {
			mem[k] = v
		} else {
			times[k] = v
		}
	}
	return times, mem, nil
}

// printMem reports allocation deltas. They never fail the gate: allocation
// counts are a layer attribution for time changes, not a budget.
func printMem(oldMem, newMem map[string]float64) {
	keys := make([]string, 0, len(newMem))
	for k := range newMem {
		keys = append(keys, k)
	}
	for k := range oldMem {
		if _, ok := newMem[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		prev, hadPrev := oldMem[k]
		cur, hasCur := newMem[k]
		switch {
		case !hasCur:
			fmt.Printf("mem      %-46s gone (was %s)\n", k, qty(prev))
		case !hadPrev:
			fmt.Printf("mem      %-46s %s (no baseline)\n", k, qty(cur))
		case prev == 0:
			fmt.Printf("mem      %-46s %s -> %s\n", k, qty(prev), qty(cur))
		default:
			fmt.Printf("mem      %-46s %s -> %s (%+.1f%%)\n", k, qty(prev), qty(cur), 100*(cur-prev)/prev)
		}
	}
}

// qty renders a byte or allocation count with an SI suffix.
func qty(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fK", v/1e3)
	}
	return fmt.Sprintf("%.0f", v)
}

func ms(ns float64) string {
	return fmt.Sprintf("%.1fms", ns/1e6)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}
