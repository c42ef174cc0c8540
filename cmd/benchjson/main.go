// Command benchjson converts `go test -bench` output on stdin into a JSON
// object mapping benchmark name (without the -GOMAXPROCS suffix) to ns/op,
// written to stdout. Benchmarks that report allocations (b.ReportAllocs or
// -benchmem) also get "<name> B/op" and "<name> allocs/op" entries. When a
// benchmark appears multiple times (`-count=N`), the minimum of each value
// is kept: the best-of-N sample is the standard way to strip scheduler and
// cache jitter from a single-iteration measurement, and its ns/op is what
// the benchdiff regression gate compares. The raw input is echoed
// to stderr so piping through benchjson keeps the benchmark progress
// visible:
//
//	go test -run '^$' -bench . -benchtime 1x -count 2 . | benchjson > BENCH.json
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

func main() {
	results := map[string]float64{}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(os.Stderr, line)
		fields := strings.Fields(line)
		// "BenchmarkTable2-8   3   277000000 ns/op [extra metrics...]"
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i]
		}
		for j := 2; j+1 < len(fields); j += 2 {
			key := name
			switch unit := fields[j+1]; unit {
			case "ns/op":
			case "B/op", "allocs/op":
				key += " " + unit
			default:
				continue
			}
			if v, err := strconv.ParseFloat(fields[j], 64); err == nil {
				if old, ok := results[key]; !ok || v < old {
					results[key] = v
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(results); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
