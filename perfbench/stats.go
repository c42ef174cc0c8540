package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. An empty sample yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// percentileLadder lists the percentiles the tail rule chooses from.
var percentileLadder = []float64{50, 90, 95, 99, 99.9}

// tailPercentile applies the reporting rule for timings: the highest
// percentile of the ladder that still has at least 10 samples beyond it.
// It returns 0 when even the median has fewer than 10 samples above it.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 99.9 is inexact in binary
			best = p
		}
	}
	return best
}

// tailLabel states the rule's percentile for n samples.
func tailLabel(n int) string {
	p := tailPercentile(n)
	if p == 0 {
		return fmt.Sprintf("no percentile has 10 of its %d samples beyond it", n)
	}
	return fmt.Sprintf("highest percentile with 10 samples beyond it: p%g of %d", p, n)
}

// mean returns the sum of xs divided by n (0 when n is 0).
func mean(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// tally counts attempted and failed operations: injected sites, HTTP
// requests and correctness checks. A failure is a quarantined or
// engine-error site, a non-2xx response or a check that did not hold.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	reasons   []string
}

// maxReasons bounds the failure messages kept for the report.
const maxReasons = 10

// check counts one attempted operation that failed unless ok.
func (t *tally) check(ok bool, format string, args ...any) {
	t.add(1, !ok, format, args...)
}

// add counts n attempted operations, of which one failed if fail is set.
func (t *tally) add(n int64, fail bool, format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += n
	if fail {
		t.failed++
		if len(t.reasons) < maxReasons {
			t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
		}
	}
}

// sites counts n injected sites of which quarantined ended as engine
// errors.
func (t *tally) sites(n, quarantined int64, what string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted += n
	t.failed += quarantined
	if quarantined > 0 && len(t.reasons) < maxReasons {
		t.reasons = append(t.reasons, fmt.Sprintf("%s: %d of %d sites quarantined", what, quarantined, n))
	}
}

func (t *tally) counts() (attempted, failed int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

// failedFrac is failed operations over attempted ones.
func (t *tally) failedFrac() float64 {
	a, f := t.counts()
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}
