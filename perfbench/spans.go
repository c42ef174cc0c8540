package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the boundary. Name is "<layer>.<operation>"; Parent is 0 for a root.
// Spans of one request (a kernel of a pass, a campaign) share Req.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per boundary.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// start opens a span and returns its id (0 on a nil recorder).
func (r *recorder) start(name string, parent int, req int64) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return len(r.spans)
}

// end closes the span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// record runs f inside a span.
func (r *recorder) record(name string, parent int, req int64, f func() error) error {
	id := r.start(name, parent, req)
	err := f()
	r.end(id)
	return err
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores every span as one JSON object per line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each closed span's self time: its duration minus the
// part of its interval that its children cover. Children may overlap each
// other (concurrent calls under one parent); the covered part is their
// union, clipped to the parent's interval. Open spans are skipped.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered time.Duration
		cur := s.Start // end of the union covered so far
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
			}
			cur = max(cur, min(k.End, s.End))
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// selfByName sums self time per span name over spans whose root is named
// root; spans under other roots (the probes) are left out.
func selfByName(spans []span, root string) map[string]time.Duration {
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	rootOf := func(s span) string {
		for s.Parent != 0 {
			s = byID[s.Parent]
		}
		return s.Name
	}
	out := make(map[string]time.Duration)
	for id, d := range selfTimes(spans) {
		s := byID[id]
		if rootOf(s) == root {
			out[s.Name] += d
		}
	}
	return out
}

// shares renders per-name self times as percentages of their total,
// largest first, for the report table.
func shares(byName map[string]time.Duration) []string {
	var total time.Duration
	names := make([]string, 0, len(byName))
	for name, d := range byName {
		total += d
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return byName[names[i]] > byName[names[j]] })
	out := make([]string, 0, len(names))
	for _, n := range names {
		out = append(out, fmt.Sprintf("%-16s %6.2f%%  %10.1f ms", n, 100*float64(byName[n])/float64(max(total, 1)), ms(byName[n])))
	}
	return out
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
