package journal_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/journal"
	"repro/internal/report"
)

// TestLegacyFallbackRecordDecodes: journals written by older engines carry
// "fb":true on runs that bypassed the checkpoint store. The flag no longer
// exists, but such journals must still replay and merge: ReadFile returns
// the record as if the flag were absent, Open resumes over it, and the
// merged report carries no full_run_fallbacks key.
func TestLegacyFallbackRecordDecodes(t *testing.T) {
	fp := journal.Fingerprint{Kernel: "GEMM K1", Scale: "small", Seed: 7,
		Model: "stuck-active-mask", Sites: 2, ShardCount: 1}
	path := filepath.Join(t.TempDir(), "legacy.journal")
	j, err := journal.Open(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	legacy := `{"i":0,"t":3,"d":11,"b":1,"o":2,"w":1.5,"fb":true,"a":1}`
	if _, err := f.Write(journal.Frame([]byte(legacy))); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	want := journal.Record{Index: 0, Thread: 3, DynInst: 11, Bit: 1, Outcome: 2, Weight: 1.5, Attempts: 1}

	_, recs, err := journal.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0] != want {
		t.Fatalf("ReadFile records = %+v, want [%+v]", recs, want)
	}

	j2, err := journal.Open(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	if got := j2.Replayed(); len(got) != 1 || got[0] != want {
		t.Fatalf("Open replayed %+v, want [%+v]", got, want)
	}
	next := journal.Record{Index: 1, Thread: 4, DynInst: 2, Bit: 0, Outcome: 0, Weight: 1.5, Attempts: 1}
	if err := j2.Append(next); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err = journal.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0] != want || recs[1] != next {
		t.Fatalf("records after resume = %+v", recs)
	}

	merged, err := report.NewMerged(fp, recs)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(doc, []byte("full_run_fallbacks")) {
		t.Fatalf("merged report still carries full_run_fallbacks: %s", doc)
	}
	if merged.Completed != 2 {
		t.Fatalf("merged report completed = %d, want 2", merged.Completed)
	}
}
