package fault_test

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/kernels"
	"repro/internal/report"
	"repro/internal/stats"
)

// persistentModels are the stuck-at fault models under test.
var persistentModels = []fault.Model{
	fault.ModelStuckPred, fault.ModelStuckActiveMask, fault.ModelStuckBarrier,
}

// stuckSample builds a deterministic persistent-site population: the full
// stuck-at spaces of two threads in different CTAs (so activation points
// cover barrier arrivals, memory traffic and retirement) plus a random
// sample across the rest of the grid.
func stuckSample(tg *fault.Target, model fault.Model, n int) []fault.WeightedSite {
	space := fault.NewSpace(tg.Profile())
	var sites []fault.Site
	sites = append(sites, space.StuckSites(0, model, nil)...)
	sites = append(sites, space.StuckSites(tg.Threads()-1, model, nil)...)
	sites = append(sites, space.RandomModel(stats.NewRNG(131), n, model)...)
	return fault.Uniform(sites)
}

// stuckReference computes per-site outcomes on the reference engine: the
// interpreter, full runs from the pristine image, a fresh device per site.
func stuckReference(t *testing.T, ref *fault.Target, sites []fault.WeightedSite, model fault.Model) []fault.Outcome {
	t.Helper()
	want := make([]fault.Outcome, len(sites))
	seen := map[fault.Outcome]int{}
	for i, ws := range sites {
		o, err := ref.RunSiteModel(ws.Site, model)
		if err != nil {
			t.Fatalf("reference %v: %v", ws.Site, err)
		}
		want[i] = o
		seen[o]++
	}
	if len(seen) < 2 {
		t.Fatalf("model %s: degenerate outcome space %v — the sample exercises nothing", model, seen)
	}
	return want
}

// TestStuckAtMatchesFullRunExhaustive is the central equivalence property of
// the persistent-fault subsystem: on the adversarial chainhang kernel
// (cross-CTA global dependence, predicate-guarded barrier split), every
// stuck-at site must give identical outcomes across {interpreter, compiled}
// × {checkpointed + intra-CTA resume, full run} × {serial, warp} — with every
// model, including the scheduler-corrupting mask and barrier stuck-ats,
// riding the fast-forward engine (the scheduler-complete snapshot argument,
// DESIGN.md §3.8), which the stats must surface.
func TestStuckAtMatchesFullRunExhaustive(t *testing.T) {
	for _, warp := range []int{0, 4} {
		warp := warp
		name := "serial"
		if warp > 0 {
			name = "warp4"
		}
		t.Run(name, func(t *testing.T) {
			ref := chainHangTarget(t)
			ref.WarpSize = warp
			ref.FullRun = true
			ref.Interpret = true
			if err := ref.Prepare(); err != nil {
				t.Fatal(err)
			}
			for _, model := range persistentModels {
				model := model
				t.Run(model.String(), func(t *testing.T) {
					sites := stuckSample(ref, model, 150)
					want := stuckReference(t, ref, sites, model)

					type variant struct {
						name      string
						interpret bool
						fullRun   bool
					}
					variants := []variant{
						{name: "compiled-fullrun", fullRun: true},
						{name: "compiled-ckpt"},
						{name: "interp-ckpt", interpret: true},
					}
					for _, v := range variants {
						tg := chainHangTarget(t)
						tg.WarpSize = warp
						tg.Interpret = v.interpret
						tg.FullRun = v.fullRun
						if !v.fullRun {
							tg.CheckpointStride = 1
							tg.IntraStride = 2
						}
						if err := tg.Prepare(); err != nil {
							t.Fatal(err)
						}
						res, err := fault.RunModel(tg, sites, model, fault.CampaignOptions{
							Parallelism: 4, KeepPerSite: true,
						})
						if err != nil {
							t.Fatalf("%s: %v", v.name, err)
						}
						for i := range want {
							if res.PerSite[i] != want[i] {
								t.Fatalf("%s: site %v gave %v, reference full run gave %v",
									v.name, sites[i].Site, res.PerSite[i], want[i])
							}
						}
						st := res.Stats
						if !v.fullRun {
							if st.CTAsSkipped == 0 {
								t.Fatalf("%s: fast-forward never skipped a CTA for %s", v.name, model)
							}
							if st.IntraSkips == 0 {
								t.Fatalf("%s: intra-CTA resume never fired for %s", v.name, model)
							}
						}
					}
				})
			}
		})
	}
}

// TestStuckAtGaussianEquivalence extends the equivalence matrix to the
// paper's cross-CTA-dependency kernels: Gaussian Fan1 and Fan2 at small
// geometry, persistent sites sampled from each model's own space, compiled
// checkpointed and full-run campaigns against the interpreter full-run
// reference, under both schedulers.
func TestStuckAtGaussianEquivalence(t *testing.T) {
	for _, kname := range []string{"Gaussian K1", "Gaussian K2"} {
		kname := kname
		t.Run(kname, func(t *testing.T) {
			spec, ok := kernels.ByName(kname)
			if !ok {
				t.Fatalf("kernel %q missing", kname)
			}
			for _, warp := range []int{0, 4} {
				rinst, err := spec.Build(kernels.ScaleSmall)
				if err != nil {
					t.Fatal(err)
				}
				ref := rinst.Target
				ref.WarpSize = warp
				ref.FullRun = true
				ref.Interpret = true
				if err := ref.Prepare(); err != nil {
					t.Fatal(err)
				}
				for _, model := range persistentModels {
					space := fault.NewSpace(ref.Profile())
					sites := fault.Uniform(space.RandomModel(stats.NewRNG(173), 80, model))
					want := make([]fault.Outcome, len(sites))
					for i, ws := range sites {
						o, err := ref.RunSiteModel(ws.Site, model)
						if err != nil {
							t.Fatalf("reference %v: %v", ws.Site, err)
						}
						want[i] = o
					}
					for _, fullRun := range []bool{false, true} {
						inst, err := spec.Build(kernels.ScaleSmall)
						if err != nil {
							t.Fatal(err)
						}
						tg := inst.Target
						tg.WarpSize = warp
						tg.FullRun = fullRun
						if !fullRun {
							tg.IntraStride = 2
						}
						if err := tg.Prepare(); err != nil {
							t.Fatal(err)
						}
						res, err := fault.RunModel(tg, sites, model, fault.CampaignOptions{
							Parallelism: 4, KeepPerSite: true,
						})
						if err != nil {
							t.Fatal(err)
						}
						for i := range want {
							if res.PerSite[i] != want[i] {
								t.Fatalf("warp %d model %s fullrun %v: site %v gave %v, reference %v",
									warp, model, fullRun, sites[i].Site, res.PerSite[i], want[i])
							}
						}
					}
				}
			}
		})
	}
}

// TestStuckAtCampaignSmoke pins the fast-forward observability chain end to
// end for every persistent model: snapshots are scheduler-complete
// (DESIGN.md §3.8), so every campaign must demonstrably fast-forward, the
// stats line and report JSON carry no fallback counter, and the journal
// merges through the fsmerge path under the campaign's model.
func TestStuckAtCampaignSmoke(t *testing.T) {
	run := func(model fault.Model, jpath string) *fault.CampaignResult {
		tg := chainHangTarget(t)
		tg.CheckpointStride = 1
		if err := tg.Prepare(); err != nil {
			t.Fatal(err)
		}
		space := fault.NewSpace(tg.Profile())
		sites := fault.Uniform(space.RandomModel(stats.NewRNG(7), 40, model))
		opt := fault.CampaignOptions{Parallelism: 2, KeepPerSite: true}
		if jpath != "" {
			j, err := journal.Open(jpath, tg.JournalFingerprint(model, len(sites), "small", 7, fault.Shard{}))
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			opt.Journal = j
		}
		res, err := fault.RunModel(tg, sites, model, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	for _, model := range persistentModels {
		jpath := filepath.Join(t.TempDir(), model.String()+".journal")
		res := run(model, jpath)
		if res.Stats.CTAsSkipped == 0 {
			t.Fatalf("%s campaign never fast-forwarded", model)
		}
		if strings.Contains(res.Stats.String(), "fallback") {
			t.Fatalf("%s stats line mentions fallbacks: %s", model, res.Stats)
		}
		doc, err := json.Marshal(report.NewCampaign(res.Stats))
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(doc), "full_run_fallbacks") {
			t.Fatalf("%s: zero fallbacks still serialized: %s", model, doc)
		}

		fp, recs, err := journal.ReadFile(jpath)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := report.NewMerged(fp, recs)
		if err != nil {
			t.Fatal(err)
		}
		if merged.Model != model.String() {
			t.Fatalf("merged report model = %q, want %q", merged.Model, model)
		}
	}
}

// TestStuckSitesAndRandomModel pins the persistent site enumerators: every
// enumerated or sampled site validates under its model, and the encodings
// cover both stuck values.
func TestStuckSitesAndRandomModel(t *testing.T) {
	tg := chainHangTarget(t)
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
	space := fault.NewSpace(tg.Profile())
	for _, model := range persistentModels {
		w := model.StuckBits()
		icnt := tg.Profile().Threads[0].ICnt
		sites := space.StuckSites(0, model, nil)
		if int64(len(sites)) != icnt*int64(w) {
			t.Fatalf("%s: %d sites for thread 0, want %d×%d", model, len(sites), icnt, w)
		}
		bits := map[int]bool{}
		for _, s := range sites {
			if _, err := tg.RunSiteModel(s, model); err != nil {
				t.Fatalf("%s: enumerated site %v rejected: %v", model, s, err)
			}
			bits[s.Bit] = true
			if len(bits) == w {
				break // all encodings witnessed; no need to run the rest
			}
		}
		if len(bits) != w {
			t.Fatalf("%s: enumeration covered %d of %d encodings", model, len(bits), w)
		}
		for _, s := range space.RandomModel(stats.NewRNG(5), 64, model) {
			if s.Bit < 0 || s.Bit >= w {
				t.Fatalf("%s: sampled bit %d out of [0,%d)", model, s.Bit, w)
			}
			if s.DynInst < 0 || s.DynInst >= tg.Profile().Threads[s.Thread].ICnt {
				t.Fatalf("%s: sampled dyn %d out of thread %d's trace", model, s.DynInst, s.Thread)
			}
		}
	}
	// Out-of-range stuck encodings are rejected up front.
	if _, err := tg.RunSiteModel(fault.Site{Thread: 0, DynInst: 0, Bit: 2}, fault.ModelStuckBarrier); err == nil {
		t.Fatal("stuck-barrier bit 2 accepted")
	}
	if _, err := tg.RunSiteModel(fault.Site{Thread: 0, DynInst: 0, Bit: 64}, fault.ModelStuckPred); err == nil {
		t.Fatal("stuck-pred bit 64 accepted")
	}
}

// TestParseModelRoundTrip: every model name round-trips through ParseModel,
// and garbage is rejected with the name list in the error.
func TestParseModelRoundTrip(t *testing.T) {
	for m := fault.Model(0); m < fault.NumModels; m++ {
		got, err := fault.ParseModel(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseModel(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := fault.ParseModel("stuck-everything"); err == nil ||
		!strings.Contains(err.Error(), "stuck-pred") {
		t.Fatalf("bad model error = %v", err)
	}
	if n := strings.Count(fault.ModelNames(), ","); n != int(fault.NumModels)-1 {
		t.Fatalf("ModelNames lists %d commas for %d models: %s", n, fault.NumModels, fault.ModelNames())
	}
}

// TestMixedEraJournalFallbacks: journals recorded under the old conservative
// engine — where every scheduler-model site ran as a per-site full run with
// no fast-forward savings — must resume and fsmerge under the current
// engine without skew: replayed outcomes are final, fresh sites ride the
// fast-forward engine, and Dist/PerSite and the merged profile are
// bit-identical to an uninterrupted campaign. (The old records' "fb" flag
// itself is pinned by journal's TestLegacyFallbackRecordDecodes.)
func TestMixedEraJournalFallbacks(t *testing.T) {
	const oldEra = 12
	model := fault.ModelStuckActiveMask
	tg := chainHangTarget(t)
	tg.CheckpointStride = 1
	if err := tg.Prepare(); err != nil {
		t.Fatal(err)
	}
	space := fault.NewSpace(tg.Profile())
	sites := fault.Uniform(space.RandomModel(stats.NewRNG(9), 30, model))

	// The uninterrupted reference under the new engine.
	ref, err := fault.RunModel(tg, sites, model, fault.CampaignOptions{
		Parallelism: 2, KeepPerSite: true,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Forge the old engine's journal: the first oldEra sites recorded as
	// full runs (no fast-forward savings). Outcomes match the reference — the old conservative engine computed the same per-site
	// outcomes, just via pristine full runs (PR 8's equivalence proof).
	fp := tg.JournalFingerprint(model, len(sites), "small", 9, fault.Shard{})
	jpath := filepath.Join(t.TempDir(), "oldera.journal")
	j, err := journal.Open(jpath, fp)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < oldEra; i++ {
		rec := journal.Record{
			Index: i, Thread: sites[i].Site.Thread, DynInst: sites[i].Site.DynInst,
			Bit: sites[i].Site.Bit, Outcome: uint8(ref.PerSite[i]),
			Weight: sites[i].Weight, Attempts: 1,
		}
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume under the new engine.
	j2, err := journal.Open(jpath, fp)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	res, err := fault.RunModel(tg, sites, model, fault.CampaignOptions{
		Parallelism: 2, KeepPerSite: true, Journal: j2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist != ref.Dist {
		t.Fatalf("mixed-era dist %v != uninterrupted %v", res.Dist, ref.Dist)
	}
	for i := range ref.PerSite {
		if res.PerSite[i] != ref.PerSite[i] {
			t.Fatalf("site %d: mixed-era %v, reference %v", i, res.PerSite[i], ref.PerSite[i])
		}
	}
	if res.Stats.Replayed != oldEra {
		t.Fatalf("replayed %d records, want %d", res.Stats.Replayed, oldEra)
	}
	if res.Stats.CTAsSkipped == 0 {
		t.Fatal("fresh sites never fast-forwarded")
	}

	// The fsmerge door.
	mfp, recs, err := journal.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(sites) {
		t.Fatalf("journal holds %d records, want %d", len(recs), len(sites))
	}
	merged, err := report.NewMerged(mfp, recs)
	if err != nil {
		t.Fatal(err)
	}
	if want := report.NewProfile(ref.Dist); merged.Profile != want {
		t.Fatalf("merged profile %+v != reference %+v", merged.Profile, want)
	}
}
