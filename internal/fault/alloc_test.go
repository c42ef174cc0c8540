package fault_test

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/kernels"
	"repro/internal/stats"
)

// maxAllocsPerSite bounds the heap allocations one injected site may cost a
// warm campaign worker. The execution arena makes thread, shared-memory and
// resume state free; what remains is the per-run Result, its caller-owned
// ThreadICnt, the injection and hook closures, and the engine's per-site
// bookkeeping.
const maxAllocsPerSite = 24

// TestCampaignAllocsPerSite gates the injection hot path's allocation count
// on two kernels that cover the fast-forward paths: GEMM K1 resumes from
// intra-CTA snapshots, 2DCONV K1 resumes at CTA boundaries and exits early
// on golden convergence.
func TestCampaignAllocsPerSite(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random")
	}
	for _, kname := range []string{"GEMM K1", "2DCONV K1"} {
		t.Run(kname, func(t *testing.T) {
			spec, ok := kernels.ByName(kname)
			if !ok {
				t.Fatalf("kernel %q missing", kname)
			}
			inst, err := spec.Build(kernels.ScaleSmall)
			if err != nil {
				t.Fatal(err)
			}
			tg := inst.Target
			if err := tg.Prepare(); err != nil {
				t.Fatal(err)
			}
			sites := fault.Uniform(fault.NewSpace(tg.Profile()).Random(stats.NewRNG(7), 256))
			opt := fault.CampaignOptions{Parallelism: 1}
			var res *fault.CampaignResult
			allocs := testing.AllocsPerRun(5, func() {
				if res, err = fault.RunModel(tg, sites, fault.ModelDestValue, opt); err != nil {
					t.Fatal(err)
				}
			})
			st := res.Stats
			switch kname {
			case "GEMM K1":
				if st.IntraSkips == 0 {
					t.Fatalf("no run resumed from an intra-CTA snapshot: %+v", st)
				}
			case "2DCONV K1":
				if st.CTAsSkipped == 0 || st.EarlyExits == 0 {
					t.Fatalf("no CTA-boundary resume or early exit: %+v", st)
				}
			}
			perSite := allocs / float64(len(sites))
			t.Logf("%s: %.1f allocations per site", kname, perSite)
			if perSite > maxAllocsPerSite {
				t.Fatalf("%.1f allocations per site, want <= %d", perSite, maxAllocsPerSite)
			}
		})
	}
}
