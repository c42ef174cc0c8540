package fault_test

import (
	"testing"

	"repro/internal/fault"
)

// TestCompiledCampaignMatchesInterpreter is the end-to-end acceptance
// property of the compiled execution plan (DESIGN.md §3.8) at the fault-
// campaign level: on the adversarial chainhang kernel — whose exhaustive
// site space reaches all four outcome classes, including barrier deadlocks
// and address faults — a campaign on the compiled path with every
// acceleration layer enabled (CTA checkpoints, intra-CTA snapshots) must
// give outcome-for-outcome identical results to the reference interpreter
// running full runs from the pristine image (Target.Interpret), under both
// schedulers.
func TestCompiledCampaignMatchesInterpreter(t *testing.T) {
	for _, warp := range []int{0, 4} {
		warp := warp
		name := "serial"
		if warp > 0 {
			name = "warp4"
		}
		t.Run(name, func(t *testing.T) {
			// Reference: the interpreter, full runs, no fast-forwarding.
			ref := chainHangTarget(t)
			ref.WarpSize = warp
			ref.Interpret = true
			ref.FullRun = true
			if err := ref.Prepare(); err != nil {
				t.Fatal(err)
			}
			sites := exhaustiveSites(ref)
			if len(sites) < 1000 {
				t.Fatalf("implausibly small exhaustive space: %d", len(sites))
			}
			want := make([]fault.Outcome, len(sites))
			seen := map[fault.Outcome]int{}
			for i, ws := range sites {
				o, err := ref.RunSite(ws.Site)
				if err != nil {
					t.Fatalf("reference %v: %v", ws.Site, err)
				}
				want[i] = o
				seen[o]++
			}
			for _, o := range []fault.Outcome{fault.Masked, fault.SDC, fault.Crash, fault.Hang} {
				if seen[o] == 0 {
					t.Fatalf("exhaustive space reaches no %v outcome: %v", o, seen)
				}
			}

			// Compiled path with checkpoints and intra-CTA snapshots active.
			tg := chainHangTarget(t)
			tg.WarpSize = warp
			tg.CheckpointStride = 1
			tg.IntraStride = 2
			if err := tg.Prepare(); err != nil {
				t.Fatal(err)
			}
			if tg.Checkpoints() == nil {
				t.Fatal("no checkpoint store on a multi-CTA target")
			}
			if tg.WarpCheckpoints() == nil {
				t.Fatal("no intra-CTA snapshot store")
			}
			res, err := fault.Run(tg, sites, fault.CampaignOptions{
				Parallelism: 4, KeepPerSite: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if res.PerSite[i] != want[i] {
					t.Fatalf("site %v: compiled campaign gave %v, interpreter full run gave %v",
						sites[i].Site, res.PerSite[i], want[i])
				}
			}
			if res.Stats.CTAsSkipped == 0 {
				t.Fatal("compiled campaign never fast-forwarded a CTA")
			}
			if res.Stats.IntraSkips == 0 {
				t.Fatal("compiled campaign never resumed from an intra-CTA snapshot")
			}
		})
	}
}
