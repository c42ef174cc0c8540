// Benchmarks regenerating each of the paper's tables and figures (one
// benchmark per artifact; see DESIGN.md section 4 for the mapping), plus
// microbenchmarks of the substrates they run on. Multi-kernel artifacts use
// a representative kernel subset so a full -bench=. sweep stays affordable
// on a single core; cmd/experiments regenerates the complete versions.
package repro_test

import (
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/ptx"
	"repro/internal/stats"
)

// benchCfg builds the trimmed experiment configuration used by the
// per-artifact benchmarks.
func benchCfg(subset ...string) experiments.Config {
	return experiments.Config{
		Scale:        kernels.ScaleSmall,
		BaselineRuns: 400,
		Seed:         1,
		Out:          io.Discard,
		Kernels:      subset,
	}
}

// benchSubset is a cross-section of the suite: one kernel from each Fig. 10
// class — with instruction commonality (2DCONV), without (Gaussian K1), and
// single-representative (GEMM).
var benchSubset = []string{"2DCONV K1", "Gaussian K1", "GEMM K1"}

func runExperiment(b *testing.B, id string, cfg experiments.Config) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1", benchCfg(benchSubset...)) }
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2", benchCfg()) }
func BenchmarkFig2(b *testing.B)   { runExperiment(b, "fig2", benchCfg("2DCONV K1")) }
func BenchmarkFig3(b *testing.B)   { runExperiment(b, "fig3", benchCfg("2DCONV K1")) }
func BenchmarkTable3(b *testing.B) { runExperiment(b, "table3", benchCfg()) }
func BenchmarkTable4(b *testing.B) { runExperiment(b, "table4", benchCfg()) }
func BenchmarkFig4(b *testing.B)   { runExperiment(b, "fig4", benchCfg("2DCONV K1")) }
func BenchmarkFig5(b *testing.B)   { runExperiment(b, "fig5", benchCfg()) }
func BenchmarkTable5(b *testing.B) { runExperiment(b, "table5", benchCfg()) }
func BenchmarkTable6(b *testing.B) { runExperiment(b, "table6", benchCfg("2DCONV K1")) }
func BenchmarkTable7(b *testing.B) { runExperiment(b, "table7", benchCfg(benchSubset...)) }
func BenchmarkFig7(b *testing.B)   { runExperiment(b, "fig7", benchCfg("2DCONV K1")) }
func BenchmarkFig8(b *testing.B)   { runExperiment(b, "fig8", benchCfg("2DCONV K1")) }
func BenchmarkFig9(b *testing.B)   { runExperiment(b, "fig9", benchCfg(benchSubset...)) }
func BenchmarkFig10(b *testing.B)  { runExperiment(b, "fig10", benchCfg(benchSubset...)) }

// BenchmarkFig6 is the heaviest paper artifact; it also reports allocations.
func BenchmarkFig6(b *testing.B) {
	b.ReportAllocs()
	runExperiment(b, "fig6", benchCfg("PathFinder K1"))
}

// Extension benchmarks (not paper artifacts).
func BenchmarkModels(b *testing.B)     { runExperiment(b, "models", benchCfg("2DCONV K1")) }
func BenchmarkAblation(b *testing.B)   { runExperiment(b, "ablation", benchCfg("2DCONV K1")) }
func BenchmarkExhaustive(b *testing.B) { runExperiment(b, "exhaustive", benchCfg("Gaussian K125")) }

// --- substrate microbenchmarks -----------------------------------------

// BenchmarkSimulatorThroughput measures raw interpreter speed: dynamic
// instructions per second on the GEMM inner loop (reported as ns/op per
// kernel execution; TotalDyn instructions each).
func BenchmarkSimulatorThroughput(b *testing.B) {
	spec, _ := kernels.ByName("GEMM K1")
	inst, err := spec.Build(kernels.ScaleSmall)
	if err != nil {
		b.Fatal(err)
	}
	launch := &gpusim.Launch{
		Prog:   inst.Target.Prog,
		Grid:   inst.Target.Grid,
		Block:  inst.Target.Block,
		Params: inst.Target.Params,
	}
	var dyn int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := gpusim.Execute(inst.Target.Init.Clone(), launch)
		if err != nil {
			b.Fatal(err)
		}
		if res.Trap != nil {
			b.Fatal(res.Trap)
		}
		dyn = res.TotalDyn
	}
	b.ReportMetric(float64(dyn), "instrs/exec")
}

// benchInterpStep measures the raw per-instruction dispatch cost on an
// ALU-heavy long loop via a bare Execute — no campaign machinery, no
// tracing, no injection — so the compiled plan's fast paths (pre-decoded
// closures, straight-run batching, warp batching) are the only thing on the
// profile. The BenchmarkInterpStep* / BenchmarkInterpStepReference ratio is
// the headline win of plan compilation (DESIGN.md §3.8).
func benchInterpStep(b *testing.B, warpSize int, interpret bool) {
	b.Helper()
	prog, err := ptx.Assemble("stepbench", `
		cvt.u32.u16 $r0, %tid.x
		mov.u32 $r4, $r124                   // acc = 0
		mov.u32 $r5, $r124                   // i = 0
		mov.u32 $r6, s[0x0014]               // iters
		lloop: add.u32 $r4, $r4, $r0
		xor.b32 $r4, $r4, $r5
		mad.lo.u32 $r4, $r4, 0x00000003, $r0
		shr.u32 $r7, $r4, 0x00000010
		add.u32 $r4, $r4, $r7
		add.u32 $r5, $r5, 0x00000001
		set.lt.u32.u32 $p0/$o127, $r5, $r6
		@$p0.ne bra lloop
		shl.u32 $r7, $r0, 0x00000002
		add.u32 $r7, $r7, s[0x0010]          // &out[tid]
		st.global.u32 [$r7], $r4
		exit
	`)
	if err != nil {
		b.Fatal(err)
	}
	const threads = 64
	dev := gpusim.NewDevice(threads * 4)
	launch := &gpusim.Launch{
		Prog:      prog,
		Grid:      gpusim.Dim3{X: 1, Y: 1, Z: 1},
		Block:     gpusim.Dim3{X: threads, Y: 1, Z: 1},
		Params:    []uint32{0, 2000},
		Watchdog:  1 << 30,
		WarpSize:  warpSize,
		Interpret: interpret,
	}
	var dyn int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := gpusim.Execute(dev.Clone(), launch)
		if err != nil {
			b.Fatal(err)
		}
		if res.Trap != nil {
			b.Fatal(res.Trap)
		}
		dyn = res.TotalDyn
	}
	b.ReportMetric(float64(dyn), "instrs/exec")
}

// BenchmarkInterpStep and BenchmarkInterpStepWarp run the compiled plan
// under the serial and SIMT-lockstep schedulers; the two Reference variants
// run the identical launches through the reference interpreter
// (Launch.Interpret, the CLI's -compiled=false).
func BenchmarkInterpStep(b *testing.B)              { benchInterpStep(b, 0, false) }
func BenchmarkInterpStepWarp(b *testing.B)          { benchInterpStep(b, 32, false) }
func BenchmarkInterpStepReference(b *testing.B)     { benchInterpStep(b, 0, true) }
func BenchmarkInterpStepWarpReference(b *testing.B) { benchInterpStep(b, 32, true) }

// BenchmarkAssemble measures the PTX assembler on the largest kernel source.
func BenchmarkAssemble(b *testing.B) {
	spec, _ := kernels.ByName("HotSpot K1")
	inst, err := spec.Build(kernels.ScaleSmall)
	if err != nil {
		b.Fatal(err)
	}
	src := inst.Target.Prog.String()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ptx.Assemble("bench", src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInjectionRun measures one fault-injection experiment end to end
// (device clone + execution + output comparison).
func BenchmarkInjectionRun(b *testing.B) {
	spec, _ := kernels.ByName("2DCONV K1")
	inst, err := spec.Build(kernels.ScaleSmall)
	if err != nil {
		b.Fatal(err)
	}
	if err := inst.Target.Prepare(); err != nil {
		b.Fatal(err)
	}
	space := fault.NewSpace(inst.Target.Profile())
	site := space.Site(space.Total() / 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Target.RunSite(site); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCampaign times a fixed 512-site campaign on GEMM K1 (4 CTAs) with the
// checkpointed fast-forward engine on or off, under a given fault model.
// Each checkpoint/full-run pair quantifies the speedup from skipping
// fault-free prefix CTAs and early-exiting on golden-state convergence; run
// back to back on the same machine for the ratio. Dest-value and dest-double
// share the site sample; mem-addr enumerates its own site kind (one site per
// address bit per dynamic memory instruction) over a thread cross-section.
func benchCampaign(b *testing.B, fullRun bool, model fault.Model) {
	spec, _ := kernels.ByName("GEMM K1")
	inst, err := spec.Build(kernels.ScaleSmall)
	if err != nil {
		b.Fatal(err)
	}
	inst.Target.FullRun = fullRun
	if err := inst.Target.Prepare(); err != nil {
		b.Fatal(err)
	}
	space := fault.NewSpace(inst.Target.Profile())
	var sites []fault.WeightedSite
	if model == fault.ModelMemAddr {
		var raw []fault.Site
		for t := 0; t < inst.Target.Threads() && len(raw) < 512; t += 7 {
			raw = append(raw, space.MemAddrSites(t, nil)...)
		}
		if len(raw) > 512 {
			raw = raw[:512]
		}
		sites = fault.Uniform(raw)
	} else {
		sites = fault.Uniform(space.RandomModel(stats.NewRNG(7), 512, model))
	}
	opt := fault.CampaignOptions{Parallelism: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fault.RunModel(inst.Target, sites, model, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCampaignCheckpoint(b *testing.B) { benchCampaign(b, false, fault.ModelDestValue) }
func BenchmarkCampaignFullRun(b *testing.B)    { benchCampaign(b, true, fault.ModelDestValue) }

func BenchmarkCampaignCheckpointDouble(b *testing.B) { benchCampaign(b, false, fault.ModelDestDouble) }
func BenchmarkCampaignFullRunDouble(b *testing.B)    { benchCampaign(b, true, fault.ModelDestDouble) }

func BenchmarkCampaignCheckpointMemAddr(b *testing.B) { benchCampaign(b, false, fault.ModelMemAddr) }
func BenchmarkCampaignFullRunMemAddr(b *testing.B)    { benchCampaign(b, true, fault.ModelMemAddr) }

// The persistent-fault benchmarks price the stuck-at models on the
// checkpointed engine against an explicit full-run reference. Snapshots
// carry the complete scheduler/synchronization ledger (DESIGN.md §3.11),
// so every persistent model — the scheduler-corrupting stuck-active-mask
// included — keeps fast-forward: prefix skip, early exit, and the
// injected thread pinned to the careful tier forever. The FullRun
// reference disables the engine outright, measuring what checkpointing
// buys for a persistent model. (Before §3.11, stuck-active-mask was
// forced to per-site full runs; the old BenchmarkCampaignStuckAtFallback
// that priced that degradation is retired — benchdiff compares only the
// intersection of recordings, so the retirement is gate-neutral.)
func BenchmarkCampaignStuckAtCheckpoint(b *testing.B) {
	benchCampaign(b, false, fault.ModelStuckPred)
}
func BenchmarkCampaignStuckAtMaskCheckpoint(b *testing.B) {
	benchCampaign(b, false, fault.ModelStuckActiveMask)
}
func BenchmarkCampaignStuckAtFullRun(b *testing.B) {
	benchCampaign(b, true, fault.ModelStuckActiveMask)
}

// intraBenchTarget builds a synthetic long-loop kernel for the intra-CTA
// resume benchmarks: 4 CTAs x 16 threads, each thread spinning a 160-iteration
// accumulator loop (~810 dynamic instructions per thread, ~13K per CTA — well
// past the >=4K/CTA regime where mid-CTA resume pays), writing out[gid] last.
func intraBenchTarget(b *testing.B) *fault.Target {
	b.Helper()
	prog, err := ptx.Assemble("longloop", `
		cvt.u32.u16 $r0, %tid.x
		cvt.u32.u16 $r1, %ctaid.x
		cvt.u32.u16 $r2, %ntid.x
		mad.lo.u32 $r3, $r1, $r2, $r0        // gid
		mov.u32 $r4, $r124                   // acc = 0
		mov.u32 $r5, $r124                   // i = 0
		mov.u32 $r6, s[0x0014]               // iters
		lloop: add.u32 $r4, $r4, $r3
		add.u32 $r4, $r4, 0x00000001
		add.u32 $r5, $r5, 0x00000001
		set.lt.u32.u32 $p0/$o127, $r5, $r6
		@$p0.ne bra lloop
		shl.u32 $r7, $r3, 0x00000002
		add.u32 $r7, $r7, s[0x0010]          // &out[gid]
		st.global.u32 [$r7], $r4
		exit
	`)
	if err != nil {
		b.Fatal(err)
	}
	const threads = 4 * 16
	return &fault.Target{
		Name:   "longloop",
		Prog:   prog,
		Grid:   gpusim.Dim3{X: 4, Y: 1, Z: 1},
		Block:  gpusim.Dim3{X: 16, Y: 1, Z: 1},
		Params: []uint32{0, 160},
		Init:   gpusim.NewDevice(threads * 4),
		Output: []fault.Range{{Off: 0, Len: threads * 4}},
	}
}

// benchIntraCampaign times a campaign of late-trace sites (destination writes
// in the last stretch of each thread's dynamic trace — the worst case for
// CTA-boundary-only fast-forward, which must replay the injected CTA's whole
// fault-free prefix) with intra-CTA snapshots auto-tuned or disabled. The
// BenchmarkCampaignIntraCTA / BenchmarkCampaignIntraCTABoundaryOnly ratio is
// the headline win of mid-CTA resume (expected well above 1.4x).
func benchIntraCampaign(b *testing.B, intraStride int) {
	tgt := intraBenchTarget(b)
	tgt.IntraStride = intraStride
	if err := tgt.Prepare(); err != nil {
		b.Fatal(err)
	}
	if intraStride >= 0 && tgt.WarpCheckpoints() == nil {
		b.Fatal("no intra-CTA snapshot store on the long-loop kernel")
	}
	// Sites live in the last CTA's threads so every run fast-forwards the
	// earlier CTAs through the boundary store in both configurations and the
	// measured difference is purely the injected CTA's fault-free prefix.
	prof := tgt.Profile()
	var raw []fault.Site
	for th := tgt.Threads() - 16; th < tgt.Threads(); th++ {
		found := 0
		for dyn := prof.Threads[th].ICnt - 1; dyn >= 0 && found < 16; dyn-- {
			bits := tgt.DestBitsAt(th, dyn)
			if bits == 0 {
				continue
			}
			raw = append(raw, fault.Site{Thread: th, DynInst: dyn, Bit: (th + 7*found) % bits})
			found++
		}
	}
	sites := fault.Uniform(raw)
	opt := fault.CampaignOptions{Parallelism: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fault.Run(tgt, sites, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCampaignIntraCTA(b *testing.B)             { benchIntraCampaign(b, 0) }
func BenchmarkCampaignIntraCTABoundaryOnly(b *testing.B) { benchIntraCampaign(b, -1) }

// benchPipeline runs a trimmed pruning session — plan + spot-check estimate,
// an auto-loop re-plan step, and a three-way sharded campaign — where every
// stage and every shard builds its own Target, the way cmd/fsprune's stages
// and shard workers do. withCache attaches one fresh fault.PreparedCache per
// iteration, so the first stage performs the only golden run and the other
// four targets adopt its profile, checkpoints and golden output from the
// cache; without it, all five pay a full Prepare. Campaigns are kept to a
// single spot-check site per target so the benchmark isolates Prepare
// amortization rather than raw campaign throughput (BenchmarkCampaign*
// covers that).
func benchPipeline(b *testing.B, withCache bool) {
	b.Helper()
	spec, _ := kernels.ByName("HotSpot K1")
	const spotSites = 1
	build := func(cache *fault.PreparedCache) *fault.Target {
		inst, err := spec.Build(kernels.ScaleSmall)
		if err != nil {
			b.Fatal(err)
		}
		inst.Target.Cache = cache
		if err := inst.Target.Prepare(); err != nil {
			b.Fatal(err)
		}
		return inst.Target
	}
	campaign := func(t *fault.Target, sites []fault.WeightedSite) {
		if len(sites) > spotSites {
			sites = sites[:spotSites]
		}
		if _, err := fault.Run(t, sites, fault.CampaignOptions{Parallelism: 1}); err != nil {
			b.Fatal(err)
		}
	}
	// Warm up one full Prepare + campaign outside the timed region so a
	// -benchtime 1x smoke run measures steady-state cost, not first-call
	// lazy initialization and heap growth.
	warm := build(nil)
	campaign(warm, fault.Uniform(fault.NewSpace(warm.Profile()).Random(stats.NewRNG(99), spotSites)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var cache *fault.PreparedCache
		if withCache {
			cache = fault.NewPreparedCache(0)
		}
		// Stage 1: prune and spot-check the plan.
		t1 := build(cache)
		plan, err := core.BuildPlan(t1, core.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		campaign(t1, plan.Sites)
		// Stage 2: one auto-loop refinement step (re-plan at a different
		// sample size on a fresh target, as a restarted session would).
		t2 := build(cache)
		plan, err = core.BuildPlan(t2, core.Options{Seed: 1, LoopIters: 2})
		if err != nil {
			b.Fatal(err)
		}
		campaign(t2, plan.Sites)
		// Stage 3: a three-way sharded campaign, each shard on its own target.
		for shard := 0; shard < 3; shard++ {
			ts := build(cache)
			space := fault.NewSpace(ts.Profile())
			campaign(ts, fault.Uniform(space.Random(stats.NewRNG(int64(shard)), spotSites)))
		}
	}
}

// BenchmarkPipelineSharedTarget and BenchmarkPipelineColdPrepare bound the
// amortization from the shared prepared-target cache: identical five-target
// sessions, one golden run versus five. Their ratio is the headline speedup
// the cache buys a multi-stage session (expected well above 1.5x).
func BenchmarkPipelineSharedTarget(b *testing.B) { benchPipeline(b, true) }
func BenchmarkPipelineColdPrepare(b *testing.B)  { benchPipeline(b, false) }

// BenchmarkBuildPlan measures the pruning pipeline itself (no injections):
// profiling reuse, grouping, diffing, sampling, site materialization.
func BenchmarkBuildPlan(b *testing.B) {
	spec, _ := kernels.ByName("HotSpot K1")
	inst, err := spec.Build(kernels.ScaleSmall)
	if err != nil {
		b.Fatal(err)
	}
	if err := inst.Target.Prepare(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BuildPlan(inst.Target, core.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSiteDecode measures flat-index fault-site decoding, the hot path
// of random baseline sampling over huge spaces.
func BenchmarkSiteDecode(b *testing.B) {
	spec, _ := kernels.ByName("MVT K1")
	inst, err := spec.Build(kernels.ScaleSmall)
	if err != nil {
		b.Fatal(err)
	}
	if err := inst.Target.Prepare(); err != nil {
		b.Fatal(err)
	}
	space := fault.NewSpace(inst.Target.Profile())
	rng := stats.NewRNG(1)
	total := space.Total()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		space.Site(rng.Int63n(total))
	}
}

// BenchmarkProfile measures a full fault-free profiling run with tracing.
func BenchmarkProfile(b *testing.B) {
	spec, _ := kernels.ByName("PathFinder K1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, err := spec.Build(kernels.ScaleSmall)
		if err != nil {
			b.Fatal(err)
		}
		if err := inst.Target.Prepare(); err != nil {
			b.Fatal(err)
		}
	}
}
