package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/gpusim"
	"repro/internal/kernels"
	"repro/internal/trace"
)

// pipeline runs the pruning pipeline, kernel by kernel, over a fixed
// kernel mix: Build, Prepare on a fresh PreparedCache (so every pass pays
// the golden run), BuildPlan and, for estimate, the pruned injection
// campaign. One pass visits every kernel of the mix once.
type pipeline struct {
	b        *bench
	scale    kernels.Scale
	specs    []kernels.Spec
	estimate bool
	// twins are FullRun references of the estimate kernels, prepared once,
	// that re-run a sample of each estimate's sites outside the timed
	// region.
	twins map[string]*fault.Target
}

// newPlanPaper builds the plan-paper workload. Why: it is Table I site
// counting plus the paper's pruning step at the paper's thread geometry,
// almost all of it fault.Prepare (the traced golden run, profiling and
// snapshot capture); it never injects, so fault.Run, journal and service
// are bypassed.
func newPlanPaper(b *bench) workload {
	return &pipeline{b: b, scale: kernels.ScalePaper, specs: kernels.All()}
}

// estimateMix covers kernels with and without instruction commonality
// (2DCONV, Gaussian), a single-CTA kernel that resumes only from intra-CTA
// snapshots (LUD K46) and loop-heavy kernels (PathFinder, GEMM, K-Means).
var estimateMix = []string{
	"2DCONV K1", "Gaussian K126", "PathFinder K1", "LUD K46",
	"MVT K1", "NN K1", "GEMM K1", "K-Means K1",
}

// newEstimate builds the estimate workload. Why: it is the paper's pruned
// estimate, cold per kernel, and almost all of it is the transient
// fast-tier injection engine (fault.Run) on weighted sites that cluster
// on representative threads, so snapshot locality is high.
func newEstimate(b *bench) workload {
	p := &pipeline{b: b, scale: kernels.ScaleSmall, estimate: true, twins: make(map[string]*fault.Target)}
	for _, name := range estimateMix {
		spec, ok := kernels.ByName(name)
		if !ok {
			panic("estimate mix names unknown kernel " + name)
		}
		p.specs = append(p.specs, spec)
	}
	return p
}

// setup warms the process: every kernel of the mix is planned once at the
// small scale (compiling its execution plan and growing the heap), and
// estimate prepares its FullRun twins.
func (p *pipeline) setup() error {
	for _, spec := range p.specs {
		inst, err := spec.Build(kernels.ScaleSmall)
		if err != nil {
			return err
		}
		inst.Target.Cache = fault.NewPreparedCache(0)
		if _, err := core.BuildPlan(inst.Target, core.Options{Seed: p.b.seed}); err != nil {
			return fmt.Errorf("%s: %w", spec.Meta.Name(), err)
		}
		if p.estimate {
			twin, err := spec.Build(p.scale)
			if err != nil {
				return err
			}
			twin.Target.FullRun = true
			if err := twin.Target.Prepare(); err != nil {
				return err
			}
			p.twins[spec.Meta.Name()] = twin.Target
		}
	}
	return nil
}

func (p *pipeline) close() {}

// opSeed derives the BuildPlan seed of one kernel of one pass from the
// workload seed.
func opSeed(seed int64, pass, kernel int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(pass)<<16 + uint64(kernel)
	x ^= x >> 31
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 29
	return int64(x >> 1)
}

// opStats is what one kernel operation measured.
type opStats struct {
	dur   time.Duration
	sites int // plan sites (plan-paper) or injected runs (estimate)
	// exhaustive is the kernel's whole fault-site space (Table I).
	exhaustive int64
	// traced-only figures.
	prepAlloc  uint64
	runMallocs uint64
	runBytes   uint64
	runGCs     uint32
	stats      fault.CampaignStats
	siteGaps   []float64 // microseconds between site completions
}

// passStats is one pass over the mix.
type passStats struct {
	dur   time.Duration
	ops   []opStats
	sites int
}

// op runs one kernel through the pipeline, then checks it outside the
// timed region. A failed operation is counted and yields ok == false.
func (p *pipeline) op(spec kernels.Spec, pass, k int, traced bool) (opStats, bool) {
	var rec *recorder
	if traced {
		rec = p.b.rec
	}
	name := spec.Meta.Name()
	req := int64(pass)<<8 | int64(k)
	seed := opSeed(p.b.seed, pass, k)
	var (
		o      opStats
		inst   *kernels.Instance
		plan   *core.Plan
		res    *fault.CampaignResult
		m0, m1 runtime.MemStats
	)
	t0 := time.Now()
	root := rec.start("op", 0, req)
	err := rec.record("kernels.build", root, req, func() (err error) {
		inst, err = spec.Build(p.scale)
		return err
	})
	if err == nil {
		inst.Target.Cache = fault.NewPreparedCache(0)
		if traced {
			runtime.ReadMemStats(&m0)
		}
		err = rec.record("fault.prepare", root, req, inst.Target.Prepare)
		if traced {
			runtime.ReadMemStats(&m1)
			o.prepAlloc = m1.TotalAlloc - m0.TotalAlloc
		}
	}
	if err == nil {
		err = rec.record("core.build_plan", root, req, func() (err error) {
			plan, err = core.BuildPlan(inst.Target, core.Options{Seed: seed})
			return err
		})
	}
	if err == nil && p.estimate {
		opt := fault.CampaignOptions{Parallelism: 1, KeepPerSite: true}
		var last time.Time
		if traced {
			o.siteGaps = make([]float64, 0, len(plan.Sites))
			// Parallelism 1: the hook runs on the single campaign worker,
			// and Run waits for that worker before returning.
			opt.Progress = func(done, _ int) {
				now := time.Now()
				if done > 0 {
					o.siteGaps = append(o.siteGaps, float64(now.Sub(last).Nanoseconds())/1e3)
				}
				last = now
			}
			runtime.ReadMemStats(&m0)
		}
		err = rec.record("fault.run", root, req, func() (err error) {
			res, err = plan.EstimateResult(opt)
			return err
		})
		if traced {
			runtime.ReadMemStats(&m1)
			o.runMallocs = m1.Mallocs - m0.Mallocs
			o.runBytes = m1.TotalAlloc - m0.TotalAlloc
			o.runGCs = m1.NumGC - m0.NumGC
		}
	}
	rec.end(root)
	o.dur = time.Since(t0)
	if err != nil {
		p.b.tally.check(false, "%s: %v", name, err)
		return o, false
	}

	// Checks, outside the timed region.
	t := inst.Target
	p.b.tally.check(bytes.Equal(t.Golden(), inst.WantOutput), "%s: golden output differs from the host reference", name)
	o.exhaustive = fault.NewSpace(t.Profile()).Total()
	p.b.tally.check(relEqual(plan.TotalWeight(), float64(o.exhaustive)),
		"%s: plan weight %.3f != exhaustive sites %d", name, plan.TotalWeight(), o.exhaustive)
	o.sites = len(plan.Sites)
	if p.estimate {
		o.sites = int(res.Stats.Runs)
		o.stats = res.Stats
		p.b.tally.sites(int64(len(plan.Sites)), int64(len(res.Quarantined)), name)
		p.b.tally.check(relEqual(res.Dist.Total(), plan.TotalWeight()),
			"%s: estimate covers weight %.3f, plan %.3f", name, res.Dist.Total(), plan.TotalWeight())
		p.checkSites(name, plan, res, seed)
	}
	p.b.sampleHeap()
	// The boundary's live set is the operation's output: keep it reachable
	// through the sample.
	runtime.KeepAlive(inst)
	runtime.KeepAlive(plan)
	runtime.KeepAlive(res)
	return o, true
}

// checkedSites is how many sites of each estimate are re-run on the FullRun
// twin.
const checkedSites = 2

// checkSites re-runs a seed-chosen sample of the estimate's sites on the
// kernel's FullRun twin and compares each outcome with the campaign's.
func (p *pipeline) checkSites(name string, plan *core.Plan, res *fault.CampaignResult, seed int64) {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x5eed))
	twin := p.twins[name]
	for i := 0; i < checkedSites; i++ {
		idx := rng.IntN(len(plan.Sites))
		site := plan.Sites[idx].Site
		got, err := twin.RunSite(site)
		p.b.tally.check(err == nil && got == res.PerSite[idx],
			"%s: site %v is %v on the full-run twin (err %v), %v in the estimate", name, site, got, err, res.PerSite[idx])
	}
}

// relEqual compares weight sums that are exact up to float rounding.
func relEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func (p *pipeline) pass(n int, traced bool) passStats {
	var ps passStats
	for k, spec := range p.specs {
		o, ok := p.op(spec, n, k, traced)
		if !ok {
			continue
		}
		ps.dur += o.dur
		ps.sites += o.sites
		ps.ops = append(ps.ops, o)
	}
	return ps
}

// passes runs whole passes until the window has passed and at least
// minOps operations are done.
func (p *pipeline) passes(first int, window time.Duration, minOps int, traced bool) []passStats {
	var out []passStats
	start := time.Now()
	ops := 0
	for n := first; time.Since(start) < window || ops < minOps; n++ {
		ps := p.pass(n, traced)
		if len(ps.ops) == 0 {
			break // every operation failed; the tally has them
		}
		out = append(out, ps)
		ops += len(ps.ops)
	}
	return out
}

func (p *pipeline) run() error {
	if !p.b.traced {
		passes := p.passes(0, p.b.window, minOps, false)
		if len(passes) == 0 {
			return fmt.Errorf("no operation succeeded")
		}
		p.endToEnd(passes)
		return nil
	}
	// Traced: untraced passes for half the window give the tracing
	// overhead's baseline, then traced passes for the other half.
	plain := p.passes(0, p.b.window/2, 0, false)
	traced := p.passes(len(plain), p.b.window/2, 0, true)
	if len(plain) == 0 || len(traced) == 0 {
		return fmt.Errorf("no operation succeeded")
	}
	p.perLayer(plain, traced)
	return p.probes()
}

// endToEnd reports throughput from the median pass (robust to bursts of
// host contention), and per-kernel latency as the percentile of the mix
// within each pass, median over passes.
func (p *pipeline) endToEnd(passes []passStats) {
	var durs, siteRates, p50s, p90s []float64
	n := 0
	for _, ps := range passes {
		durs = append(durs, ps.dur.Seconds())
		siteRates = append(siteRates, float64(ps.sites)/ps.dur.Seconds())
		var lat []float64
		for _, o := range ps.ops {
			lat = append(lat, ms(o.dur))
		}
		p50s = append(p50s, quantile(lat, 0.5))
		p90s = append(p90s, quantile(lat, 0.9))
		n += len(ps.ops)
	}
	what, sites := "kernels planned per second", "pruned sites planned per second"
	if p.estimate {
		what, sites = "kernels estimated per second", "sites injected per second"
	}
	p.b.set("ops_per_s", float64(len(p.specs))/median(durs), len(passes), what+", median pass")
	p.b.set("sites_per_s", median(siteRates), len(passes), sites+", median pass")
	p.b.set("op_p50_ms", median(p50s), n, "per-kernel latency, p50 of the mix, median pass")
	p.b.set("op_p90_ms", median(p90s), n, "per-kernel latency, p90 of the mix, median pass")
	p.b.note("passes: %d of %d kernels; %s", len(passes), len(p.specs), tailLabel(n))
}

// perLayer reports the traced passes' layer figures. Times are self time
// per kernel operation.
func (p *pipeline) perLayer(plain, traced []passStats) {
	b := p.b
	self := selfByName(b.rec.snapshot(), "op")
	var ops, sites int
	var exhaustive int64
	var prepAlloc, mallocs, allocBytes uint64
	var gcs uint32
	var st fault.CampaignStats
	var gaps []float64
	for _, ps := range traced {
		for _, o := range ps.ops {
			ops++
			sites += o.sites
			exhaustive += o.exhaustive
			prepAlloc += o.prepAlloc
			mallocs += o.runMallocs
			allocBytes += o.runBytes
			gcs += o.runGCs
			st.Merge(o.stats)
			gaps = append(gaps, o.siteGaps...)
		}
	}
	perOp := func(name string) float64 { return mean(ms(self[name]), ops) }
	b.set("kernels.build_ms", perOp("kernels.build"), ops, "self time per kernel")
	b.set("fault.prepare_ms", perOp("fault.prepare"), ops, "self time per kernel, cold cache")
	b.set("fault.prepare_alloc_mb", mean(float64(prepAlloc)/(1<<20), ops), ops, "bytes allocated per Prepare")
	b.set("core.build_plan_ms", perOp("core.build_plan"), ops, "self time per kernel")
	what := "pruned sites"
	if p.estimate {
		what = "injected sites"
		b.set("fault.run_ms", perOp("fault.run"), ops, "self time per kernel estimate")
		b.set("fault.site_p50_us", quantile(gaps, 0.5), len(gaps), "time between site completions")
		b.set("fault.site_p99_us", quantile(gaps, 0.99), len(gaps), tailLabel(len(gaps)))
		b.set("fault.allocs_per_run", mean(float64(mallocs), sites), sites, "heap allocations per injection run")
		b.set("fault.alloc_mb_per_run", mean(float64(allocBytes)/(1<<20), sites), sites, "bytes allocated per injection run")
		b.set("fault.gc_cycles", mean(float64(gcs), ops), ops, "GC cycles per kernel estimate")
		campaignRatios(b, st)
	}
	b.set("core.plan_sites", mean(float64(sites), len(traced)), len(traced), what+" per pass")
	b.set("core.reduction", float64(exhaustive)/float64(max(sites, 1)), ops, "exhaustive sites over "+what)
	var plainDur, tracedDur []float64
	for _, ps := range plain {
		plainDur = append(plainDur, ps.dur.Seconds())
	}
	for _, ps := range traced {
		tracedDur = append(tracedDur, ps.dur.Seconds())
	}
	b.set("bench.trace_overhead_pct", 100*(median(tracedDur)/median(plainDur)-1), len(traced), "median traced pass over median untraced pass")
	b.note("layer shares of the traced passes (self time):")
	for _, l := range shares(self) {
		b.note("  %s", l)
	}
}

// campaignRatios reports the engine counters of CampaignStats as ratios
// whose base is Runs.
func campaignRatios(b *bench, st fault.CampaignStats) {
	runs := int(st.Runs)
	b.set("fault.pages_copied_per_run", mean(float64(st.PagesCopied), runs), runs, "copy-on-write page copies per run")
	b.set("fault.ctas_skipped_per_run", mean(float64(st.CTAsSkipped), runs), runs, "CTAs fast-forwarded per run")
	b.set("fault.early_exit_ratio", mean(float64(st.EarlyExits), runs), runs, "runs ended early on golden convergence")
	b.set("fault.intra_skip_ratio", mean(float64(st.IntraSkips), runs), runs, "runs resumed from an intra-CTA snapshot")
	b.set("fault.affinity_resets", mean(float64(st.AffinityResets), runs), runs, "checkpoint-source switches per run")
	b.set("fault.quarantined", float64(st.Quarantined), runs, "sites quarantined")
	b.set("fault.retries", float64(st.Retries), runs, "extra attempts")
}

// probes replays each kernel's golden launch on the bare simulator three
// times, adding the profile tracer and then the snapshot recorders, and
// builds the profile from the trace. The differences attribute Prepare's
// time to simulation, tracing and snapshot capture.
func (p *pipeline) probes() error {
	b := p.b
	var bare, traced, snap, build time.Duration
	var dyn int64
	var snapBytes int64
	for k, spec := range p.specs {
		req := int64(-1 - k)
		root := b.rec.start("probe", 0, req)
		inst, err := spec.Build(p.scale)
		if err != nil {
			return err
		}
		t := inst.Target
		launch := func() *gpusim.Launch {
			return &gpusim.Launch{Prog: t.Prog, Grid: t.Grid, Block: t.Block, Params: t.Params,
				SharedBytes: t.SharedBytes, WarpSize: t.WarpSize}
		}
		execute := func(name string, l *gpusim.Launch, dev *gpusim.Device) (time.Duration, *gpusim.Result, error) {
			id := b.rec.start(name, root, req)
			t0 := time.Now()
			res, err := gpusim.Execute(dev, l)
			d := time.Since(t0)
			b.rec.end(id)
			if err == nil && res.Trap != nil {
				err = res.Trap
			}
			return d, res, err
		}
		d, res, err := execute("gpusim.exec", launch(), t.Init.Clone())
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Meta.Name(), err)
		}
		bare += d
		dyn += res.TotalDyn

		l := launch()
		tr := gpusim.NewProfileTrace(t.Threads())
		l.Tracer = tr
		if d, _, err = execute("gpusim.trace", l, t.Init.Clone()); err != nil {
			return err
		}
		traced += d

		l = launch()
		l.Tracer = gpusim.NewProfileTrace(t.Threads())
		dev := t.Init.Clone()
		numCTAs := t.Grid.Count()
		var ckRec *gpusim.CheckpointRecorder
		if numCTAs > 1 {
			ckRec = gpusim.NewCheckpointRecorder(t.Init, dev, numCTAs, t.CheckpointStride)
			l.AfterCTA = ckRec.AfterCTA
		}
		wRec := gpusim.NewWarpCheckpointRecorder(dev, numCTAs, t.IntraStride)
		if ckRec != nil {
			ckRec.AttachIntra(wRec)
		}
		l.IntraRec = wRec
		if d, _, err = execute("gpusim.snapshot", l, dev); err != nil {
			return err
		}
		snap += d
		if ckRec != nil {
			snapBytes += ckRec.Finish().Bytes()
		}
		snapBytes += wRec.Finish().Bytes()

		id := b.rec.start("trace.build", root, req)
		t0 := time.Now()
		_, err = trace.Build(t.Prog, tr, t.Block.Count())
		build += time.Since(t0)
		b.rec.end(id)
		if err != nil {
			return err
		}
		b.rec.end(root)
	}
	n := len(p.specs)
	b.set("gpusim.exec_ms", mean(ms(bare), n), n, "bare golden launch per kernel")
	b.set("gpusim.sim_minstr_per_s", float64(dyn)/bare.Seconds()/1e6, n, "simulated instructions per host second, bare")
	b.set("gpusim.trace_ms", mean(ms(traced-bare), n), n, "profile tracer's cost per kernel")
	b.set("gpusim.snapshot_ms", mean(ms(snap-traced), n), n, "snapshot capture's cost per kernel")
	b.set("gpusim.snapshot_mb", mean(float64(snapBytes)/(1<<20), n), n, "boundary plus warp snapshot bytes per kernel")
	b.set("trace.build_ms", mean(ms(build), n), n, "profile build per kernel")
	return nil
}
