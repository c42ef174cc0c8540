package fault

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gpusim"
	"repro/internal/journal"
)

// WeightedSite pairs a fault site with the population weight it represents.
// After pruning, one representative site stands for all the sites it pruned;
// campaign aggregation multiplies its outcome by the weight so the estimated
// profile refers to the original, unpruned population.
type WeightedSite struct {
	Site   Site
	Weight float64
}

// Uniform wraps plain sites with weight 1.
func Uniform(sites []Site) []WeightedSite {
	ws := make([]WeightedSite, len(sites))
	for i, s := range sites {
		ws[i] = WeightedSite{Site: s, Weight: 1}
	}
	return ws
}

// Dedup merges duplicate sites by summing their weights, preserving
// first-occurrence order. Outcomes are deterministic per site, so running a
// duplicate would only repeat work; random sampling with replacement (the
// baseline campaigns) and concatenated plans both benefit. Total weight is
// preserved exactly.
func Dedup(sites []WeightedSite) []WeightedSite {
	index := make(map[Site]int, len(sites))
	out := make([]WeightedSite, 0, len(sites))
	for _, ws := range sites {
		if i, seen := index[ws.Site]; seen {
			out[i].Weight += ws.Weight
			continue
		}
		index[ws.Site] = len(out)
		out = append(out, ws)
	}
	return out
}

// CampaignStats is the observability block of one campaign: how much work
// ran, how fast, and what the pooled copy-on-write device layer cost.
type CampaignStats struct {
	// Runs is the number of injection experiments executed (including a
	// failing one, excluding sites skipped after cancellation).
	Runs int64
	// Wall is the elapsed wall-clock time of the campaign.
	Wall time.Duration
	// RunsPerSec is Runs divided by Wall (outcomes per second).
	RunsPerSec float64
	// PagesCopied counts global-memory page copies performed by the
	// copy-on-write device layer (first-store privatizations plus
	// pristine-reset restores) across all pooled devices.
	PagesCopied int64
	// DevicesCreated is the number of device clones the campaign
	// materialized: at least the number of concurrently active workers,
	// more when the GC dropped pooled devices between runs.
	DevicesCreated int
	// CTAsSkipped counts CTA executions the checkpointed fast-forward
	// engine avoided, summed over all runs: golden prefixes resumed from a
	// snapshot plus suffixes proven golden by convergence.
	CTAsSkipped int64
	// EarlyExits counts runs classified Masked at the injected CTA's
	// boundary because the run's global memory converged to golden state,
	// without executing the remaining CTAs.
	EarlyExits int64
	// IntraSkips counts runs resumed from an intra-CTA (warp-granular)
	// snapshot, skipping the injected CTA's fault-free prefix in addition
	// to whole prefix CTAs.
	IntraSkips int64
	// IntraCheckpointBytes approximates the memory retained by the target's
	// intra-CTA snapshot store (register files, shared memory, page deltas);
	// like CheckpointBytes it is a per-target figure, not per run.
	IntraCheckpointBytes int64
	// Checkpoints and CheckpointBytes describe the target's golden snapshot
	// store (built once per target by Prepare, not per run): snapshot count
	// including the pristine image, and the approximate memory the
	// snapshots retain beyond it.
	Checkpoints     int
	CheckpointBytes int64
	// Replayed counts sites whose outcome was restored from the campaign
	// journal instead of executed (resume path); they are excluded from
	// Runs.
	Replayed int64
	// Retries counts extra executions spent re-attempting failing sites.
	Retries int64
	// Quarantined counts sites that exhausted their attempts and were
	// bucketed as EngineError.
	Quarantined int64
	// CacheHits, CacheMisses and PreparedShared describe how this campaign's
	// target was Prepared when routed through a PreparedCache: served from a
	// finished entry, performed the golden run itself, or waited on another
	// caller's in-flight golden run. The first campaign on a target reports
	// its Prepare exactly once (later campaigns on the same target report
	// zeros), so pipeline-aggregated stats count each golden run once.
	CacheHits      int64
	CacheMisses    int64
	PreparedShared int64
	// AffinityResets counts pooled-device resets that switched checkpoint
	// sources — the slow full-restore path of Device.ResetFrom that
	// snapshot-affine scheduling exists to avoid. Near the chunk-transition
	// count when affinity works; near Runs when it does not.
	AffinityResets int64
}

// Merge accumulates another campaign's stats: counters add, wall times add
// (campaigns in one pipeline run back to back), the per-target checkpoint
// figures take the max (repeated campaigns on one target share one store),
// and the rate is recomputed.
func (s *CampaignStats) Merge(o CampaignStats) {
	s.Runs += o.Runs
	s.Wall += o.Wall
	s.PagesCopied += o.PagesCopied
	s.DevicesCreated += o.DevicesCreated
	s.CTAsSkipped += o.CTAsSkipped
	s.EarlyExits += o.EarlyExits
	s.IntraSkips += o.IntraSkips
	s.Replayed += o.Replayed
	s.Retries += o.Retries
	s.Quarantined += o.Quarantined
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.PreparedShared += o.PreparedShared
	s.AffinityResets += o.AffinityResets
	if o.Checkpoints > s.Checkpoints {
		s.Checkpoints = o.Checkpoints
	}
	if o.CheckpointBytes > s.CheckpointBytes {
		s.CheckpointBytes = o.CheckpointBytes
	}
	if o.IntraCheckpointBytes > s.IntraCheckpointBytes {
		s.IntraCheckpointBytes = o.IntraCheckpointBytes
	}
	s.RunsPerSec = 0
	if s.Wall > 0 {
		s.RunsPerSec = float64(s.Runs) / s.Wall.Seconds()
	}
}

// String renders the stats for CLI -stats output.
func (s CampaignStats) String() string {
	out := fmt.Sprintf("%d runs in %v (%.0f/s), %d pages copied, %d devices, %d CTAs skipped, %d early exits, %d checkpoints (%d KiB)",
		s.Runs, s.Wall.Round(time.Millisecond), s.RunsPerSec, s.PagesCopied,
		s.DevicesCreated, s.CTAsSkipped, s.EarlyExits, s.Checkpoints, s.CheckpointBytes/1024)
	if s.IntraSkips > 0 || s.IntraCheckpointBytes > 0 {
		out += fmt.Sprintf(", %d intra-CTA skips (%d KiB warp snapshots)",
			s.IntraSkips, s.IntraCheckpointBytes/1024)
	}
	if s.Replayed > 0 {
		out += fmt.Sprintf(", %d replayed from journal", s.Replayed)
	}
	if s.Retries > 0 || s.Quarantined > 0 {
		out += fmt.Sprintf(", %d retries, %d quarantined", s.Retries, s.Quarantined)
	}
	if s.CacheHits > 0 || s.CacheMisses > 0 || s.PreparedShared > 0 {
		out += fmt.Sprintf(", prepare cache %d hit/%d miss/%d shared",
			s.CacheHits, s.CacheMisses, s.PreparedShared)
	}
	if s.AffinityResets > 0 {
		out += fmt.Sprintf(", %d affinity resets", s.AffinityResets)
	}
	return out
}

// StatsSink accumulates campaign stats across several fault.Run calls —
// e.g. every campaign of a pruning pipeline or experiment sweep. Safe for
// concurrent use. Attach via CampaignOptions.Sink.
type StatsSink struct {
	mu    sync.Mutex
	total CampaignStats
}

// Add merges one campaign's stats into the sink.
func (k *StatsSink) Add(s CampaignStats) {
	k.mu.Lock()
	k.total.Merge(s)
	k.mu.Unlock()
}

// Total returns the accumulated stats.
func (k *StatsSink) Total() CampaignStats {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.total
}

// CampaignResult is the aggregate of an injection campaign.
type CampaignResult struct {
	// Dist is the weighted outcome distribution (the resilience profile).
	// It covers every completed site: executed this run, replayed from the
	// journal, or quarantined (EngineError). On a sharded campaign it
	// covers only this shard's sites.
	Dist Dist
	// PerSite, when requested, holds the outcome of each injected site in
	// input order. On a sharded campaign, entries for sites owned by other
	// shards are meaningless (zero).
	PerSite []Outcome
	// Completed is the number of sites contributing to Dist.
	Completed int
	// Quarantined lists the sites bucketed as EngineError, sorted by
	// input-order index (including ones replayed from the journal).
	Quarantined []SiteFailure
	// Stats describes the campaign's execution.
	Stats CampaignStats
}

// CampaignOptions tunes Run.
type CampaignOptions struct {
	// Parallelism is the worker count; 0 means GOMAXPROCS.
	Parallelism int
	// KeepPerSite retains each site's individual outcome.
	KeepPerSite bool
	// Sink, when non-nil, additionally accumulates this campaign's stats
	// (also on error, so cancelled campaigns stay visible).
	Sink *StatsSink

	// FailFast restores the pre-durability semantics: the first site error
	// cancels the campaign (deterministically reporting the lowest
	// scheduled failing site), with no panic recovery, deadline, retry or
	// quarantine. The default (false) isolates failures per site: a
	// failing site is retried with exponential backoff and, after
	// MaxAttempts, quarantined into the EngineError outcome while the rest
	// of the campaign proceeds.
	FailFast bool
	// MaxAttempts caps executions per site before quarantine; 0 means
	// DefaultMaxAttempts.
	MaxAttempts int
	// SiteDeadline is the wall-clock ceiling per attempt, layered over the
	// simulator's step watchdog. 0 means DefaultSiteDeadline. Any negative
	// value disables the wall-clock layer entirely: attempts run inline
	// with no timer goroutine, only the step watchdog bounds a hang, and a
	// slow-but-finite site is never quarantined for elapsed time (panics
	// still quarantine after MaxAttempts).
	SiteDeadline time.Duration
	// RetryBackoff is the sleep before the first retry (doubling per
	// attempt); 0 means DefaultRetryBackoff.
	RetryBackoff time.Duration

	// Journal, when non-nil, makes the campaign durable: each completed
	// site is appended to it, and sites already recorded (from an earlier,
	// interrupted run) are replayed instead of executed — the resumed
	// campaign's result is bit-identical to an uninterrupted one. The
	// journal must have been opened with the fingerprint of this exact
	// campaign (see Target.JournalFingerprint).
	Journal *journal.Journal
	// Shard restricts execution to a deterministic 1/Count slice of the
	// schedule (see Shard); the zero value runs everything.
	Shard Shard
	// Interrupt, when non-nil, stops the campaign cooperatively once the
	// channel is closed: workers finish their current site, the journal
	// keeps every completed outcome, and Run returns ErrInterrupted.
	Interrupt <-chan struct{}
	// Progress, when non-nil, is the campaign's progress-snapshot hook: it
	// is invoked once after journal replay and then after every completed
	// site (journaled, when a journal is attached) with the number of
	// completed sites so far and the campaign's total site count. On a
	// sharded campaign the count covers only this shard's sites while total
	// remains the whole campaign. Called concurrently from campaign
	// workers; it must be fast and safe for concurrent use.
	Progress func(completed, total int)
}

// devicePool hands out reusable copy-on-write devices to campaign workers.
// Devices start as clones of the pristine image; the runner resets each one
// before use (from a checkpoint snapshot or the pristine image), so put only
// harvests the page-copy counter. Reuse is safe after trapped or failed
// runs: reset is driven by the dirty-page list, so poisoned state cannot
// leak into the next experiment.
type devicePool struct {
	pristine *gpusim.Device
	pool     sync.Pool
	created  atomic.Int64
	pages    atomic.Int64
	srcSw    atomic.Int64
}

func newDevicePool(pristine *gpusim.Device) *devicePool {
	p := &devicePool{pristine: pristine}
	// Freeze the pristine image now: Clone below may run concurrently from
	// several workers, and freezing is only write-free once already frozen.
	p.pool.New = func() any {
		p.created.Add(1)
		return p.pristine.Clone()
	}
	pristine.Clone() // freeze eagerly; the throwaway clone is trivially small
	return p
}

func (p *devicePool) get() *gpusim.Device { return p.pool.Get().(*gpusim.Device) }

func (p *devicePool) put(d *gpusim.Device) {
	p.pages.Add(d.TakePagesCopied())
	p.srcSw.Add(d.TakeSrcSwitches())
	p.pool.Put(d)
}

// Run executes one fault-injection experiment per weighted site, in
// parallel, and aggregates the weighted outcome distribution. The target
// must be Prepared. Workers draw reusable copy-on-write devices from a pool
// and reset them between experiments, so runs are independent and the
// aggregation is deterministic regardless of scheduling; on multi-CTA
// targets (unless Target.FullRun) each run fast-forwards from the golden
// checkpoint nearest its injected CTA and may early-exit on golden-state
// convergence, with outcomes bit-identical to full runs. The whole site list
// is validated up front, so an invalid site fails before any experiment
// executes, reporting the lowest-index invalid site.
//
// Execution failures are isolated per site by default: a failing site is
// retried with exponential backoff and, after MaxAttempts, quarantined into
// the EngineError outcome (CampaignResult.Quarantined) while the campaign
// continues; CampaignOptions.FailFast instead cancels the remaining
// campaign promptly on the first error. With a Journal attached the
// campaign is durable and resumable, with Shard it runs one deterministic
// slice of the schedule, and Interrupt stops it cooperatively (see
// CampaignOptions).
func Run(t *Target, sites []WeightedSite, opt CampaignOptions) (*CampaignResult, error) {
	return t.runCampaign(sites, opt, ModelDestValue)
}

// runCampaign validates the site list, wires the unchecked fast-forward
// runner to the parallel engine through a device pool, and finalizes stats.
func (t *Target) runCampaign(sites []WeightedSite, opt CampaignOptions, model Model) (*CampaignResult, error) {
	// Validate once, outside the hot loop: the engine below runs unchecked.
	// Input order makes the reported error the lowest-index invalid site.
	for i := range sites {
		if err := t.validateSiteModel(sites[i].Site, model); err != nil {
			return nil, fmt.Errorf("site %v: %w", sites[i].Site, err)
		}
	}
	if opt.Journal != nil {
		if err := t.validateJournal(opt.Journal, model, len(sites), opt.Shard); err != nil {
			return nil, err
		}
	}

	pool := newDevicePool(t.Init)
	eng := campaignEngine{
		newRunner: func() (func(Site) (Outcome, runCost, error), func()) {
			r := &workerRunner{t: t, model: model, pool: pool}
			return r.run, r.close
		},
	}
	if ck, wck := t.ckpt, t.wck; ck != nil || wck != nil {
		tpc := t.Block.Count()
		// The affinity key is the outer snapshot ordinal, refined by the
		// intra-CTA snapshot ordinal so chunks never span an intra-CTA
		// snapshot boundary either: within a chunk every site resumes from
		// the same (boundary, warp) snapshot pair.
		eng.affinityOf = func(i int) int {
			s := sites[i].Site
			cta := s.Thread / tpc
			key := 0
			if ck != nil {
				key = ck.SnapshotIndex(cta)
			}
			if wck != nil {
				key = key*1_000_003 + wck.OrdinalBefore(cta, s.Thread-cta*tpc, s.DynInst) + 1
			}
			return key
		}
	}
	res, st, err := runEngine(sites, t.scheduleOrder(sites), opt, eng)
	st.PagesCopied = pool.pages.Load()
	st.DevicesCreated = int(pool.created.Load())
	st.AffinityResets = pool.srcSw.Load()
	st.CacheHits, st.CacheMisses, st.PreparedShared = t.takePrepStats()
	if ck := t.ckpt; ck != nil {
		st.Checkpoints = ck.Count()
		st.CheckpointBytes = ck.Bytes()
	}
	if wck := t.wck; wck != nil {
		st.IntraCheckpointBytes = wck.Bytes()
	}
	if opt.Sink != nil {
		opt.Sink.Add(st)
	}
	if err != nil {
		return nil, err
	}
	res.Stats = st
	return res, nil
}

// scheduleOrder returns the execution order of a checkpointed campaign: a
// permutation sorted by (CTA, thread, dyn inst, bit) — thread order implies
// CTA order — so consecutive batch work shares a checkpoint snapshot and
// stays page-local. Aggregation and error reporting remain input-ordered.
// Returns nil (identity) when reordering cannot help.
func (t *Target) scheduleOrder(sites []WeightedSite) []int {
	if (t.ckpt == nil && t.wck == nil) || len(sites) < 2 {
		return nil
	}
	order := make([]int, len(sites))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := sites[order[a]].Site, sites[order[b]].Site
		if sa.Thread != sb.Thread {
			return sa.Thread < sb.Thread
		}
		if sa.DynInst != sb.DynInst {
			return sa.DynInst < sb.DynInst
		}
		return sa.Bit < sb.Bit
	})
	return order
}

// campaignEngine supplies the per-worker execution hooks of runEngine.
type campaignEngine struct {
	// newRunner builds one worker's site executor plus its cleanup (called
	// when the worker exits). Campaigns hand out device-pinning runners
	// (workerRunner); tests use a shared stub with a no-op cleanup.
	newRunner func() (run func(Site) (Outcome, runCost, error), cleanup func())
	// affinityOf, when non-nil, maps an input-order site index to its
	// scheduling affinity key (the checkpoint snapshot ordinal): chunks
	// never span affinity boundaries, so a worker's pinned device switches
	// reset sources only between chunks.
	affinityOf func(inputIdx int) int
}

// runWith runs the campaign engine with a single shared site evaluator and
// no scheduling affinity — the exact pre-affinity engine semantics, kept as
// the seam the engine's behavioral tests drive.
func runWith(sites []WeightedSite, order []int, opt CampaignOptions,
	runSite func(Site) (Outcome, runCost, error)) (*CampaignResult, CampaignStats, error) {
	return runEngine(sites, order, opt, campaignEngine{
		newRunner: func() (func(Site) (Outcome, runCost, error), func()) {
			return runSite, func() {}
		},
	})
}

// runEngine is the shared parallel campaign engine. order, when non-nil, is
// the permutation mapping schedule position to input index (identity when
// nil): sites execute in schedule order, while outcomes, aggregation and
// error attribution stay in input order. The engine first replays the
// attached journal (outcomes already on disk are final) and drops schedule
// positions owned by other shards, leaving a work list that is cut into
// contiguous chunks along affinity boundaries (see buildChunks) and dealt
// to workers with whole-chunk stealing; each completed site is journaled
// before the campaign moves on. Scheduling affects only which worker (and
// so which pooled device) runs a site — every run resets its device to the
// same snapshot content, so outcomes are independent of the schedule.
//
// Failure handling depends on FailFast. In the default isolating mode a
// failing site is retried and eventually quarantined as EngineError, and
// only journal-append failures or an Interrupt stop the campaign. With
// FailFast, the first site error cancels it: chunks entirely at or beyond
// the failing work position are discarded, in-flight workers skip positions
// at or beyond it, and — because the error position only ever decreases and
// every position below it is still executed — the returned error is the one
// of the lowest-scheduled failing site regardless of goroutine scheduling.
func runEngine(sites []WeightedSite, order []int, opt CampaignOptions,
	eng campaignEngine) (*CampaignResult, CampaignStats, error) {

	if err := opt.Shard.validate(); err != nil {
		return nil, CampaignStats{}, err
	}
	if len(sites) == 0 {
		return &CampaignResult{}, CampaignStats{}, nil
	}
	input := func(pos int) int {
		if order == nil {
			return pos
		}
		return order[pos]
	}

	start := time.Now()
	outcomes := make([]Outcome, len(sites))
	done := make([]bool, len(sites))
	var st CampaignStats

	var quarMu sync.Mutex
	var quarantined []SiteFailure
	if j := opt.Journal; j != nil {
		replayed, quar, err := replayJournal(j, sites, outcomes, done)
		if err != nil {
			return nil, st, err
		}
		st.Replayed = replayed
		quarantined = quar
	}

	// Progress reporting: replayed sites count as already completed, and
	// each executed site ticks the counter once its outcome is final (and
	// journaled).
	var progressed atomic.Int64
	progressed.Store(st.Replayed)
	if opt.Progress != nil {
		opt.Progress(int(st.Replayed), len(sites))
	}

	// The work list: schedule positions owned by this shard whose site is
	// not already journaled.
	work := make([]int, 0, len(sites))
	for pos := 0; pos < len(sites); pos++ {
		if opt.Shard.owns(pos) && !done[input(pos)] {
			work = append(work, pos)
		}
	}

	workers := opt.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(work) {
		workers = len(work)
	}

	var runs, retries, nquar, ctasSkipped, earlyExits, intraSkips atomic.Int64

	// Cancellation state: errLimit is len(work) while healthy, and drops to
	// the lowest failing work position seen so far. firstErr tracks the
	// error belonging to the current errLimit.
	var errLimit atomic.Int64
	errLimit.Store(int64(len(work)))
	var errMu sync.Mutex
	var firstErr error
	fail := func(wpos, i int, err error) {
		errMu.Lock()
		if int64(wpos) < errLimit.Load() {
			errLimit.Store(int64(wpos))
			firstErr = fmt.Errorf("site %v: %w", sites[i].Site, err)
		}
		errMu.Unlock()
	}

	var interrupted atomic.Bool
	stop := func() bool {
		if interrupted.Load() {
			return true
		}
		if opt.Interrupt == nil {
			return false
		}
		select {
		case <-opt.Interrupt:
			interrupted.Store(true)
			return true
		default:
			return false
		}
	}

	// Cut the work list into affinity-respecting chunks and deal contiguous
	// runs of them to workers. The work list is a subsequence of the
	// schedule order, so positions with equal affinity keys are already
	// contiguous within it.
	var key func(pos int) int
	if eng.affinityOf != nil {
		key = func(pos int) int { return eng.affinityOf(input(work[pos])) }
	}
	var queues *chunkQueues
	if workers > 0 {
		chunks := buildChunks(len(work), key, chunkTargetSize(len(work), workers))
		queues = newChunkQueues(chunks, workers, len(work))
	}

	g := newGuard(opt)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			runSite, cleanup := eng.newRunner()
			defer cleanup()
			for {
				if stop() {
					return
				}
				c, ok := queues.next(w, int(errLimit.Load()))
				if !ok {
					return
				}
				for wpos := c.lo; wpos < c.hi; wpos++ {
					if int64(wpos) >= errLimit.Load() || stop() {
						break
					}
					i := input(work[wpos])
					var o Outcome
					var cost runCost
					attempts := 1
					var quarErr string
					if opt.FailFast {
						var err error
						o, cost, err = runSite(sites[i].Site)
						runs.Add(1)
						if err != nil {
							fail(wpos, i, err)
							break
						}
					} else {
						var err error
						o, cost, attempts, err = g.run(runSite, sites[i].Site)
						runs.Add(int64(attempts))
						if attempts > 1 {
							retries.Add(int64(attempts - 1))
						}
						if err != nil {
							nquar.Add(1)
							quarErr = err.Error()
							quarMu.Lock()
							quarantined = append(quarantined, SiteFailure{
								Index: i, Site: sites[i].Site, Attempts: attempts, Err: quarErr,
							})
							quarMu.Unlock()
						}
					}
					ctasSkipped.Add(cost.ctasSkipped)
					if cost.earlyExit {
						earlyExits.Add(1)
					}
					if cost.intraResumed {
						intraSkips.Add(1)
					}
					outcomes[i] = o
					done[i] = true
					if j := opt.Journal; j != nil {
						if jerr := j.Append(journalRecord(i, sites[i], o, cost, attempts, quarErr)); jerr != nil {
							fail(wpos, i, jerr)
							break
						}
					}
					if opt.Progress != nil {
						opt.Progress(int(progressed.Add(1)), len(sites))
					}
				}
			}
		}(w)
	}
	wg.Wait()

	st.Runs = runs.Load()
	st.Wall = time.Since(start)
	if st.Wall > 0 {
		st.RunsPerSec = float64(st.Runs) / st.Wall.Seconds()
	}
	st.Retries = retries.Load()
	st.Quarantined = nquar.Load()
	st.CTAsSkipped = ctasSkipped.Load()
	st.EarlyExits = earlyExits.Load()
	st.IntraSkips = intraSkips.Load()
	if errLimit.Load() < int64(len(work)) {
		return nil, st, firstErr
	}
	completed := 0
	for i := range sites {
		if done[i] {
			completed++
		}
	}
	if interrupted.Load() {
		return nil, st, fmt.Errorf("%w: %d/%d sites completed", ErrInterrupted, completed, len(sites))
	}

	// Aggregation is always in input order — independent of scheduling,
	// sharding, and how the work was split between replay and execution —
	// so resumed and merged campaigns are bit-identical to uninterrupted
	// ones.
	res := &CampaignResult{Completed: completed}
	for i, ws := range sites {
		if done[i] {
			res.Dist.Add(outcomes[i], ws.Weight)
		}
	}
	sort.Slice(quarantined, func(a, b int) bool { return quarantined[a].Index < quarantined[b].Index })
	res.Quarantined = quarantined
	if opt.KeepPerSite {
		res.PerSite = outcomes
	}
	return res, st, nil
}
