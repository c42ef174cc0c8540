package gpusim

import "sort"

// Intra-CTA (warp-granular) checkpointing captures the golden run's full
// architectural state at strided points *inside* a CTA — per-thread register
// files, predicate and offset registers, PCs, barrier arrival state, shared
// memory, and the global-memory pages written since the floor CTA-boundary
// snapshot — so that an injection into a site late in a CTA's dynamic trace
// can skip the fault-free prefix of that CTA instead of replaying it.
//
// Unlike CTA-boundary snapshots (copy-on-write Device clones), an intra-CTA
// snapshot must not clone the golden device mid-CTA: Clone freezes the device
// and clears the dirty-page tracking the CTA-boundary recorder harvests at
// the next boundary. Snapshots therefore store explicit page-content copies
// of the delta versus the floor CTA-boundary snapshot; resuming restores the
// delta through Device.WriteBytes, which marks those pages dirty and keeps
// the golden-state convergence check sound (restored pages are hash-checked
// like any page the run wrote itself — see Checkpoints.Converged).
//
// Capture points are chosen so that re-entering the scheduler from a
// snapshot replays exactly the golden run's continuation: in serial mode
// after any retired instruction (threads before the current one in schedule
// order are all parked or exited, so the round loop re-reaches the current
// thread first), and in warp mode only at the end of a min-PC sweep (where
// the drive loop recomputes the minimum PC from scratch anyway).

// DefaultIntraSnapshots bounds the number of intra-CTA snapshots retained
// per CTA in auto-stride mode, mirroring DefaultCheckpointSnapshots for the
// CTA-boundary store.
const DefaultIntraSnapshots = 16

// defaultIntraStartStride is the initial auto-mode capture stride in retired
// instructions; the recorder doubles it (decimating retained snapshots) once
// a CTA exceeds DefaultIntraSnapshots, so the effective K is tuned to the
// CTA's dynamic instruction count. The starting point is deliberately
// coarse: each capture copies every thread's register file, so short CTAs —
// whose whole prefix replays in about the time a snapshot restore takes —
// should get no intra snapshots at all rather than slow down every
// Prepare's golden run. Mid-CTA resume is aimed at the paper's regime of
// thousands-to-millions of dynamic instructions per CTA, where a <=4K
// prefix replay is noise.
const defaultIntraStartStride = 4096

// defaultIntraBudgetBytes soft-bounds the total memory retained by all
// intra-CTA snapshots in auto mode. Large grids would otherwise retain
// per-CTA register files for thousands of CTAs; once the budget is exceeded
// the recorder halves every CTA's snapshot list and doubles the stride for
// subsequent CTAs.
const defaultIntraBudgetBytes = 256 << 20

// WarpSnapshot is one intra-CTA capture point: the complete architectural
// state needed to resume the CTA mid-flight, plus the global-memory delta
// versus the floor CTA-boundary snapshot. Immutable after capture.
//
// "Complete" includes the scheduler and synchronization ledger, which is
// what makes resuming sound under scheduler-corrupting persistent faults
// (DESIGN.md §3.11): threads holds full threadState copies — parked flags
// (waiting), barrier-arrival ids (barID), exit flags (done), and per-thread
// retirement counts (dynCount) — in CTA-local thread order, which is also
// the schedulers' fixed election order; shared is the CTA's shared memory;
// dynAt pins each thread's position so SnapshotBefore can prove a snapshot
// predates a fault's activation point (armed-but-not-yet-activated
// persistState bookkeeping is derived, not stored: a resumed Execute
// re-arms the fault from the Injection and activation compares dynCount
// against DynInst, so a snapshot with dynAt[t] <= DynInst reproduces the
// armed state exactly; Execute rejects resumes past the activation point).
type WarpSnapshot struct {
	cta     int
	retired int64 // CTA-local retired-step count at capture
	// dynAt[t] is local thread t's dynamic instruction count at capture; a
	// site with DynInst >= dynAt[t] has not yet fired at this point.
	dynAt   []int64
	threads []threadState
	shared  []byte
	// pageIdx/pageDat hold the global-memory pages written since the floor
	// CTA-boundary snapshot (by earlier CTAs past that boundary and by this
	// CTA's prefix), with content clipped to the device size.
	pageIdx []int32
	pageDat [][]byte
}

// CTA is the linear CTA index the snapshot was captured in.
func (ws *WarpSnapshot) CTA() int { return ws.cta }

// Retired is the CTA-local retired instruction count at capture.
func (ws *WarpSnapshot) Retired() int64 { return ws.retired }

// DynAt returns the dynamic instruction count of CTA-local thread t at
// capture time.
func (ws *WarpSnapshot) DynAt(t int) int64 { return ws.dynAt[t] }

// Waiting reports whether CTA-local thread t was parked at a barrier at
// capture time — part of the captured scheduler ledger.
func (ws *WarpSnapshot) Waiting(t int) bool { return ws.threads[t].waiting }

// BarrierID returns the barrier id CTA-local thread t was parked at (valid
// when Waiting(t)) — part of the captured scheduler ledger.
func (ws *WarpSnapshot) BarrierID(t int) uint32 { return ws.threads[t].barID }

// Done reports whether CTA-local thread t had exited at capture time.
func (ws *WarpSnapshot) Done(t int) bool { return ws.threads[t].done }

// RestorePages writes the snapshot's global-memory delta into dev, which
// must already hold the floor CTA-boundary snapshot's content. Writing goes
// through the copy-on-write store path, so the restored pages are tracked
// dirty and participate in convergence hashing like run-written pages.
func (ws *WarpSnapshot) RestorePages(dev *Device) {
	for i, p := range ws.pageIdx {
		dev.WriteBytes(int(p)*PageSize, ws.pageDat[i])
	}
}

// sizeBytes approximates the memory the snapshot retains.
func (ws *WarpSnapshot) sizeBytes() int64 {
	const perThread = 600 // threadState value + dynAt entry, roughly
	n := int64(len(ws.threads))*perThread + int64(len(ws.shared))
	for _, d := range ws.pageDat {
		n += int64(len(d))
	}
	return n
}

// materialize copies the snapshot's thread and shared-memory state into the
// launch's arena CTA, which Execute has sized to match. The snapshot itself
// stays immutable across repeated resumes.
func (ws *WarpSnapshot) materialize(a *arena) {
	copy(a.slab, ws.threads)
	copy(a.cta.shared, ws.shared)
	a.cta.threads = a.threads[:len(ws.threads)]
}

// WarpCheckpoints is the immutable result of intra-CTA recording: per-CTA
// lists of snapshots in capture order. Read-only after Finish and safe for
// concurrent use by campaign workers.
type WarpCheckpoints struct {
	stride int // configured stride (0 = auto)
	perCTA [][]*WarpSnapshot
	count  int
	bytes  int64
}

// Stride is the configured capture stride; 0 means auto-tuned.
func (w *WarpCheckpoints) Stride() int { return w.stride }

// Count is the total number of snapshots retained across all CTAs.
func (w *WarpCheckpoints) Count() int { return w.count }

// Bytes approximates the memory retained by all snapshots (register files,
// shared memory, and page-delta copies).
func (w *WarpCheckpoints) Bytes() int64 { return w.bytes }

// PerCTA returns the number of snapshots retained for one CTA.
func (w *WarpCheckpoints) PerCTA(cta int) int { return len(w.perCTA[cta]) }

// Snapshot returns the ord-th retained snapshot of a CTA, in capture order.
func (w *WarpCheckpoints) Snapshot(cta, ord int) *WarpSnapshot { return w.perCTA[cta][ord] }

// SnapshotBefore returns the latest snapshot in cta at which CTA-local
// thread `local` had retired at most dyn dynamic instructions — the resume
// point for an injection at (local, dyn) — or nil when no snapshot precedes
// the site (the CTA prefix must then be replayed from the CTA boundary).
func (w *WarpCheckpoints) SnapshotBefore(cta, local int, dyn int64) *WarpSnapshot {
	if i := w.OrdinalBefore(cta, local, dyn); i >= 0 {
		return w.perCTA[cta][i]
	}
	return nil
}

// OrdinalBefore returns the index (within the CTA's snapshot list) of
// SnapshotBefore's choice, or -1 when no snapshot precedes the site. The
// campaign scheduler folds it into the affinity key so schedule chunks never
// span an intra-CTA snapshot boundary.
func (w *WarpCheckpoints) OrdinalBefore(cta, local int, dyn int64) int {
	if cta < 0 || cta >= len(w.perCTA) {
		return -1
	}
	snaps := w.perCTA[cta]
	// dynAt[local] is non-decreasing in capture order: scan from the latest.
	for i := len(snaps) - 1; i >= 0; i-- {
		if local < len(snaps[i].dynAt) && snaps[i].dynAt[local] <= dyn {
			return i
		}
	}
	return -1
}

// WarpCheckpointRecorder observes a golden run from inside the CTA schedulers
// and builds a WarpCheckpoints store. Wire it into the golden Launch via
// Launch.IntraRec; when a CTA-boundary CheckpointRecorder is also active,
// couple the two with CheckpointRecorder.AttachIntra so page deltas stay
// relative to the retained boundary snapshots.
type WarpCheckpointRecorder struct {
	dev        *Device
	ck         *WarpCheckpoints
	auto       bool
	baseStride int64
	maxPer     int
	budget     int64

	// sinceBase is the set of global-memory pages written since the floor
	// CTA-boundary snapshot, excluding the current CTA's unharvested writes
	// (those are still in the device's dirty index).
	sinceBase map[int32]struct{}
	// baseCopy caches content copies of sinceBase pages for the current CTA.
	// Their content is frozen while the CTA runs — a store to such a page
	// re-arms dirty tracking and routes it through the dirty path instead —
	// so successive snapshots of one CTA share these slices.
	baseCopy map[int32][]byte

	cur         *ctaState
	curCTA      int
	curStride   int64
	retired     int64
	nextCapture int64
	pending     bool
}

// NewWarpCheckpointRecorder prepares intra-CTA recording for a numCTAs-CTA
// golden run of dev. stride > 0 captures at exactly that many retired
// instructions with no decimation (for tests and explicit tuning); stride 0
// auto-tunes: captures start every defaultIntraStartStride instructions and
// the stride doubles whenever a CTA would retain more than
// DefaultIntraSnapshots snapshots or the global budget is exceeded.
func NewWarpCheckpointRecorder(dev *Device, numCTAs, stride int) *WarpCheckpointRecorder {
	r := &WarpCheckpointRecorder{
		dev:       dev,
		ck:        &WarpCheckpoints{stride: stride, perCTA: make([][]*WarpSnapshot, numCTAs)},
		sinceBase: make(map[int32]struct{}),
		maxPer:    DefaultIntraSnapshots,
		budget:    defaultIntraBudgetBytes,
	}
	if stride <= 0 {
		r.auto = true
		r.baseStride = defaultIntraStartStride
	} else {
		r.baseStride = int64(stride)
	}
	return r
}

// beginCTA rebinds the recorder to the CTA the launch is about to run.
// Called by Execute once per CTA.
func (r *WarpCheckpointRecorder) beginCTA(cta int, st *ctaState) {
	r.curCTA = cta
	r.cur = st
	r.curStride = r.baseStride
	r.retired = 0
	r.nextCapture = r.curStride
	r.pending = false
	r.baseCopy = nil
}

// step accounts one retired instruction and marks a capture as due at stride
// boundaries. The schedulers call flush at resume-safe points only.
func (r *WarpCheckpointRecorder) step() {
	r.retired++
	if r.retired >= r.nextCapture {
		r.pending = true
	}
}

// flush captures a due snapshot. Call sites define the resume-safe points:
// after any step in serial mode, at min-PC sweep boundaries in warp mode.
func (r *WarpCheckpointRecorder) flush() {
	if !r.pending {
		return
	}
	r.pending = false
	r.capture()
	r.nextCapture = r.retired + r.curStride
}

// capture snapshots the current CTA state plus the global-memory delta
// versus the floor CTA-boundary snapshot.
func (r *WarpCheckpointRecorder) capture() {
	st := r.cur
	allDone := true
	for _, th := range st.threads {
		if !th.done {
			allDone = false
			break
		}
	}
	if allDone {
		// The CTA is about to finish; the boundary store covers this point.
		return
	}
	ws := &WarpSnapshot{
		cta:     r.curCTA,
		retired: r.retired,
		dynAt:   make([]int64, len(st.threads)),
		threads: make([]threadState, len(st.threads)),
		shared:  append([]byte(nil), st.shared...),
	}
	for i, th := range st.threads {
		ws.threads[i] = *th
		ws.dynAt[i] = th.dynCount
	}
	// Delta pages: everything written since the floor boundary snapshot by
	// completed CTAs (sinceBase) plus the current CTA's writes so far (the
	// device's dirty index, which the boundary recorder has not harvested
	// yet). dirtyIdx holds no duplicates between harvests. A page in both
	// sets takes the dirty path — the current CTA overwrote it — while pure
	// sinceBase pages are frozen for the rest of the CTA, so their copies
	// are made once and shared by every later snapshot of this CTA.
	dirty := r.dev.DirtyPages()
	dirtySet := make(map[int32]struct{}, len(dirty))
	for _, p := range dirty {
		dirtySet[p] = struct{}{}
	}
	idx := make([]int32, 0, len(r.sinceBase)+len(dirty))
	for p := range r.sinceBase {
		if _, ok := dirtySet[p]; !ok {
			idx = append(idx, p)
		}
	}
	idx = append(idx, dirty...)
	sort.Slice(idx, func(i, j int) bool { return idx[i] < idx[j] })
	ws.pageIdx = idx
	ws.pageDat = make([][]byte, len(idx))
	for i, p := range idx {
		if _, hot := dirtySet[p]; !hot {
			if c, ok := r.baseCopy[p]; ok {
				ws.pageDat[i] = c
				continue
			}
		}
		n := PageSize
		if rem := r.dev.size - int(p)*PageSize; rem < n {
			n = rem
		}
		c := append([]byte(nil), r.dev.pages[p][:n]...)
		ws.pageDat[i] = c
		if _, hot := dirtySet[p]; !hot {
			if r.baseCopy == nil {
				r.baseCopy = make(map[int32][]byte)
			}
			r.baseCopy[p] = c
		}
	}
	r.ck.perCTA[r.curCTA] = append(r.ck.perCTA[r.curCTA], ws)
	r.ck.count++
	r.ck.bytes += ws.sizeBytes()
	if !r.auto {
		return
	}
	// Per-CTA decimation: keep memory proportional to at most maxPer
	// snapshots by doubling the stride and dropping every other snapshot.
	// Any subset of snapshots stays sound — SnapshotBefore just resumes
	// from an earlier point — so decimation never invalidates anything.
	if len(r.ck.perCTA[r.curCTA]) > r.maxPer {
		r.curStride *= 2
		r.decimateCTA(r.curCTA)
	}
	// Global budget: large grids retain snapshots for every CTA; halve all
	// lists and slow future capture until back under the soft cap.
	for r.ck.bytes > r.budget && r.ck.count > len(r.ck.perCTA) {
		r.baseStride *= 2
		r.curStride *= 2
		for c := range r.ck.perCTA {
			r.decimateCTA(c)
		}
	}
}

// decimateCTA drops every other snapshot of a CTA (keeping the later of each
// pair, which preserves coverage of late sites) and updates the totals.
func (r *WarpCheckpointRecorder) decimateCTA(cta int) {
	snaps := r.ck.perCTA[cta]
	if len(snaps) < 2 {
		return
	}
	kept := snaps[:0]
	for i, s := range snaps {
		if i%2 == 1 {
			kept = append(kept, s)
		} else {
			r.ck.count--
			r.ck.bytes -= s.sizeBytes()
		}
	}
	for i := len(kept); i < len(snaps); i++ {
		snaps[i] = nil
	}
	r.ck.perCTA[cta] = kept
}

// noteBoundaryWrites folds a completed CTA's write set into the delta base.
// The CTA-boundary recorder calls this from AfterCTA with the pages it
// harvested.
func (r *WarpCheckpointRecorder) noteBoundaryWrites(pages []int32) {
	for _, p := range pages {
		r.sinceBase[p] = struct{}{}
	}
}

// resetBase marks that a CTA-boundary snapshot was just retained: deltas of
// later captures are relative to it, so the accumulated set empties.
func (r *WarpCheckpointRecorder) resetBase() {
	clear(r.sinceBase)
}

// Finish returns the immutable store. Call once, after the golden run
// completed without a trap.
func (r *WarpCheckpointRecorder) Finish() *WarpCheckpoints {
	r.cur = nil
	return r.ck
}
