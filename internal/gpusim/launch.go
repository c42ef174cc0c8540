package gpusim

import (
	"errors"
	"fmt"
	"slices"
)

// Execute runs a kernel launch to completion on the device.
//
// CTAs run sequentially in launch order (ctaid.z-major, then y, then x-minor)
// and threads within a CTA are interleaved round-robin at barrier boundaries:
// each thread runs until it parks at a bar.sync, exits, or traps; a barrier
// releases once every non-exited thread of the CTA has arrived. This is a
// functional (not timing) model, but it is deterministic, which the paper's
// methodology needs: a fault site (thread, dynamic instruction, bit) must
// denote the same architectural event in every run.
//
// Execute returns an error only for malformed launches; abnormal guest
// terminations (memory faults, hangs, deadlocks) are reported in
// Result.Trap because they are expected fault-injection outcomes.
func Execute(dev *Device, launch *Launch) (*Result, error) {
	if launch.Prog == nil || len(launch.Prog.Instrs) == 0 {
		return nil, errors.New("gpusim: empty program")
	}
	if launch.Grid.Count() <= 0 || launch.Block.Count() <= 0 {
		return nil, fmt.Errorf("gpusim: bad geometry grid=%v block=%v", launch.Grid, launch.Block)
	}
	sharedBytes := launch.SharedBytes
	if sharedBytes == 0 {
		sharedBytes = DefaultSharedBytes
	}
	if need := ParamBase + 4*len(launch.Params); sharedBytes < need {
		return nil, fmt.Errorf("gpusim: shared memory %d too small for %d params", sharedBytes, len(launch.Params))
	}
	watchdog := launch.Watchdog
	if watchdog == 0 {
		watchdog = DefaultWatchdog
	}

	nCTA := launch.Grid.Count()
	if launch.FirstCTA < 0 || launch.FirstCTA >= nCTA {
		return nil, fmt.Errorf("gpusim: FirstCTA %d outside grid of %d CTAs", launch.FirstCTA, nCTA)
	}
	if tr := launch.Tracer; tr != nil && len(tr.PCs) < nCTA*launch.Block.Count() {
		return nil, fmt.Errorf("gpusim: Tracer holds %d threads, launch has %d", len(tr.PCs), nCTA*launch.Block.Count())
	}
	if ws := launch.Resume; ws != nil {
		if ws.cta != launch.FirstCTA {
			return nil, fmt.Errorf("gpusim: Resume snapshot for CTA %d but FirstCTA is %d", ws.cta, launch.FirstCTA)
		}
		if len(ws.threads) != launch.Block.Count() {
			return nil, fmt.Errorf("gpusim: Resume snapshot holds %d threads, block has %d", len(ws.threads), launch.Block.Count())
		}
		if len(ws.shared) != sharedBytes {
			return nil, fmt.Errorf("gpusim: Resume snapshot shared size %d, launch wants %d", len(ws.shared), sharedBytes)
		}
	}
	// A fast-forwarded launch is only sound if the skipped prefix is
	// fault-free: the injection must lie at or after the resume point, still
	// armed. Injections in a skipped CTA — or past a mid-CTA snapshot's
	// already-retired instructions — would silently never fire (or fire
	// late), so they are rejected here rather than producing a plausible but
	// wrong outcome (DESIGN.md §3.8).
	if inj := launch.Inject; inj != nil && launch.FirstCTA > 0 {
		injCTA := inj.Thread / launch.Block.Count()
		if injCTA < launch.FirstCTA {
			return nil, fmt.Errorf("gpusim: injection thread %d lies in CTA %d, inside the prefix skipped by FirstCTA %d",
				inj.Thread, injCTA, launch.FirstCTA)
		}
	}
	if ws, inj := launch.Resume, launch.Inject; ws != nil && inj != nil {
		if local := inj.Thread - ws.cta*launch.Block.Count(); local >= 0 && local < len(ws.dynAt) {
			if ws.dynAt[local] > inj.DynInst {
				return nil, fmt.Errorf("gpusim: Resume snapshot postdates the injection: thread %d already retired %d dynamic instructions, injection at %d",
					inj.Thread, ws.dynAt[local], inj.DynInst)
			}
		}
	}

	a := arenaPool.Get().(*arena)
	defer a.release()
	a.e = exec{
		prog:        launch.Prog,
		dev:         dev,
		launch:      launch,
		block:       launch.Block,
		grid:        launch.Grid,
		watchdog:    watchdog,
		intra:       launch.IntraRec,
		addrFlipBit: -1,
		warpActive:  a.e.warpActive,
		traceBuf:    a.e.traceBuf,
	}
	e := &a.e
	if !launch.Interpret {
		e.plan = planFor(launch.Prog)
	}
	e.persist = newPersistState(launch.Inject)

	nThreads := nCTA * launch.Block.Count()
	res := &Result{ThreadICnt: make([]int64, nThreads)}

	threadsPerCTA := launch.Block.Count()
	gx, gy := max(launch.Grid.X, 1), max(launch.Grid.Y, 1)
	bx, by, bz := max(launch.Block.X, 1), max(launch.Block.Y, 1), max(launch.Block.Z, 1)
	cta := a.reserve(threadsPerCTA, sharedBytes)

	// CTAs run in ctaid.z-major, x-minor launch order; ctaIndex is the
	// linear position in that order, decoded back into grid coordinates so
	// a launch can resume at an arbitrary CTA (Launch.FirstCTA).
	for ctaIndex := launch.FirstCTA; ctaIndex < nCTA; ctaIndex++ {
		base := ctaIndex * threadsPerCTA
		if ctaIndex == launch.FirstCTA && launch.Resume != nil {
			// Mid-CTA resume: rebuild thread and shared-memory state from
			// the intra-CTA snapshot (params are part of the shared copy).
			launch.Resume.materialize(a)
		} else {
			ctaid := Dim3{ctaIndex % gx, (ctaIndex / gx) % gy, ctaIndex / (gx * gy)}
			clear(cta.shared)
			for i, p := range launch.Params {
				putWord(cta.shared, ParamBase+4*i, p)
			}
			tLinear := 0
			for tz := 0; tz < bz; tz++ {
				for ty := 0; ty < by; ty++ {
					for tx := 0; tx < bx; tx++ {
						a.slab[tLinear] = threadState{flat: base + tLinear, tid: Dim3{tx, ty, tz}, ctaid: ctaid}
						tLinear++
					}
				}
			}
			// Negative extents count toward Block.Count but build no threads.
			cta.threads = a.threads[:tLinear]
		}
		if e.intra != nil {
			e.intra.beginCTA(ctaIndex, cta)
		}
		var trap *Trap
		if launch.WarpSize > 0 {
			trap = e.runCTAWarped(cta, launch.WarpSize)
		} else {
			trap = e.runCTA(cta)
		}
		for _, th := range cta.threads {
			res.ThreadICnt[th.flat] = th.dynCount
			res.TotalDyn += th.dynCount
		}
		res.CTAsExecuted++
		if trap != nil {
			res.Trap = trap
			return res, nil
		}
		if p := e.persist; p != nil {
			// The next CTA reuses the slab, so the faulty thread's exit is
			// recorded now rather than read back through a stale pointer.
			if local := p.thread - base; local >= 0 && local < len(cta.threads) {
				p.retired = cta.threads[local].done
			}
		}
		if launch.AfterCTA != nil && launch.AfterCTA(ctaIndex, e.persistLive()) {
			return res, nil
		}
	}
	return res, nil
}

// barrierStatus summarizes a CTA's barrier state after a scheduling round.
type barrierStatus uint8

const (
	ctaRunning  barrierStatus = iota // runnable threads remain
	ctaFinished                      // every thread exited
	ctaReleased                      // a barrier completed and was released
)

// runCTA interleaves the CTA's threads round-robin at barrier boundaries
// until all exit: each thread runs until it parks, exits, freezes, or traps.
// With a plan, threads run on the fast tier (runThreadFast), which also
// records the profile trace and pauses for intra-CTA captures. The careful
// tier (stepCareful) is taken only where an injection is pending: an
// injected thread steps carefully until its injection fires, then joins the
// fast tier — except under a persistent fault, which never retires: the
// faulty thread then stays careful for the rest of the run so every
// enforcement point (predicate clamp, barrier blow-through, lane freeze) is
// observed. Launch.Interpret leaves no plan, and every step is careful.
func (e *exec) runCTA(cta *ctaState) *Trap {
	e.openTrace(cta)
	defer e.closeTrace(cta)
	careful := e.plan == nil
	inj := e.launch.Inject
	for {
		progress := false
		for _, th := range cta.threads {
			if th.done || th.waiting || e.laneFrozen(th) {
				continue
			}
			injected := inj != nil && th.flat == inj.Thread
			pinned := injected && inj.Kind.Persistent()
			if careful || injected {
				// Careful until the injection fires: the step that starts
				// with dynCount == DynInst retires dynamic instruction
				// DynInst and applies the fault. Persistent kinds never
				// fire-and-retire, so the thread steps carefully forever.
				for !th.done && !th.waiting && !e.laneFrozen(th) &&
					(careful || pinned || th.dynCount <= inj.DynInst) {
					if _, trap := e.stepCareful(th, cta); trap != nil {
						return trap
					}
					if e.intra != nil {
						// Any post-step point is resume-safe in serial mode:
						// threads earlier in schedule order are parked or done,
						// so a resumed round re-reaches this thread first.
						e.intra.advance(1)
					}
				}
			}
			if !careful && !pinned && !th.done && !th.waiting && !e.laneFrozen(th) {
				if trap := e.runThreadFast(th, cta); trap != nil {
					return trap
				}
			}
			progress = true
		}
		status, trap := e.resolveBarrier(cta, progress)
		if trap != nil {
			return trap
		}
		if status == ctaFinished {
			return nil
		}
	}
}

// runCTAWarped executes the CTA in SIMT lockstep: threads are partitioned
// into warps of warpSize; each scheduling round issues one instruction to
// every warp's active subset — the eligible threads sharing the minimal PC.
// Min-PC selection is a classic reconvergence heuristic: diverged paths
// serialize, and threads rejoin as soon as they reach the same PC, without
// an explicit SIMT stack. Per-thread semantics are identical to runCTA.
// Tiers follow runCTA's rules per warp: a warp batches straight-line runs
// across its active lanes (runWarpBatch), while control instructions, a
// warp holding a pending injection (until it fires, or for the whole run
// under a persistent fault) and every step under Launch.Interpret take the
// careful min-PC sweep.
func (e *exec) runCTAWarped(cta *ctaState, warpSize int) *Trap {
	e.openTrace(cta)
	defer e.closeTrace(cta)
	careful := e.plan == nil
	inj := e.launch.Inject
	for {
		progress := false
		for base := 0; base < len(cta.threads); base += warpSize {
			end := base + warpSize
			if end > len(cta.threads) {
				end = len(cta.threads)
			}
			warp := cta.threads[base:end]
			var injTh *threadState
			if inj != nil {
				for _, th := range warp {
					if th.flat == inj.Thread {
						injTh = th
						break
					}
				}
			}
			// Drive this warp until its threads all park or exit.
			for {
				minPC := -1
				for _, th := range warp {
					if th.done || th.waiting || e.laneFrozen(th) {
						continue
					}
					if minPC < 0 || th.pc < minPC {
						minPC = th.pc
					}
				}
				if minPC < 0 {
					break
				}
				// A persistent fault's warp stays careful until the faulty
				// thread exits, which ends the fault's reach.
				if !careful &&
					(injTh == nil || injTh.done ||
						(!inj.Kind.Persistent() && injTh.dynCount > inj.DynInst)) &&
					minPC < len(e.plan.ops) && e.plan.ops[minPC].straight > 0 {
					stepped, trap := e.runWarpBatch(warp, minPC, cta)
					if trap != nil {
						return trap
					}
					if stepped {
						progress = true
					}
					continue
				}
				var swept int64
				for _, th := range warp {
					if th.done || th.waiting || th.pc != minPC || e.laneFrozen(th) {
						continue
					}
					if _, trap := e.stepCareful(th, cta); trap != nil {
						return trap
					}
					swept++
				}
				if swept > 0 {
					progress = true
				}
				if e.intra != nil {
					// Capture only at min-PC sweep boundaries: the drive
					// loop recomputes the minimum PC from scratch here, so
					// a resumed warp replays exactly this continuation.
					e.intra.advance(swept)
				}
			}
		}
		status, trap := e.resolveBarrier(cta, progress)
		if trap != nil {
			return trap
		}
		if status == ctaFinished {
			return nil
		}
	}
}

// ProfileTrace records a fault-free profiling run (Launch.Tracer): the
// static PC sequence of every thread, with the high bit of each entry
// marking instructions that wrote a live destination register (fault sites).
// Programs are limited to 32767 static instructions, far beyond any kernel
// in this repository.
type ProfileTrace struct {
	// PCs[t] is thread t's dynamic instruction sequence.
	PCs [][]uint16
}

// WroteBit flags a trace entry whose instruction wrote a destination register.
const WroteBit = 0x8000

// NewProfileTrace allocates a trace for nThreads threads.
func NewProfileTrace(nThreads int) *ProfileTrace {
	return &ProfileTrace{PCs: make([][]uint16, nThreads)}
}

// Both tiers record a traced CTA into per-thread scratch (exec.traceBuf,
// pooled with the arena) rather than into ProfileTrace.PCs, so a thread's
// entries are not regrown by append doubling; closeTrace then copies the
// CTA's entries into one exact-size block. An entry is recorded after the
// watchdog check and guard evaluation and before the operation runs:
// annulled instructions without WroteBit, executed ones with it when they
// have a destination, and an operation that traps keeps its entry while a
// watchdog or guard trap records nothing.

// openTrace readies the trace scratch for a CTA about to run.
func (e *exec) openTrace(cta *ctaState) {
	if e.launch.Tracer == nil || len(cta.threads) == 0 {
		return
	}
	e.traceBase = cta.threads[0].flat
	e.traceBuf = slices.Grow(e.traceBuf[:0], len(cta.threads))[:len(cta.threads)]
	for i := range e.traceBuf {
		e.traceBuf[i] = e.traceBuf[i][:0]
	}
}

// closeTrace appends the CTA's recorded entries to the ProfileTrace, cut
// from one allocation per CTA. It runs however the CTA ended, so a trapped
// run keeps the entries recorded up to the trap.
func (e *exec) closeTrace(cta *ctaState) {
	tr := e.launch.Tracer
	if tr == nil || len(cta.threads) == 0 {
		return
	}
	total := 0
	for _, b := range e.traceBuf {
		total += len(b)
	}
	block := make([]uint16, total)
	for i, b := range e.traceBuf {
		if len(b) == 0 {
			continue
		}
		seg := block[:len(b):len(b)]
		block = block[len(b):]
		copy(seg, b)
		t := e.traceBase + i
		if tr.PCs[t] == nil {
			tr.PCs[t] = seg
		} else {
			tr.PCs[t] = append(tr.PCs[t], seg...)
		}
	}
}

// record appends th's entry for the instruction at th.pc to the trace
// scratch (careful tier; the fast tiers append whole straight runs).
func (e *exec) record(th *threadState, wrote bool) {
	v := uint16(th.pc)
	if wrote {
		v |= WroteBit
	}
	i := th.flat - e.traceBase
	e.traceBuf[i] = append(e.traceBuf[i], v)
}

// PC decodes a trace entry into the static PC.
func PC(entry uint16) int { return int(entry &^ WroteBit) }

// Wrote decodes a trace entry's destination-write flag.
func Wrote(entry uint16) bool { return entry&WroteBit != 0 }
