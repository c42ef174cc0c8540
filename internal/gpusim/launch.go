package gpusim

import (
	"errors"
	"fmt"
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
	// wrong outcome (DESIGN.md §3.11).
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
		switch {
		case launch.WarpSize > 0 && e.plan != nil:
			trap = e.runCTAWarpedCompiled(cta, launch.WarpSize)
		case launch.WarpSize > 0:
			trap = e.runCTAWarped(cta, launch.WarpSize)
		case e.plan != nil:
			trap = e.runCTACompiled(cta)
		default:
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

// runCTA interleaves the CTA's threads at barrier boundaries until all exit.
func (e *exec) runCTA(cta *ctaState) *Trap {
	for {
		progress := false
		for _, th := range cta.threads {
			if th.done || th.waiting || e.laneFrozen(th) {
				continue
			}
			// Run this thread until it parks, exits, freezes, or traps.
			for !th.done && !th.waiting && !e.laneFrozen(th) {
				blocked, trap := e.step(th, cta)
				if trap != nil {
					return trap
				}
				if e.intra != nil {
					// Any post-step point is resume-safe in serial mode:
					// threads earlier in schedule order are parked or done,
					// so a resumed round re-reaches this thread first.
					e.intra.step()
					e.intra.flush()
				}
				if blocked {
					break
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
func (e *exec) runCTAWarped(cta *ctaState, warpSize int) *Trap {
	for {
		progress := false
		for base := 0; base < len(cta.threads); base += warpSize {
			end := base + warpSize
			if end > len(cta.threads) {
				end = len(cta.threads)
			}
			warp := cta.threads[base:end]
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
				for _, th := range warp {
					if th.done || th.waiting || th.pc != minPC || e.laneFrozen(th) {
						continue
					}
					if _, trap := e.step(th, cta); trap != nil {
						return trap
					}
					if e.intra != nil {
						e.intra.step()
					}
					progress = true
				}
				if e.intra != nil {
					// Capture only at min-PC sweep boundaries: the drive
					// loop recomputes the minimum PC from scratch here, so
					// a resumed warp replays exactly this continuation.
					e.intra.flush()
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

// ProfileTrace is the Tracer used for fault-free profiling runs: it records
// the static PC sequence of every thread, with the high bit of each entry
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

// Record implements Tracer.
func (p *ProfileTrace) Record(thread, pc int, wrote bool) {
	v := uint16(pc)
	if wrote {
		v |= WroteBit
	}
	p.PCs[thread] = append(p.PCs[thread], v)
}

// PC decodes a trace entry into the static PC.
func PC(entry uint16) int { return int(entry &^ WroteBit) }

// Wrote decodes a trace entry's destination-write flag.
func Wrote(entry uint16) bool { return entry&WroteBit != 0 }
