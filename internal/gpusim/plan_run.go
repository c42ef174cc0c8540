package gpusim

// The compiled execution tiers, driven by the schedulers in launch.go:
//
//   - stepCareful is the careful tier: one dynamic instruction with every
//     observable of exec.step intact (injection arm/disarm and writeback,
//     persistent-fault enforcement, watchdog, guard annulment, trace entry).
//     It runs a thread or warp while an injection is pending on it, for the
//     rest of the run under a persistent fault, for the lockstep scheduler's
//     control instructions, and for the whole run when Launch.Interpret left
//     the launch without a plan.
//   - runThreadFast/runWarpBatch are the fast tiers: they dispatch
//     straight-line runs of pre-decoded closures without re-entering the
//     scheduler, keeping only the per-instruction dynCount/watchdog/guard
//     work the architectural semantics require.
//
// The golden run's observers ride on the fast tiers without adding work to
// unobserved execution. The profile trace is appended once per straight run
// (execPlan.entries) and corrected on the rare annul and trap paths, giving
// exactly the entries stepCareful records (see closeTrace). An intra-CTA
// recorder bounds each run so that it stops exactly where the careful tier
// would capture: runThreadFast folds the capture budget into its watchdog
// comparison and pauses at the due step, runWarpBatch caps its window at the
// first sweep boundary that reaches it.
//
// No injection is pending on a fast-tier thread or warp, so e.addrFlipBit
// is always -1 there and all injection arm/disarm points live on the careful
// tier, in the same positions as the reference step. A *persistent*
// injection (InjectKind.Persistent) never stops being pending: its thread
// (and warp) stay on the careful tier for the remainder of the run, until
// the faulty thread exits and the fault dies with it. See DESIGN.md §3.8.

// stepCareful executes one dynamic instruction via the plan, mirroring
// exec.step observable for observable. Without a plan (Launch.Interpret) it
// is exec.step itself.
func (e *exec) stepCareful(th *threadState, cta *ctaState) (blocked bool, trap *Trap) {
	if e.plan == nil {
		return e.step(th, cta)
	}
	ops := e.plan.ops
	if th.pc < 0 || th.pc >= len(ops) {
		// Falling off the end retires the thread, like an implicit exit.
		th.done = true
		return false, nil
	}
	op := &ops[th.pc]

	th.dynCount++
	if th.dynCount > e.watchdog {
		return false, e.watchdogTrap(th)
	}

	executed := true
	if op.guard != nil {
		ok, tr := op.guard(th)
		if tr != nil {
			return false, tr
		}
		executed = ok
	}

	inj := e.launch.Inject
	injHere := inj != nil && th.flat == inj.Thread && th.dynCount-1 == inj.DynInst

	wrote := false
	if e.launch.Tracer != nil || injHere {
		wrote = executed && op.hasDest
		if e.launch.Tracer != nil {
			e.record(th, wrote)
		}
	}
	if injHere && executed && inj.Kind == InjectMemAddr {
		e.addrFlipBit = inj.Bit
	}

	nextPC := th.pc + 1
	if executed {
		if op.seq != nil {
			if tr := op.seq(e, th, cta); tr != nil {
				e.addrFlipBit = -1
				return false, tr
			}
		} else {
			var tr *Trap
			nextPC, blocked, tr = op.ctrl(e, th, cta)
			if tr != nil {
				e.addrFlipBit = -1
				return false, tr
			}
		}
	}
	e.addrFlipBit = -1

	if injHere && wrote {
		switch inj.Kind {
		case InjectDestValue:
			e.flipRegBit(th, op.destReg, inj.Bit)
		case InjectDestDouble:
			e.flipRegBit(th, op.destReg, inj.Bit)
			e.flipRegBit(th, op.destReg, inj.Bit+1)
		case InjectDestByte:
			e.flipRegByte(th, op.destReg, inj.Bit)
		case InjectLaneCorrelated:
			e.flipLaneGroup(th, cta, op.destReg, inj.Bit)
		}
	}
	if e.persist != nil {
		blocked = e.persistAfterStep(th, blocked)
	}

	th.pc = nextPC
	return blocked, nil
}

// runThreadFast runs one thread with no pending injection until it parks,
// exits, or traps, batching straight-line runs. Loop shape equivalence to
// the reference: each iteration of exec.step either advances pc
// (sequential), redirects it (branch), parks (bar), or retires (exit/
// fall-off); this loop performs the same transitions with the
// per-instruction bookkeeping inlined. th.pc is kept current so traps built
// inside closures carry the faulting PC, and so an intra-CTA capture taken
// at a pause sees the careful tier's state.
func (e *exec) runThreadFast(th *threadState, cta *ctaState) *Trap {
	ops := e.plan.ops
	n := len(ops)
	var rec *[]uint16
	if e.launch.Tracer != nil {
		rec = &e.traceBuf[th.flat-e.traceBase]
	}
	// Instructions retired since from are not yet reported to the intra
	// recorder; stopAt is the dynCount the thread may reach before the
	// watchdog trips or a capture falls due.
	from, stopAt := th.dynCount, e.stopAt(th)
	for {
		pc := th.pc
		if pc < 0 || pc >= n {
			if e.intra == nil {
				th.done = true
				return nil
			}
			// Falling off the end is a scheduler step that retires no
			// instruction: report the run, then the step.
			e.intra.advance(th.dynCount - from)
			th.done = true
			e.intra.advance(1)
			return nil
		}
		op := &ops[pc]
		if op.straight > 0 {
			end := pc + int(op.straight)
			if rec != nil {
				*rec = append(*rec, e.plan.entries[pc:end]...)
			}
			for pc < end {
				op = &ops[pc]
				th.dynCount++
				if th.dynCount > stopAt {
					if rec != nil {
						*rec = (*rec)[:len(*rec)-(end-pc)]
					}
					if !e.capturePause(th, from) {
						return e.watchdogTrap(th)
					}
					from, stopAt = th.dynCount, e.stopAt(th)
					break
				}
				if op.guard != nil {
					ok, tr := op.guard(th)
					if tr != nil {
						if rec != nil {
							*rec = (*rec)[:len(*rec)-(end-pc)]
						}
						return tr
					}
					if !ok {
						// Annulled: retires and counts, writes nothing.
						if rec != nil {
							(*rec)[len(*rec)-(end-pc)] &^= WroteBit
						}
						pc++
						th.pc = pc
						continue
					}
				}
				if tr := op.seq(e, th, cta); tr != nil {
					if rec != nil {
						*rec = (*rec)[:len(*rec)-(end-pc)+1]
					}
					return tr
				}
				pc++
				th.pc = pc
			}
			continue
		}
		// Control instruction.
		th.dynCount++
		if th.dynCount > stopAt {
			if !e.capturePause(th, from) {
				return e.watchdogTrap(th)
			}
			from, stopAt = th.dynCount, e.stopAt(th)
			continue
		}
		executed := true
		if op.guard != nil {
			ok, tr := op.guard(th)
			if tr != nil {
				return tr
			}
			executed = ok
		}
		if rec != nil {
			v := e.plan.entries[pc]
			if !executed {
				v &^= WroteBit
			}
			*rec = append(*rec, v)
		}
		if !executed {
			th.pc = pc + 1
			continue
		}
		nextPC, blocked, tr := op.ctrl(e, th, cta)
		if tr != nil {
			return tr
		}
		th.pc = nextPC
		if th.done || blocked {
			if e.intra != nil {
				e.intra.advance(th.dynCount - from)
			}
			return nil
		}
	}
}

// stopAt is the dynCount up to which runThreadFast may run th: the watchdog,
// or the step at which the intra-CTA recorder's next capture falls due.
func (e *exec) stopAt(th *threadState) int64 {
	if e.intra == nil {
		return e.watchdog
	}
	return min(e.watchdog, th.dynCount+e.intra.due())
}

// capturePause handles a runThreadFast thread whose dynCount just passed
// stopAt. If a capture fell due on the previous step, it undoes the
// increment, reports the steps retired since from (which captures), and
// returns true: the caller resumes at the same instruction. Otherwise the
// watchdog tripped.
func (e *exec) capturePause(th *threadState, from int64) bool {
	if e.intra == nil || th.dynCount-from <= e.intra.due() {
		return false
	}
	th.dynCount--
	e.intra.advance(th.dynCount - from)
	return true
}

// runWarpBatch executes a straight-line run for the warp's min-PC lanes:
// the active set is every eligible lane at minPC, and the run extends to
// the earlier of the straight-run end and the lowest PC of any other
// alive lane (where diverged lanes would reconverge into the active set).
// Within that window the reference min-PC sweep would re-select exactly
// the active lanes every instruction, so executing instruction-major in
// warp order here retires the same dynamic instructions in the same order.
// Under an intra-CTA recorder the window also ends at the first sweep
// boundary where a capture falls due, so the capture sees the state the
// careful sweep would leave there.
func (e *exec) runWarpBatch(warp []*threadState, minPC int, cta *ctaState) (bool, *Trap) {
	ops := e.plan.ops
	active := e.warpActive[:0]
	limit := minPC + int(ops[minPC].straight)
	for _, th := range warp {
		if th.done || th.waiting {
			continue
		}
		if th.pc == minPC {
			active = append(active, th)
		} else if th.pc < limit {
			limit = th.pc
		}
	}
	e.warpActive = active
	if e.intra != nil {
		lanes := int64(len(active))
		if sweeps := (e.intra.due() + lanes - 1) / lanes; sweeps < int64(limit-minPC) {
			limit = minPC + int(sweeps)
		}
	}
	traced := e.launch.Tracer != nil
	if traced {
		entries := e.plan.entries[minPC:limit]
		for _, th := range active {
			i := th.flat - e.traceBase
			e.traceBuf[i] = append(e.traceBuf[i], entries...)
		}
	}
	for pc := minPC; pc < limit; pc++ {
		op := &ops[pc]
		for lane, th := range active {
			th.dynCount++
			if th.dynCount > e.watchdog {
				return true, e.untraceBatch(active, lane, limit-pc, false, e.watchdogTrap(th))
			}
			if op.guard != nil {
				ok, tr := op.guard(th)
				if tr != nil {
					return true, e.untraceBatch(active, lane, limit-pc, false, tr)
				}
				if !ok {
					if traced {
						b := e.traceBuf[th.flat-e.traceBase]
						b[len(b)-(limit-pc)] &^= WroteBit
					}
					th.pc = pc + 1
					continue
				}
			}
			if tr := op.seq(e, th, cta); tr != nil {
				return true, e.untraceBatch(active, lane, limit-pc, true, tr)
			}
			th.pc = pc + 1
		}
	}
	if e.intra != nil {
		e.intra.advance(int64(limit-minPC) * int64(len(active)))
	}
	return len(active) > 0, nil
}

// untraceBatch drops the trace entries runWarpBatch appended ahead for
// instructions a trap kept from running, and returns the trap. The batch
// stopped at lane `lane` with left window instructions outstanding (the
// trapping one included): lanes before it ran that instruction, lanes after
// it did not, and the trapping lane keeps its entry only if its operation
// itself trapped (kept).
func (e *exec) untraceBatch(active []*threadState, lane, left int, kept bool, tr *Trap) *Trap {
	if e.launch.Tracer == nil {
		return tr
	}
	for l, th := range active {
		drop := left
		if l < lane || (l == lane && kept) {
			drop--
		}
		i := th.flat - e.traceBase
		e.traceBuf[i] = e.traceBuf[i][:len(e.traceBuf[i])-drop]
	}
	return tr
}
