package gpusim

// The compiled execution tiers, driven by the schedulers in launch.go:
//
//   - stepCareful is the careful tier: one dynamic instruction with every
//     observable of exec.step intact (tracer callback, injection arm/disarm
//     and writeback, watchdog, guard annulment). It is used whenever
//     something watches the thread — a Tracer, an intra-CTA recorder, or a
//     not-yet-fired injection — and for the whole run when Launch.Interpret
//     left the launch without a plan.
//   - runThreadFast/runWarpBatch are the fast tiers for unobserved
//     execution: they dispatch straight-line runs of pre-decoded closures
//     without re-entering the scheduler, keeping only the per-instruction
//     dynCount/watchdog/guard work the architectural semantics require.
//
// The fast tiers are taken exactly when a plan exists, Tracer == nil,
// intra == nil, and no injection is pending on the thread/warp, so
// e.addrFlipBit is always -1 there and all injection arm/disarm points live
// on the careful tier, in the same positions as the reference step. A
// *persistent* injection (InjectKind.Persistent) never stops being pending:
// its thread (and warp) stay on the careful tier for the remainder of the
// run, until the faulty thread exits and the fault dies with it. See
// DESIGN.md §3.8.

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
			e.launch.Tracer.Record(th.flat, th.pc, wrote)
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

// runThreadFast runs one unobserved thread until it parks, exits, or
// traps, batching straight-line runs. Loop shape equivalence to the
// reference: each iteration of exec.step either advances pc (sequential),
// redirects it (branch), parks (bar), or retires (exit/fall-off); this
// loop performs the same transitions with the per-instruction bookkeeping
// inlined. th.pc is kept current so traps built inside closures carry the
// faulting PC.
func (e *exec) runThreadFast(th *threadState, cta *ctaState) *Trap {
	ops := e.plan.ops
	n := len(ops)
	for {
		pc := th.pc
		if pc < 0 || pc >= n {
			th.done = true
			return nil
		}
		op := &ops[pc]
		if op.straight > 0 {
			end := pc + int(op.straight)
			for pc < end {
				op = &ops[pc]
				th.dynCount++
				if th.dynCount > e.watchdog {
					return e.watchdogTrap(th)
				}
				if op.guard != nil {
					ok, tr := op.guard(th)
					if tr != nil {
						return tr
					}
					if !ok {
						// Annulled: retires and counts, writes nothing.
						pc++
						th.pc = pc
						continue
					}
				}
				if tr := op.seq(e, th, cta); tr != nil {
					return tr
				}
				pc++
				th.pc = pc
			}
			continue
		}
		// Control instruction.
		th.dynCount++
		if th.dynCount > e.watchdog {
			return e.watchdogTrap(th)
		}
		if op.guard != nil {
			ok, tr := op.guard(th)
			if tr != nil {
				return tr
			}
			if !ok {
				th.pc = pc + 1
				continue
			}
		}
		nextPC, blocked, tr := op.ctrl(e, th, cta)
		if tr != nil {
			return tr
		}
		th.pc = nextPC
		if th.done || blocked {
			return nil
		}
	}
}

// runWarpBatch executes a straight-line run for the warp's min-PC lanes:
// the active set is every eligible lane at minPC, and the run extends to
// the earlier of the straight-run end and the lowest PC of any other
// alive lane (where diverged lanes would reconverge into the active set).
// Within that window the reference min-PC sweep would re-select exactly
// the active lanes every instruction, so executing instruction-major in
// warp order here retires the same dynamic instructions in the same order.
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
	for pc := minPC; pc < limit; pc++ {
		op := &ops[pc]
		for _, th := range active {
			th.dynCount++
			if th.dynCount > e.watchdog {
				return true, e.watchdogTrap(th)
			}
			if op.guard != nil {
				ok, tr := op.guard(th)
				if tr != nil {
					return true, tr
				}
				if !ok {
					th.pc = pc + 1
					continue
				}
			}
			if tr := op.seq(e, th, cta); tr != nil {
				return true, tr
			}
			th.pc = pc + 1
		}
	}
	return len(active) > 0, nil
}
