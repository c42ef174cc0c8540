package gpusim

import (
	"fmt"
	"math"

	"repro/internal/isa"
)

// evalCond evaluates a condition code against predicate flags, mirroring the
// PTXPlus condition-code semantics used by guarded branches such as
// "@$p0.eq bra": eq tests the zero flag, ne its complement, lt the sign
// flag, and so on. Unsigned forms (lo/ls/hi/hs) use the carry flag as
// not-borrow. valid=false flags a condition code with no defined semantics
// (including CmpNone, which the parser never emits on a guard); callers
// surface it as a TrapInvalid rather than silently executing.
func evalCond(flags uint8, c isa.CmpOp) (cond, valid bool) {
	z := flags&isa.FlagZero != 0
	s := flags&isa.FlagSign != 0
	cy := flags&isa.FlagCarry != 0
	switch c {
	case isa.CmpEq:
		return z, true
	case isa.CmpNe:
		return !z, true
	case isa.CmpLt:
		return s, true
	case isa.CmpLe:
		return s || z, true
	case isa.CmpGt:
		return !s && !z, true
	case isa.CmpGe:
		return !s, true
	case isa.CmpLo:
		return !cy && !z, true
	case isa.CmpLs:
		return !cy || z, true
	case isa.CmpHi:
		return cy && !z, true
	case isa.CmpHs:
		return cy, true
	}
	return false, false
}

// compare evaluates a set/setp comparison of raw values a, b under type t.
// valid=false flags a selector with no defined semantics for the type:
// CmpNone, out-of-range codes, and the unsigned forms (lo/ls/hi/hs) applied
// to floats. On signed integers the unsigned forms compare the raw bits
// (the PTXPlus listings use them for address arithmetic) and stay valid.
func compare(c isa.CmpOp, a, b uint32, t isa.DataType) (cond, valid bool) {
	if t.Float() {
		fa, fb := f32(a), f32(b)
		switch c {
		case isa.CmpEq:
			return fa == fb, true
		case isa.CmpNe:
			return fa != fb, true
		case isa.CmpLt:
			return fa < fb, true
		case isa.CmpLe:
			return fa <= fb, true
		case isa.CmpGt:
			return fa > fb, true
		case isa.CmpGe:
			return fa >= fb, true
		}
		return false, false
	}
	if t.Signed() {
		sa, sb := int32(a), int32(b)
		switch c {
		case isa.CmpEq:
			return sa == sb, true
		case isa.CmpNe:
			return sa != sb, true
		case isa.CmpLt:
			return sa < sb, true
		case isa.CmpLe:
			return sa <= sb, true
		case isa.CmpGt:
			return sa > sb, true
		case isa.CmpGe:
			return sa >= sb, true
		}
		// lo/ls/hi/hs on signed types fall through to the raw-bit forms.
	}
	switch c {
	case isa.CmpEq:
		return a == b, true
	case isa.CmpNe:
		return a != b, true
	case isa.CmpLt, isa.CmpLo:
		return a < b, true
	case isa.CmpLe, isa.CmpLs:
		return a <= b, true
	case isa.CmpGt, isa.CmpHi:
		return a > b, true
	case isa.CmpGe, isa.CmpHs:
		return a >= b, true
	}
	return false, false
}

// invalidCondTrap is the trap for a guard or selp condition code outside the
// defined set. The compiled plan (plan.go) detects the same condition at
// decode time and must build a bit-identical trap.
func invalidCondTrap(th *threadState, c isa.CmpOp) *Trap {
	return &Trap{Kind: TrapInvalid, Thread: th.flat, PC: th.pc,
		Msg: fmt.Sprintf("invalid condition code %d", uint8(c))}
}

// invalidCmpTrap is the trap for a set/setp comparison selector with no
// defined semantics for the source type. Mirrored by the compiled plan.
func invalidCmpTrap(th *threadState, c isa.CmpOp) *Trap {
	return &Trap{Kind: TrapInvalid, Thread: th.flat, PC: th.pc,
		Msg: fmt.Sprintf("invalid comparison code %d", uint8(c))}
}

// valueFlags derives predicate flags from a result value: zero and sign from
// the value itself, carry/overflow only meaningful for add/sub (passed in).
func valueFlags(v uint32, carry, overflow bool) uint8 {
	var f uint8
	if v == 0 {
		f |= isa.FlagZero
	}
	if int32(v) < 0 {
		f |= isa.FlagSign
	}
	if carry {
		f |= isa.FlagCarry
	}
	if overflow {
		f |= isa.FlagOverflow
	}
	return f
}

// watchdogTrap builds the runaway-thread trap, shared between the reference
// step and the compiled dispatch loops so the message stays bit-identical.
func (e *exec) watchdogTrap(th *threadState) *Trap {
	return &Trap{Kind: TrapWatchdog, Thread: th.flat, PC: th.pc,
		Msg: fmt.Sprintf("exceeded %d dynamic instructions", e.watchdog)}
}

// step executes one dynamic instruction of thread th.
// It returns blocked=true when the thread parked at a barrier (pc already
// advanced past the bar.sync), and a trap on abnormal termination.
func (e *exec) step(th *threadState, cta *ctaState) (blocked bool, trap *Trap) {
	if th.pc < 0 || th.pc >= len(e.prog.Instrs) {
		// Falling off the end retires the thread, like an implicit exit.
		th.done = true
		return false, nil
	}
	in := &e.prog.Instrs[th.pc]

	th.dynCount++
	if th.dynCount > e.watchdog {
		return false, e.watchdogTrap(th)
	}

	// Guard evaluation: a failed guard annuls the instruction (it still
	// retires and counts toward iCnt, but writes nothing and is not a
	// fault site).
	executed := true
	if in.Guard.Active() {
		ok, valid := evalCond(th.preds[in.Guard.Reg.Index], in.Guard.Cond)
		if !valid {
			return false, invalidCondTrap(th, in.Guard.Cond)
		}
		if in.Guard.Not {
			ok = !ok
		}
		executed = ok
	}

	inj := e.launch.Inject
	injHere := inj != nil && th.flat == inj.Thread && th.dynCount-1 == inj.DynInst

	// DestReg is only needed for tracing and for the injection writeback —
	// skip it on the hot path of plain campaign steps.
	wrote := false
	if e.launch.Tracer != nil || injHere {
		_, _, hasDest := in.DestReg()
		wrote = executed && hasDest
		if e.launch.Tracer != nil {
			e.launch.Tracer.Record(th.flat, th.pc, wrote)
		}
	}
	if injHere && executed && inj.Kind == InjectMemAddr {
		// Arm the address corruption; address() consumes it during apply.
		e.addrFlipBit = inj.Bit
	}

	nextPC := th.pc + 1
	if executed {
		var t *Trap
		nextPC, blocked, t = e.apply(th, cta, in)
		if t != nil {
			e.addrFlipBit = -1
			return false, t
		}
	}
	// Disarm if the targeted instruction computed no address.
	e.addrFlipBit = -1

	// Destination-register fault models apply right after writeback of the
	// targeted dynamic instruction. DynInst is 0-based over all retired
	// instructions of the thread.
	if injHere && wrote {
		dreg, _, _ := in.DestReg()
		switch inj.Kind {
		case InjectDestValue:
			e.flipRegBit(th, dreg, inj.Bit)
		case InjectDestDouble:
			e.flipRegBit(th, dreg, inj.Bit)
			e.flipRegBit(th, dreg, inj.Bit+1)
		case InjectDestByte:
			e.flipRegByte(th, dreg, inj.Bit)
		case InjectLaneCorrelated:
			e.flipLaneGroup(th, cta, dreg, inj.Bit)
		}
	}
	if e.persist != nil {
		blocked = e.persistAfterStep(th, blocked)
	}

	th.pc = nextPC
	return blocked, nil
}

// srcOp resolves source operand i of in under the instruction's source type.
func (e *exec) srcOp(th *threadState, cta *ctaState, in *isa.Instruction, i int) (uint32, *Trap) {
	if i >= len(in.Srcs) {
		return 0, &Trap{Kind: TrapInvalid, Thread: th.flat, PC: th.pc,
			Msg: fmt.Sprintf("%s: missing operand %d", in.Op, i)}
	}
	return e.sourceValue(th, cta, &in.Srcs[i], in.SType)
}

// apply executes the operation of in (guard already passed), returning the
// next PC and whether the thread parked at a barrier.
func (e *exec) apply(th *threadState, cta *ctaState, in *isa.Instruction) (nextPC int, blocked bool, trap *Trap) {
	nextPC = th.pc + 1

	switch in.Op {
	case isa.OpNop, isa.OpSsy:
		return nextPC, false, nil

	case isa.OpExit, isa.OpRet, isa.OpRetp:
		th.done = true
		return th.pc, false, nil

	case isa.OpBra:
		target, ok := e.prog.BranchPC(th.pc)
		if !ok {
			return 0, false, &Trap{Kind: TrapInvalid, Thread: th.flat, PC: th.pc,
				Msg: "unresolved branch target"}
		}
		return target, false, nil

	case isa.OpBar:
		th.waiting = true
		th.barID = in.Srcs[0].Imm
		return nextPC, true, nil

	case isa.OpSt:
		v, t := e.srcOp(th, cta, in, 0)
		if t != nil {
			return 0, false, t
		}
		if tr := e.store(th, cta, &in.Dst, accessWidth(in.DType), v); tr != nil {
			return 0, false, tr
		}
		return nextPC, false, nil

	case isa.OpMov, isa.OpLd:
		// mov supports register/immediate/memory sources and register or
		// memory destinations; ld is mov with a mandatory memory source.
		v, t := e.srcOp(th, cta, in, 0)
		if t != nil {
			return 0, false, t
		}
		if in.Dst.Kind == isa.OpdMem {
			if tr := e.store(th, cta, &in.Dst, accessWidth(in.DType), v); tr != nil {
				return 0, false, tr
			}
			return nextPC, false, nil
		}
		e.writeDest(th, in, v, valueFlags(v, false, false))
		return nextPC, false, nil

	case isa.OpSet, isa.OpSetp:
		a, t := e.srcOp(th, cta, in, 0)
		if t != nil {
			return 0, false, t
		}
		b, t := e.srcOp(th, cta, in, 1)
		if t != nil {
			return 0, false, t
		}
		cv, valid := compare(in.Cmp, a, b, in.SType)
		if !valid {
			return 0, false, invalidCmpTrap(th, in.Cmp)
		}
		var v uint32
		if cv {
			v = 0xFFFFFFFF
			if in.DType.Float() {
				v = f32bits(1.0)
			}
		}
		e.writeDest(th, in, v, valueFlags(v, false, false))
		return nextPC, false, nil

	case isa.OpSelp:
		a, t := e.srcOp(th, cta, in, 0)
		if t != nil {
			return 0, false, t
		}
		b, t := e.srcOp(th, cta, in, 1)
		if t != nil {
			return 0, false, t
		}
		if len(in.Srcs) < 3 || !in.Srcs[2].IsReg(isa.RegPred) {
			return 0, false, &Trap{Kind: TrapInvalid, Thread: th.flat, PC: th.pc,
				Msg: "selp needs a predicate selector"}
		}
		flags := th.preds[in.Srcs[2].Reg.Index]
		v := b
		cond := in.Cmp
		if cond == isa.CmpNone {
			cond = isa.CmpNe
		}
		sel, valid := evalCond(flags, cond)
		if !valid {
			return 0, false, invalidCondTrap(th, cond)
		}
		if sel {
			v = a
		}
		e.writeDest(th, in, v, valueFlags(v, false, false))
		return nextPC, false, nil
	}

	// Remaining ops are pure ALU/SFU computations.
	v, carry, overflow, trap := e.compute(th, cta, in)
	if trap != nil {
		return 0, false, trap
	}
	if in.Sat && in.DType == isa.TypeF32 {
		f := f32(v)
		if f < 0 {
			v = f32bits(0)
		} else if f > 1 {
			v = f32bits(1)
		}
	}
	if in.Dst.Kind == isa.OpdMem {
		if tr := e.store(th, cta, &in.Dst, accessWidth(in.DType), v); tr != nil {
			return 0, false, tr
		}
		return nextPC, false, nil
	}
	e.writeDest(th, in, v, valueFlags(v, carry, overflow))
	return nextPC, false, nil
}

// compute evaluates ALU/SFU opcodes to a raw 32-bit result.
func (e *exec) compute(th *threadState, cta *ctaState, in *isa.Instruction) (v uint32, carry, overflow bool, trap *Trap) {
	a, t := e.srcOp(th, cta, in, 0)
	if t != nil {
		return 0, false, false, t
	}

	// Unary operations.
	switch in.Op {
	case isa.OpNot:
		return ^a, false, false, nil
	case isa.OpCnot:
		if a == 0 {
			return 1, false, false, nil
		}
		return 0, false, false, nil
	case isa.OpAbs:
		if in.DType.Float() {
			return a &^ 0x80000000, false, false, nil
		}
		if int32(a) < 0 {
			return -a, false, false, nil
		}
		return a, false, false, nil
	case isa.OpNeg:
		if in.DType.Float() {
			return a ^ 0x80000000, false, false, nil
		}
		return -a, false, false, nil
	case isa.OpCvt:
		return cvt(a, in.DType, in.SType), false, false, nil
	case isa.OpRcp:
		return f32bits(1 / f32(a)), false, false, nil
	case isa.OpSqrt:
		return f32bits(float32(math.Sqrt(float64(f32(a))))), false, false, nil
	case isa.OpRsqrt:
		return f32bits(float32(1 / math.Sqrt(float64(f32(a))))), false, false, nil
	case isa.OpSin:
		return f32bits(float32(math.Sin(float64(f32(a))))), false, false, nil
	case isa.OpCos:
		return f32bits(float32(math.Cos(float64(f32(a))))), false, false, nil
	case isa.OpEx2:
		return f32bits(float32(math.Exp2(float64(f32(a))))), false, false, nil
	case isa.OpLg2:
		return f32bits(float32(math.Log2(float64(f32(a))))), false, false, nil
	}

	b, t := e.srcOp(th, cta, in, 1)
	if t != nil {
		return 0, false, false, t
	}

	ft := in.DType.Float() || in.SType.Float()
	switch in.Op {
	case isa.OpAdd:
		if ft {
			return f32bits(f32(a) + f32(b)), false, false, nil
		}
		s := a + b
		carry = s < a
		overflow = (a^b)&0x80000000 == 0 && (a^s)&0x80000000 != 0
		return s, carry, overflow, nil
	case isa.OpSub:
		if ft {
			return f32bits(f32(a) - f32(b)), false, false, nil
		}
		s := a - b
		carry = a >= b // not-borrow
		overflow = (a^b)&0x80000000 != 0 && (a^s)&0x80000000 != 0
		return s, carry, overflow, nil
	case isa.OpMul:
		if ft {
			return f32bits(f32(a) * f32(b)), false, false, nil
		}
		if in.Wide {
			return wideMul(a, b, in.SType), false, false, nil
		}
		return a * b, false, false, nil
	case isa.OpMad:
		c, t := e.srcOp(th, cta, in, 2)
		if t != nil {
			return 0, false, false, t
		}
		if ft {
			return f32bits(f32(a)*f32(b) + f32(c)), false, false, nil
		}
		if in.Wide {
			return wideMul(a, b, in.SType) + c, false, false, nil
		}
		return a*b + c, false, false, nil
	case isa.OpDiv:
		if ft {
			return f32bits(f32(a) / f32(b)), false, false, nil
		}
		if b == 0 {
			// Integer division by zero yields all-ones on NVIDIA hardware
			// rather than trapping; faults that corrupt divisors therefore
			// surface as SDCs, not crashes.
			return 0xFFFFFFFF, false, false, nil
		}
		if in.SType.Signed() {
			if int32(a) == math.MinInt32 && int32(b) == -1 {
				return a, false, false, nil
			}
			return uint32(int32(a) / int32(b)), false, false, nil
		}
		return a / b, false, false, nil
	case isa.OpRem:
		if b == 0 {
			return a, false, false, nil
		}
		if in.SType.Signed() {
			if int32(a) == math.MinInt32 && int32(b) == -1 {
				return 0, false, false, nil
			}
			return uint32(int32(a) % int32(b)), false, false, nil
		}
		return a % b, false, false, nil
	case isa.OpMin:
		if ft {
			return f32bits(float32(math.Min(float64(f32(a)), float64(f32(b))))), false, false, nil
		}
		if in.SType.Signed() {
			if int32(a) < int32(b) {
				return a, false, false, nil
			}
			return b, false, false, nil
		}
		return min(a, b), false, false, nil
	case isa.OpMax:
		if ft {
			return f32bits(float32(math.Max(float64(f32(a)), float64(f32(b))))), false, false, nil
		}
		if in.SType.Signed() {
			if int32(a) > int32(b) {
				return a, false, false, nil
			}
			return b, false, false, nil
		}
		return max(a, b), false, false, nil
	case isa.OpAnd:
		return a & b, false, false, nil
	case isa.OpOr:
		return a | b, false, false, nil
	case isa.OpXor:
		return a ^ b, false, false, nil
	case isa.OpShl:
		return a << (b & 31), false, false, nil
	case isa.OpShr:
		if in.SType.Signed() || in.DType.Signed() {
			return uint32(int32(a) >> (b & 31)), false, false, nil
		}
		return a >> (b & 31), false, false, nil
	case isa.OpSad:
		c, t := e.srcOp(th, cta, in, 2)
		if t != nil {
			return 0, false, false, t
		}
		var d uint32
		if in.SType.Signed() {
			sa, sb := int32(a), int32(b)
			if sa > sb {
				d = uint32(sa - sb)
			} else {
				d = uint32(sb - sa)
			}
		} else if a > b {
			d = a - b
		} else {
			d = b - a
		}
		return c + d, false, false, nil
	case isa.OpSlct:
		c, t := e.srcOp(th, cta, in, 2)
		if t != nil {
			return 0, false, false, t
		}
		if int32(c) >= 0 {
			return a, false, false, nil
		}
		return b, false, false, nil
	}
	return 0, false, false, &Trap{Kind: TrapInvalid, Thread: th.flat, PC: th.pc,
		Msg: fmt.Sprintf("unimplemented opcode %s", in.Op)}
}

// wideMul computes the 16x16->32 multiply of mul.wide/mad.wide.
func wideMul(a, b uint32, t isa.DataType) uint32 {
	if t.Signed() {
		return uint32(int32(int16(a)) * int32(int16(b)))
	}
	return (a & 0xFFFF) * (b & 0xFFFF)
}

// cvt implements type conversion between the supported scalar types.
func cvt(a uint32, dt, st isa.DataType) uint32 {
	// Normalize the source to a canonical 32-bit value first.
	switch st {
	case isa.TypeU8, isa.TypeB8:
		a &= 0xFF
	case isa.TypeS8:
		a = uint32(int32(int8(a)))
	case isa.TypeU16, isa.TypeB16:
		a &= 0xFFFF
	case isa.TypeS16:
		a = uint32(int32(int16(a)))
	}
	switch {
	case dt.Float() && !st.Float():
		if st.Signed() {
			return f32bits(float32(int32(a)))
		}
		return f32bits(float32(a))
	case !dt.Float() && st.Float():
		f := f32(a)
		if dt.Signed() {
			switch {
			case math.IsNaN(float64(f)):
				return 0
			case f >= math.MaxInt32:
				return uint32(int32(math.MaxInt32))
			case f <= math.MinInt32:
				return 0x80000000
			}
			return uint32(int32(f))
		}
		switch {
		case math.IsNaN(float64(f)) || f <= 0:
			return 0
		case f >= math.MaxUint32:
			return math.MaxUint32
		}
		return uint32(f)
	}
	// Integer-to-integer: clamp to the destination width.
	switch dt {
	case isa.TypeU8, isa.TypeB8:
		return a & 0xFF
	case isa.TypeS8:
		return uint32(int32(int8(a)))
	case isa.TypeU16, isa.TypeB16:
		return a & 0xFFFF
	case isa.TypeS16:
		return uint32(int32(int16(a)))
	}
	return a
}

// writeDest routes a computed value to the instruction's destination(s):
// the dual form "$p0/$o127" writes flags to the predicate register and the
// value to the (usually sink) register; a plain predicate destination takes
// the flags; anything else takes the value.
func (e *exec) writeDest(th *threadState, in *isa.Instruction, v uint32, flags uint8) {
	if in.DstPred.Valid() {
		e.writeReg(th, in.DstPred, uint32(flags))
		if in.Dst.Kind == isa.OpdReg {
			e.writeReg(th, in.Dst.Reg, v)
		}
		return
	}
	if in.Dst.Kind == isa.OpdReg {
		if in.Dst.Reg.Class == isa.RegPred {
			e.writeReg(th, in.Dst.Reg, uint32(flags))
			return
		}
		e.writeReg(th, in.Dst.Reg, v)
	}
}
