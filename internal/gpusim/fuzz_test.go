package gpusim

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/ptx"
)

// fuzzProgram generates a structurally valid random program of n
// instructions from an LCG seeded with seed. Shared by the never-panic
// property and the compiled-vs-interpreter differential fuzz target.
func fuzzProgram(t *testing.T, seed uint64, n int) *isa.Program {
	t.Helper()
	ops := []isa.Opcode{
		isa.OpMov, isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpMad, isa.OpDiv,
		isa.OpRem, isa.OpMin, isa.OpMax, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpNot, isa.OpShl, isa.OpShr, isa.OpSet, isa.OpCvt, isa.OpAbs,
		isa.OpNeg, isa.OpRcp, isa.OpSqrt, isa.OpLd, isa.OpSt, isa.OpBra,
		isa.OpSad, isa.OpSelp, isa.OpSlct, isa.OpCnot, isa.OpEx2,
	}
	types := []isa.DataType{isa.TypeU32, isa.TypeS32, isa.TypeF32, isa.TypeU16, isa.TypeB32}

	rnd := func(mod uint64) uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return (seed >> 33) % mod
	}
	reg := func() isa.Operand { return isa.R(int(rnd(16))) }
	operand := func() isa.Operand {
		switch rnd(4) {
		case 0:
			return isa.Imm(uint32(rnd(1 << 16)))
		case 1:
			return isa.MemDirect(isa.SpaceShared, uint32(rnd(256))*4)
		case 2:
			return isa.MemIndirect(isa.SpaceGlobal, isa.Reg{Class: isa.RegGPR, Index: uint8(rnd(16))}, uint32(rnd(64)))
		default:
			return reg()
		}
	}
	p := &isa.Program{Name: "fuzz", Labels: map[string]int{}}
	for i := 0; i < n; i++ {
		op := ops[rnd(uint64(len(ops)))]
		in := isa.Instruction{PC: i, Op: op,
			DType: types[rnd(uint64(len(types)))]}
		in.SType = in.DType
		switch op {
		case isa.OpBra:
			in.Target = "lend"
			if rnd(2) == 0 {
				in.Guard = isa.Guard{Reg: isa.Reg{Class: isa.RegPred, Index: uint8(rnd(4))},
					Cond: isa.CmpEq}
			}
		case isa.OpSt:
			in.Dst = isa.MemIndirect(isa.SpaceGlobal,
				isa.Reg{Class: isa.RegGPR, Index: uint8(rnd(16))}, uint32(rnd(64)))
			in.Srcs = []isa.Operand{reg()}
		case isa.OpSet:
			in.Cmp = isa.CmpOp(1 + rnd(6))
			in.DstPred = isa.Reg{Class: isa.RegPred, Index: uint8(rnd(4))}
			in.Dst = isa.R(isa.SinkReg)
			in.Srcs = []isa.Operand{operand(), operand()}
		case isa.OpSelp:
			in.Dst = reg()
			in.Srcs = []isa.Operand{operand(), operand(), isa.P(int(rnd(4)))}
		case isa.OpMad, isa.OpSad, isa.OpSlct:
			in.Dst = reg()
			in.Srcs = []isa.Operand{operand(), operand(), operand()}
		case isa.OpMov, isa.OpLd, isa.OpNot, isa.OpCnot, isa.OpAbs,
			isa.OpNeg, isa.OpCvt, isa.OpRcp, isa.OpSqrt, isa.OpEx2:
			in.Dst = reg()
			in.Srcs = []isa.Operand{operand()}
		default:
			in.Dst = reg()
			in.Srcs = []isa.Operand{operand(), operand()}
		}
		p.Instrs = append(p.Instrs, in)
	}
	p.Instrs = append(p.Instrs, isa.Instruction{PC: n, Op: isa.OpExit, Label: "lend"})
	p.Labels["lend"] = n
	if err := p.Validate(); err != nil {
		t.Fatalf("generator produced invalid program: %v", err)
	}
	return p
}

// TestRandomProgramsNeverPanic drives both execution paths with randomly
// generated (structurally valid) programs and random initial state: any
// behaviour is acceptable — clean exit, memory fault, watchdog — except a
// panic or a missed watchdog. This is the robustness property fault
// injection relies on: a bit flip can steer execution anywhere, and the
// simulator must classify, not crash.
func TestRandomProgramsNeverPanic(t *testing.T) {
	f := func(seed uint64, size uint8) bool {
		prog := fuzzProgram(t, seed, int(size%40)+1)
		for _, interpret := range []bool{false, true} {
			dev := NewDevice(256)
			res, err := Execute(dev, &Launch{
				Prog:      prog,
				Grid:      Dim3{X: 1, Y: 1, Z: 1},
				Block:     Dim3{X: 4, Y: 1, Z: 1},
				Watchdog:  10_000,
				Interpret: interpret,
			})
			if err != nil {
				return false // setup errors indicate a generator bug
			}
			// Any trap kind is fine; what matters is we returned.
			_ = res
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// diffRunState is the full observable architectural state of one run,
// captured for bit-exact comparison between the compiled plan and the
// reference interpreter.
type diffRunState struct {
	threads []threadState // final per-thread state by value: regs, preds, ofs, pc, dynCount, done
	shared  []byte
	dev     []byte
	trap    *Trap
	trace   [][]uint16 // recorded ProfileTrace; nil on untraced runs
}

// diffRun executes prog on a fresh single-CTA 4-thread launch, keeping the
// CTA state alive so final registers and predicates can be compared
// directly. It mirrors Execute's setup and dispatches to the same
// scheduler; traced attaches a ProfileTrace, which both tiers record into.
func diffRun(t *testing.T, prog *isa.Program, warpSize int, inj *Injection, interpret, traced bool) diffRunState {
	t.Helper()
	dev := NewDevice(256)
	launch := &Launch{
		Prog:      prog,
		Grid:      Dim3{X: 1, Y: 1, Z: 1},
		Block:     Dim3{X: 4, Y: 1, Z: 1},
		Watchdog:  10_000,
		WarpSize:  warpSize,
		Inject:    inj,
		Interpret: interpret,
	}
	var tr *ProfileTrace
	if traced {
		tr = NewProfileTrace(launch.Block.Count())
		launch.Tracer = tr
	}
	e := &exec{
		prog:        prog,
		dev:         dev,
		launch:      launch,
		block:       launch.Block,
		grid:        launch.Grid,
		watchdog:    launch.Watchdog,
		addrFlipBit: -1,
	}
	if !interpret {
		e.plan = planFor(prog)
	}
	e.persist = newPersistState(inj)
	cta := &ctaState{shared: make([]byte, DefaultSharedBytes)}
	for tx := 0; tx < launch.Block.X; tx++ {
		cta.threads = append(cta.threads, &threadState{flat: tx, tid: Dim3{X: tx}})
	}
	var trap *Trap
	if warpSize > 0 {
		trap = e.runCTAWarped(cta, warpSize)
	} else {
		trap = e.runCTA(cta)
	}
	st := diffRunState{shared: cta.shared, dev: dev.Bytes(), trap: trap}
	if tr != nil {
		st.trace = tr.PCs
	}
	for _, th := range cta.threads {
		st.threads = append(st.threads, *th)
	}
	return st
}

// diffCheck runs prog on the reference interpreter and the compiled plan
// and reports the first observable on which they diverge.
func diffCheck(t *testing.T, prog *isa.Program, warp int, in *Injection, traced bool) bool {
	t.Helper()
	ref := diffRun(t, prog, warp, in, true, traced)
	got := diffRun(t, prog, warp, in, false, traced)
	if (ref.trap == nil) != (got.trap == nil) ||
		(ref.trap != nil && *ref.trap != *got.trap) {
		t.Errorf("warp %d inj %+v traced %v: trap diverges: interpreter %v, compiled %v",
			warp, in, traced, ref.trap, got.trap)
		return false
	}
	for i := range ref.threads {
		if ref.threads[i] != got.threads[i] {
			t.Errorf("warp %d inj %+v traced %v: thread %d state diverges:\ninterpreter %+v\ncompiled    %+v",
				warp, in, traced, i, ref.threads[i], got.threads[i])
			return false
		}
	}
	if !bytes.Equal(ref.shared, got.shared) {
		t.Errorf("warp %d inj %+v traced %v: shared memory diverges", warp, in, traced)
		return false
	}
	if !bytes.Equal(ref.dev, got.dev) {
		t.Errorf("warp %d inj %+v traced %v: global memory diverges", warp, in, traced)
		return false
	}
	if !reflect.DeepEqual(ref.trace, got.trace) {
		t.Errorf("warp %d inj %+v traced %v: profile trace diverges:\ninterpreter %v\ncompiled    %v",
			warp, in, traced, ref.trace, got.trace)
		return false
	}
	return true
}

// TestCompiledMatchesInterpreterFuzz is the differential property behind the
// compiled execution plan (DESIGN.md §3.8): for random programs, under both
// schedulers, with and without an injected fault, untraced and traced, the
// compiled plan and the reference interpreter must agree on every
// observable — final registers, predicates, offset registers, PCs, dynamic
// instruction counts, shared and global memory, the trap (kind, thread, PC
// and message) and the recorded profile trace.
func TestCompiledMatchesInterpreterFuzz(t *testing.T) {
	// A named input: a stuck-at-0 active mask freezes thread 1 mid-loop on a
	// traced serial run. The frozen lane must never step again on either
	// path, so the CTA deadlocks once the other threads exit.
	t.Run("frozen-lane-traced", func(t *testing.T) {
		prog := ptx.MustAssemble("frozen", `
			mov.u32 $r1, 0x00000000
			lloop: add.u32 $r1, $r1, 0x00000001
			set.lt.u32.u32 $p0/$o127, $r1, 0x00000017
			@$p0.ne bra lloop
			exit
		`)
		inj := &Injection{Thread: 1, DynInst: 5, Bit: 0, Kind: InjectStuckActiveMask}
		if ref := diffRun(t, prog, 0, inj, true, true); ref.trap == nil ||
			ref.trap.Kind != TrapDeadlock || ref.threads[1].dynCount != 6 {
			t.Fatalf("interpreter: trap %v, thread 1 dynCount %d; want deadlock with the lane frozen at 6",
				ref.trap, ref.threads[1].dynCount)
		}
		diffCheck(t, prog, 0, inj, true)
	})

	f := func(seed uint64, size uint8, injSel uint32) bool {
		prog := fuzzProgram(t, seed, int(size%40)+1)
		kinds := []InjectKind{
			InjectDestValue, InjectDestValue, InjectDestDouble, InjectMemAddr,
			InjectDestByte, InjectLaneCorrelated,
			InjectStuckPred, InjectStuckActiveMask, InjectStuckBarrier,
		}
		inj := &Injection{
			Thread:  int(injSel % 4),
			DynInst: int64((injSel >> 2) % 64),
			Bit:     int((injSel >> 8) % 64),
			Kind:    kinds[(injSel>>14)%uint32(len(kinds))],
		}
		for _, warp := range []int{0, 4} {
			for _, in := range []*Injection{nil, inj} {
				for _, traced := range []bool{false, true} {
					if !diffCheck(t, prog, warp, in, traced) {
						t.Logf("seed %d size %d", seed, size)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCompiledMatchesInterpreterInvalidCmp pins the trap parity of the
// condition-code validation: a program whose guard or comparison carries a
// condition code outside the defined range must raise TrapInvalid — not
// silently execute (guards) or evaluate false (set) — identically on both
// execution paths.
func TestCompiledMatchesInterpreterInvalidCmp(t *testing.T) {
	cases := []struct {
		name  string
		prog  func(t *testing.T) *isa.Program
		wants string
	}{
		{
			name: "invalid-guard-cond",
			prog: func(t *testing.T) *isa.Program {
				p := &isa.Program{Name: "badguard", Labels: map[string]int{"lend": 1}}
				p.Instrs = []isa.Instruction{
					{PC: 0, Op: isa.OpBra, Target: "lend",
						Guard: isa.Guard{Reg: isa.Reg{Class: isa.RegPred, Index: 0}, Cond: isa.CmpOp(99)}},
					{PC: 1, Op: isa.OpExit, Label: "lend"},
				}
				if err := p.Validate(); err != nil {
					t.Fatal(err)
				}
				return p
			},
			wants: "invalid condition code",
		},
		{
			name: "invalid-set-cmp",
			prog: func(t *testing.T) *isa.Program {
				p := &isa.Program{Name: "badcmp", Labels: map[string]int{}}
				p.Instrs = []isa.Instruction{
					{PC: 0, Op: isa.OpSet, Cmp: isa.CmpOp(99), DType: isa.TypeU32, SType: isa.TypeU32,
						DstPred: isa.Reg{Class: isa.RegPred, Index: 0},
						Dst:     isa.R(isa.SinkReg),
						Srcs:    []isa.Operand{isa.Imm(1), isa.Imm(2)}},
					{PC: 1, Op: isa.OpExit},
				}
				if err := p.Validate(); err != nil {
					t.Fatal(err)
				}
				return p
			},
			wants: "invalid comparison code",
		},
		{
			name: "cmpnone-guard",
			prog: func(t *testing.T) *isa.Program {
				// A guard with CmpNone previously executed unconditionally;
				// it now traps as malformed on both paths.
				p := &isa.Program{Name: "noneguard", Labels: map[string]int{"lend": 1}}
				p.Instrs = []isa.Instruction{
					{PC: 0, Op: isa.OpBra, Target: "lend",
						Guard: isa.Guard{Reg: isa.Reg{Class: isa.RegPred, Index: 0}, Cond: isa.CmpNone}},
					{PC: 1, Op: isa.OpExit, Label: "lend"},
				}
				if err := p.Validate(); err != nil {
					t.Fatal(err)
				}
				return p
			},
			wants: "invalid condition code",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			prog := tc.prog(t)
			for _, warp := range []int{0, 4} {
				ref := diffRun(t, prog, warp, nil, true, false)
				got := diffRun(t, prog, warp, nil, false, false)
				for _, st := range []struct {
					mode string
					s    diffRunState
				}{{"interpreter", ref}, {"compiled", got}} {
					if st.s.trap == nil || st.s.trap.Kind != TrapInvalid {
						t.Fatalf("warp %d %s: want TrapInvalid, got %v", warp, st.mode, st.s.trap)
					}
					if !strings.Contains(st.s.trap.Msg, tc.wants) {
						t.Fatalf("warp %d %s: trap message %q does not mention %q",
							warp, st.mode, st.s.trap.Msg, tc.wants)
					}
				}
				if *ref.trap != *got.trap {
					t.Fatalf("warp %d: traps diverge: interpreter %v, compiled %v", warp, ref.trap, got.trap)
				}
			}
		})
	}
}
