package gpusim

import (
	"math"

	"repro/internal/isa"
)

// threadState is the per-thread architectural state.
type threadState struct {
	flat  int // flat global thread id
	tid   Dim3
	ctaid Dim3

	regs  [isa.NumGPRs]uint32
	preds [isa.NumPreds]uint8
	ofs   [isa.NumOfs]uint32

	pc       int
	dynCount int64
	done     bool

	// Barrier state: waiting is true when blocked on barrier barID.
	waiting bool
	barID   uint32
}

// ctaState groups the threads of one CTA with their shared memory.
type ctaState struct {
	threads []*threadState
	shared  []byte
}

// exec bundles everything the interpreter needs for one launch.
type exec struct {
	prog     *isa.Program
	dev      *Device
	launch   *Launch
	block    Dim3
	grid     Dim3
	watchdog int64
	// intra, when non-nil, records intra-CTA checkpoints of a golden run;
	// nil on every injection run.
	intra *WarpCheckpointRecorder
	// addrFlipBit, when >= 0, corrupts the next effective-address
	// computation (InjectMemAddr); consumed by address().
	addrFlipBit int
	// persist is the armed persistent (stuck-at) fault, decoded from
	// Launch.Inject; nil for transient or absent injections. See persist.go.
	persist *persistState
	// plan is the compiled execution plan; nil when Launch.Interpret keeps
	// the schedulers on the reference step (careful tier only).
	plan *execPlan
	// warpActive is runWarpBatch's reused active-lane scratch.
	warpActive []*threadState
	// traceBuf[i] collects the profile-trace entries of the running CTA's
	// thread traceBase+i until closeTrace; reused across CTAs and, through
	// the arena, across launches.
	traceBuf  [][]uint16
	traceBase int
}

// readReg returns the raw 32-bit value of a register for thread th.
func (e *exec) readReg(th *threadState, r isa.Reg) uint32 {
	switch r.Class {
	case isa.RegGPR:
		if r.Index == isa.ZeroReg || r.Index == isa.SinkReg {
			return 0
		}
		return th.regs[r.Index]
	case isa.RegPred:
		return uint32(th.preds[r.Index])
	case isa.RegOfs:
		return th.ofs[r.Index]
	case isa.RegSpecial:
		switch r.Index {
		case isa.SpecTidX:
			return uint32(th.tid.X)
		case isa.SpecTidY:
			return uint32(th.tid.Y)
		case isa.SpecTidZ:
			return uint32(th.tid.Z)
		case isa.SpecCtaidX:
			return uint32(th.ctaid.X)
		case isa.SpecCtaidY:
			return uint32(th.ctaid.Y)
		case isa.SpecCtaidZ:
			return uint32(th.ctaid.Z)
		case isa.SpecNTidX:
			return uint32(max(e.block.X, 1))
		case isa.SpecNTidY:
			return uint32(max(e.block.Y, 1))
		case isa.SpecNTidZ:
			return uint32(max(e.block.Z, 1))
		case isa.SpecNCtaidX:
			return uint32(max(e.grid.X, 1))
		case isa.SpecNCtaidY:
			return uint32(max(e.grid.Y, 1))
		case isa.SpecNCtaidZ:
			return uint32(max(e.grid.Z, 1))
		}
	}
	return 0
}

// writeReg stores a raw 32-bit value into a register of thread th. Writes to
// the zero register and the $o127 sink are discarded, matching PTXPlus.
func (e *exec) writeReg(th *threadState, r isa.Reg, v uint32) {
	switch r.Class {
	case isa.RegGPR:
		if r.Index == isa.ZeroReg || r.Index == isa.SinkReg {
			return
		}
		th.regs[r.Index] = v
	case isa.RegPred:
		th.preds[r.Index] = uint8(v) & 0xF
	case isa.RegOfs:
		th.ofs[r.Index] = v
	}
}

// flipRegBit applies a single-bit fault to a register.
func (e *exec) flipRegBit(th *threadState, r isa.Reg, bit int) {
	switch r.Class {
	case isa.RegPred:
		th.preds[r.Index] ^= 1 << (uint(bit) % isa.PredBits)
	case isa.RegOfs:
		th.ofs[r.Index] ^= 1 << (uint(bit) % 32)
	case isa.RegGPR:
		if r.Index != isa.ZeroReg && r.Index != isa.SinkReg {
			th.regs[r.Index] ^= 1 << (uint(bit) % 32)
		}
	}
}

// flipRegByte applies a whole-byte fault to a register: every bit of the
// byte containing bit flips (the whole flag nibble for a predicate
// register, which is narrower than a byte).
func (e *exec) flipRegByte(th *threadState, r isa.Reg, bit int) {
	switch r.Class {
	case isa.RegPred:
		th.preds[r.Index] ^= (1 << isa.PredBits) - 1
	case isa.RegOfs:
		th.ofs[r.Index] ^= 0xFF << (uint(bit) % 32 / 8 * 8)
	case isa.RegGPR:
		if r.Index != isa.ZeroReg && r.Index != isa.SinkReg {
			th.regs[r.Index] ^= 0xFF << (uint(bit) % 32 / 8 * 8)
		}
	}
}

// flipLaneGroup applies a spatially correlated fault: bit flips in the same
// architectural register of every thread in th's lane group — the warp
// under SIMT scheduling, a 32-wide group under serial interleaving.
func (e *exec) flipLaneGroup(th *threadState, cta *ctaState, r isa.Reg, bit int) {
	w := e.launch.WarpSize
	if w <= 0 {
		w = 32
	}
	local := th.flat % e.block.Count()
	base := local / w * w
	end := base + w
	if end > len(cta.threads) {
		end = len(cta.threads)
	}
	for _, o := range cta.threads[base:end] {
		e.flipRegBit(o, r, bit)
	}
}

// sourceValue resolves a source operand to its raw 32-bit value, applying
// half-selection and negation. Memory sources go through load and may trap.
func (e *exec) sourceValue(th *threadState, cta *ctaState, o *isa.Operand, t isa.DataType) (uint32, *Trap) {
	switch o.Kind {
	case isa.OpdReg:
		v := e.readReg(th, o.Reg)
		switch o.Half {
		case isa.HalfLo:
			v &= 0xFFFF
			if t.Signed() {
				v = uint32(int32(int16(v)))
			}
		case isa.HalfHi:
			v >>= 16
			if t.Signed() {
				v = uint32(int32(int16(v)))
			}
		}
		if o.Neg {
			if t.Float() {
				v ^= 0x80000000
			} else {
				v = -v
			}
		}
		return v, nil
	case isa.OpdImm:
		return o.Imm, nil
	case isa.OpdMem:
		return e.load(th, cta, o, accessWidth(t), t.Signed())
	}
	return 0, &Trap{Kind: TrapInvalid, Thread: th.flat, PC: th.pc, Msg: "empty operand"}
}

// address computes the effective byte address of a memory operand, applying
// a pending InjectMemAddr fault to the first address computed after the
// injection point.
func (e *exec) address(th *threadState, o *isa.Operand) uint32 {
	addr := o.Imm
	if o.BaseValid {
		addr += e.readReg(th, o.Reg)
	}
	if e.addrFlipBit >= 0 {
		addr ^= 1 << (uint(e.addrFlipBit) % 32)
		e.addrFlipBit = -1
	}
	return addr
}

// accessWidth returns the byte width of a memory access of the given type.
func accessWidth(t isa.DataType) int {
	switch t.Bits() {
	case 8:
		return 1
	case 16:
		return 2
	default:
		return 4
	}
}

// memSlice resolves the flat backing storage for a non-global space; global
// memory lives behind the device's copy-on-write page table and is accessed
// through Device.loadMem/storeMem instead.
func (e *exec) memSlice(cta *ctaState, space isa.MemSpace) []byte {
	switch space {
	case isa.SpaceShared, isa.SpaceLocal:
		return cta.shared
	case isa.SpaceConst:
		return e.dev.Const
	}
	return nil
}

// load reads a w-byte value (w from accessWidth: 1, 2 or 4) from memory
// with bounds and alignment checking, sign-extending sub-word loads when
// signed; violations trap (the simulator's "crash" outcome). The compiled
// plan passes w and signed pre-decoded. Alignment is tested as addr&(w-1),
// which equals addr%w because w is a power of two and the range check has
// already rejected negative addresses.
func (e *exec) load(th *threadState, cta *ctaState, o *isa.Operand, w int, signed bool) (uint32, *Trap) {
	addr := int(e.address(th, o))
	var v uint32
	if o.Space == isa.SpaceGlobal {
		if addr < 0 || addr+w > e.dev.size {
			return 0, &Trap{Kind: TrapMemFault, Thread: th.flat, PC: th.pc,
				Msg: "load out of range"}
		}
		if addr&(w-1) != 0 {
			return 0, &Trap{Kind: TrapMemFault, Thread: th.flat, PC: th.pc,
				Msg: "misaligned load"}
		}
		v = e.dev.loadMem(addr, w)
	} else {
		mem := e.memSlice(cta, o.Space)
		if mem == nil || addr < 0 || addr+w > len(mem) {
			return 0, &Trap{Kind: TrapMemFault, Thread: th.flat, PC: th.pc,
				Msg: "load out of range"}
		}
		if addr&(w-1) != 0 {
			return 0, &Trap{Kind: TrapMemFault, Thread: th.flat, PC: th.pc,
				Msg: "misaligned load"}
		}
		switch w {
		case 1:
			v = uint32(mem[addr])
		case 2:
			v = uint32(mem[addr]) | uint32(mem[addr+1])<<8
		default:
			v = getWord(mem, addr)
		}
	}
	if signed {
		switch w {
		case 1:
			v = uint32(int32(int8(v)))
		case 2:
			v = uint32(int32(int16(v)))
		}
	}
	return v, nil
}

// store writes a w-byte value (w from accessWidth) to memory with bounds and
// alignment checking.
func (e *exec) store(th *threadState, cta *ctaState, o *isa.Operand, w int, v uint32) *Trap {
	if o.Space == isa.SpaceConst {
		return &Trap{Kind: TrapMemFault, Thread: th.flat, PC: th.pc,
			Msg: "store to const space"}
	}
	addr := int(e.address(th, o))
	if o.Space == isa.SpaceGlobal {
		if addr < 0 || addr+w > e.dev.size {
			return &Trap{Kind: TrapMemFault, Thread: th.flat, PC: th.pc,
				Msg: "store out of range"}
		}
		if addr&(w-1) != 0 {
			return &Trap{Kind: TrapMemFault, Thread: th.flat, PC: th.pc,
				Msg: "misaligned store"}
		}
		e.dev.storeMem(addr, w, v)
		return nil
	}
	mem := e.memSlice(cta, o.Space)
	if mem == nil || addr < 0 || addr+w > len(mem) {
		return &Trap{Kind: TrapMemFault, Thread: th.flat, PC: th.pc,
			Msg: "store out of range"}
	}
	if addr&(w-1) != 0 {
		return &Trap{Kind: TrapMemFault, Thread: th.flat, PC: th.pc,
			Msg: "misaligned store"}
	}
	switch w {
	case 1:
		mem[addr] = byte(v)
	case 2:
		mem[addr] = byte(v)
		mem[addr+1] = byte(v >> 8)
	default:
		putWord(mem, addr, v)
	}
	return nil
}

// f32 converts raw bits to float32 and back.
func f32(v uint32) float32     { return math.Float32frombits(v) }
func f32bits(f float32) uint32 { return math.Float32bits(f) }
