package gpusim

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/isa"
	"repro/internal/ptx"
)

// goldenProg loops a lane-dependent number of times (8 + tid%8 trips), so
// lockstep warps diverge and reconverge, with two barriers, shared-memory
// traffic, a guarded instruction that is annulled on some iterations, and a
// global store every iteration spread over several pages. Odd threads end
// with a guarded exit that is annulled, so they fall off the end of the
// program instead of exiting.
func goldenProg(t *testing.T) *isa.Program {
	t.Helper()
	prog, err := ptx.Assemble("golden", `
		cvt.u32.u16 $r0, %tid.x
		cvt.u32.u16 $r1, %ctaid.x
		cvt.u32.u16 $r2, %ntid.x
		mad.lo.u32 $r3, $r1, $r2, $r0          // gid
		and.b32 $r4, $r0, 0x00000007
		add.u32 $r4, $r4, 0x00000008           // trips: 8 + tid%8
		mov.u32 $r5, 0
		shl.u32 $r6, $r0, 0x00000002            // shared slot
		shl.u32 $r8, $r3, 0x00000009
		add.u32 $r8, $r8, s[0x0010]            // &out[gid], 512 bytes apart
		loop: add.u32 $r5, $r5, $r3
		set.gt.u32.u32 $p1/$o127, $r5, 0x00000040
		@$p1.ne add.u32 $r5, $r5, 0x00000007
		st.shared.u32 s[$r6+0x0100], $r5
		bar.sync 0x00000000
		ld.shared.u32 $r7, s[0x0100]
		add.u32 $r5, $r5, $r7
		st.global.u32 [$r8], $r5
		bar.sync 0x00000000
		sub.u32 $r4, $r4, 0x00000001
		set.ne.u32.u32 $p0/$o127, $r4, 0
		@$p0.ne bra loop
		and.b32 $r9, $r0, 0x00000001
		set.eq.u32.u32 $p2/$o127, $r9, 0
		@$p2.ne exit
	`)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// goldenRecording is everything a golden run leaves behind for the pruning
// and injection layers: the profile trace, the CTA-boundary checkpoint store,
// the intra-CTA snapshot store, and the final memory image.
type goldenRecording struct {
	res   *Result
	trace *ProfileTrace
	ck    *Checkpoints
	wck   *WarpCheckpoints
	mem   []byte
}

// goldenCase is one golden-run geometry. A nonzero watchdog is set low
// enough to trip, pinning the order of a capture and a watchdog trap that
// fall due on the same step.
type goldenCase struct {
	grid, block, stride int
	watchdog            int64
}

// recordGolden runs prog's golden run the way fault.Target.Prepare does:
// traced, with a CTA-boundary recorder coupled to an intra-CTA recorder.
func recordGolden(t *testing.T, prog *isa.Program, c goldenCase, warp int, interpret bool) goldenRecording {
	t.Helper()
	init := NewDevice(c.grid * c.block * 512)
	dev := init.Clone()
	l := &Launch{
		Prog:      prog,
		Grid:      Dim3{X: c.grid, Y: 1, Z: 1},
		Block:     Dim3{X: c.block, Y: 1, Z: 1},
		Params:    []uint32{0},
		Watchdog:  c.watchdog,
		WarpSize:  warp,
		Interpret: interpret,
		Tracer:    NewProfileTrace(c.grid * c.block),
	}
	rec := NewCheckpointRecorder(init, dev, c.grid, 1)
	wrec := NewWarpCheckpointRecorder(dev, c.grid, c.stride)
	rec.AttachIntra(wrec)
	l.AfterCTA = rec.AfterCTA
	l.IntraRec = wrec
	res, err := Execute(dev, l)
	if err != nil {
		t.Fatal(err)
	}
	if (res.Trap != nil) != (c.watchdog != 0) {
		t.Fatalf("golden run trap %v with watchdog %d", res.Trap, c.watchdog)
	}
	return goldenRecording{res: res, trace: l.Tracer, ck: rec.Finish(), wck: wrec.Finish(), mem: dev.Bytes()}
}

// diffGolden reports the first field on which two golden recordings differ.
func diffGolden(ref, got goldenRecording) error {
	if !reflect.DeepEqual(ref.res, got.res) {
		return fmt.Errorf("result: %+v vs %+v", ref.res, got.res)
	}
	if !reflect.DeepEqual(ref.trace.PCs, got.trace.PCs) {
		return fmt.Errorf("profile trace differs")
	}
	if !bytes.Equal(ref.mem, got.mem) {
		return fmt.Errorf("final memory differs")
	}
	a, b := ref.ck, got.ck
	if a.stride != b.stride || a.bytes != b.bytes || len(a.snaps) != len(b.snaps) {
		return fmt.Errorf("checkpoints: stride %d/%d bytes %d/%d snapshots %d/%d",
			a.stride, b.stride, a.bytes, b.bytes, len(a.snaps), len(b.snaps))
	}
	for i := range a.snaps {
		if !bytes.Equal(a.snaps[i].Bytes(), b.snaps[i].Bytes()) {
			return fmt.Errorf("checkpoint snapshot %d differs", i)
		}
	}
	if !reflect.DeepEqual(a.hashes, b.hashes) || !slices.Equal(a.pristineHash, b.pristineHash) {
		return fmt.Errorf("checkpoint page hashes differ")
	}
	for i := range a.mustWrite {
		x, y := slices.Clone(a.mustWrite[i]), slices.Clone(b.mustWrite[i])
		slices.Sort(x)
		slices.Sort(y)
		if !slices.Equal(x, y) {
			return fmt.Errorf("boundary %d obligations %v vs %v", i, x, y)
		}
	}
	w, v := ref.wck, got.wck
	if w.stride != v.stride || w.count != v.count || w.bytes != v.bytes || len(w.perCTA) != len(v.perCTA) {
		return fmt.Errorf("warp checkpoints: stride %d/%d count %d/%d bytes %d/%d",
			w.stride, v.stride, w.count, v.count, w.bytes, v.bytes)
	}
	for c := range w.perCTA {
		if len(w.perCTA[c]) != len(v.perCTA[c]) {
			return fmt.Errorf("CTA %d: %d vs %d warp snapshots", c, len(w.perCTA[c]), len(v.perCTA[c]))
		}
		for i, x := range w.perCTA[c] {
			y := v.perCTA[c][i]
			switch {
			case x.cta != y.cta || x.retired != y.retired:
				return fmt.Errorf("CTA %d snapshot %d: cta %d/%d retired %d/%d", c, i, x.cta, y.cta, x.retired, y.retired)
			case !slices.Equal(x.dynAt, y.dynAt):
				return fmt.Errorf("CTA %d snapshot %d: dynAt %v vs %v", c, i, x.dynAt, y.dynAt)
			case !slices.Equal(x.threads, y.threads):
				return fmt.Errorf("CTA %d snapshot %d: thread states differ", c, i)
			case !bytes.Equal(x.shared, y.shared):
				return fmt.Errorf("CTA %d snapshot %d: shared memory differs", c, i)
			case !slices.Equal(x.pageIdx, y.pageIdx) || !reflect.DeepEqual(x.pageDat, y.pageDat):
				return fmt.Errorf("CTA %d snapshot %d: page delta differs", c, i)
			}
		}
	}
	return nil
}

// TestGoldenRunStoreIdentity: the golden run's recordings do not depend on
// the tier that produced them. A compiled launch (fast tiers, which append
// the trace per straight run and stop at capture points by budget) must leave
// exactly the profile trace, CTA-boundary checkpoints and intra-CTA
// snapshots that Launch.Interpret leaves, stepping every instruction on the
// careful tier — under both schedulers, with the auto capture stride and
// with tiny explicit strides that put capture points inside straight runs,
// inside lockstep batches and on barriers.
func TestGoldenRunStoreIdentity(t *testing.T) {
	prog := goldenProg(t)
	cases := []goldenCase{
		{grid: 2, block: 4, stride: 1},
		{grid: 3, block: 8, stride: 7},
		{grid: 2, block: 12, stride: 5},
		{grid: 2, block: 64}, // auto: ~9K retired instructions per CTA, past the 4096 start stride
		{grid: 1, block: 4, stride: 1, watchdog: 40},
	}
	for _, c := range cases {
		for _, warp := range []int{0, 4, 32} {
			t.Run(fmt.Sprintf("grid%d_block%d_stride%d_watchdog%d_warp%d", c.grid, c.block, c.stride, c.watchdog, warp), func(t *testing.T) {
				ref := recordGolden(t, prog, c, warp, true)
				got := recordGolden(t, prog, c, warp, false)
				if ref.wck.Count() == 0 {
					t.Fatal("reference recorded no intra-CTA snapshots; the case exercises nothing")
				}
				if err := diffGolden(ref, got); err != nil {
					t.Fatalf("compiled golden run diverges from the interpreted one: %v", err)
				}
			})
		}
	}
}

// TestTracedTrapsMatchInterpreter pins the fast tiers' trace bookkeeping on
// the paths that cut a straight run short: a guard that traps (an invalid
// condition code, on a sequential instruction and on a branch), an
// operation that traps in a later lane than the first (lane 0 already ran
// it), and a watchdog trip. Each is traced on both schedulers and compared
// with the interpreter's trace, trap and state.
func TestTracedTrapsMatchInterpreter(t *testing.T) {
	badGuard := func(src string, pc int) func(t *testing.T) *isa.Program {
		return func(t *testing.T) *isa.Program {
			prog := ptx.MustAssemble("trap", src)
			prog.Instrs[pc].Guard.Cond = isa.CmpOp(99)
			return prog
		}
	}
	cases := []struct {
		name string
		prog func(t *testing.T) *isa.Program
	}{
		{"guard trap in straight run", badGuard(`
			mov.u32 $r1, 1
			add.u32 $r2, $r1, 2
			@$p0.eq add.u32 $r3, $r2, 3
			add.u32 $r4, $r3, 4
			exit
		`, 2)},
		{"guard trap on branch", badGuard(`
			mov.u32 $r1, 1
			@$p0.eq bra lend
			lend: exit
		`, 1)},
		{"operation trap in lane 1", func(t *testing.T) *isa.Program {
			return ptx.MustAssemble("trap", `
				cvt.u32.u16 $r0, %tid.x
				set.gt.u32.u32 $p0/$o127, $r0, 0x00000001
				@$p0.ne mov.u32 $r5, 5
				shl.u32 $r1, $r0, 0x0000000c
				ld.global.u32 $r2, [$r1]
				add.u32 $r3, $r2, 1
				exit
			`)
		}},
		{"watchdog in straight run", func(t *testing.T) *isa.Program {
			return ptx.MustAssemble("trap", `
				loop: add.u32 $r1, $r1, 1
				@$p0.ne add.u32 $r2, $r2, 1
				add.u32 $r3, $r3, 1
				bra loop
			`)
		}},
	}
	for _, c := range cases {
		prog := c.prog(t)
		for _, warp := range []int{0, 4} {
			ref := diffRun(t, prog, warp, nil, true, true)
			if ref.trap == nil {
				t.Fatalf("%s: reference run did not trap", c.name)
			}
			if !diffCheck(t, prog, warp, nil, true) {
				t.Fatalf("%s warp %d: compiled run diverges", c.name, warp)
			}
		}
	}
}
