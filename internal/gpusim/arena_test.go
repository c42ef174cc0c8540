package gpusim_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/isa"
	"repro/internal/ptx"
)

// probeProg reads state a fresh CTA must see as zero — a shared-memory slot
// and a register — before dirtying both and parking at a barrier, so any
// thread or shared state leaking from an earlier CTA or launch through
// Execute's reused arena shows up in global memory. Each
// thread stores stale + thread 0's shared value + gid to out[gid].
func probeProg(t *testing.T) *isa.Program {
	t.Helper()
	prog, err := ptx.Assemble("probe", `
		cvt.u32.u16 $r0, %tid.x
		cvt.u32.u16 $r1, %tid.y
		cvt.u32.u16 $r2, %ntid.x
		cvt.u32.u16 $r3, %ntid.y
		mad.lo.u32 $r0, $r1, $r2, $r0        // CTA-local thread id
		mul.lo.u32 $r2, $r2, $r3             // threads per CTA
		cvt.u32.u16 $r1, %ctaid.x
		mad.lo.u32 $r3, $r1, $r2, $r0        // gid
		shl.u32 $r4, $r0, 0x00000002
		ld.shared.u32 $r6, s[$r4+0x0100]     // stale shared memory: must be 0
		add.u32 $r6, $r6, $r9                // stale register: must be 0
		add.u32 $r7, $r3, 0x00000001
		st.shared.u32 s[$r4+0x0100], $r7
		bar.sync 0x00000000
		ld.shared.u32 $r8, s[0x0100]
		add.u32 $r6, $r6, $r8
		add.u32 $r6, $r6, $r3
		shl.u32 $r5, $r3, 0x00000002
		add.u32 $r5, $r5, s[0x0010]
		st.global.u32 [$r5], $r6
		add.u32 $r9, $r3, 0x00000001         // dirty $r9 for the next CTA
		exit
	`)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// probeLdShared is the dynamic index of probeProg's stale-shared load: an
// InjectMemAddr there sends it out of range while earlier threads of the
// CTA are parked at the barrier.
const probeLdShared = 9

// arenaCase builds one launch on a fresh device. want, when non-nil, is
// the expected output, word by word from address 0; traps marks a launch
// that must trap mid-CTA.
type arenaCase struct {
	name  string
	setup func() (*gpusim.Device, *gpusim.Launch)
	want  []uint32
	traps bool
}

// arenaRun is everything a launch leaves observable.
type arenaRun struct {
	res *gpusim.Result
	mem []byte
}

func runArenaCase(t *testing.T, c arenaCase) arenaRun {
	t.Helper()
	dev, l := c.setup()
	res, err := gpusim.Execute(dev, l)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	return arenaRun{res: res, mem: dev.Bytes()}
}

// arenaCases spans the dimensions a pooled arena must be resized or fully
// reset across: block size and shape, SharedBytes, both schedulers, both
// execution paths, intra-CTA resumes, early stops, and traps that abandon
// a CTA mid-flight with parked threads and dirty shared memory.
func arenaCases(t *testing.T) []arenaCase {
	probe := probeProg(t)
	probeCase := func(name string, grid int, block gpusim.Dim3, shared, warp int, interpret bool, inj *gpusim.Injection, stopAt int) arenaCase {
		var want []uint32
		if inj == nil && stopAt < 0 {
			// Fault-free: out[gid] = gid + thread 0's gid + 1.
			tpc := block.Count()
			for gid := 0; gid < grid*tpc; gid++ {
				want = append(want, uint32(gid+gid/tpc*tpc+1))
			}
		}
		return arenaCase{name: name, want: want, traps: inj != nil, setup: func() (*gpusim.Device, *gpusim.Launch) {
			l := &gpusim.Launch{
				Prog:        probe,
				Grid:        gpusim.Dim3{X: grid, Y: 1, Z: 1},
				Block:       block,
				Params:      []uint32{0},
				SharedBytes: shared,
				WarpSize:    warp,
				Interpret:   interpret,
				Inject:      inj,
			}
			if stopAt >= 0 {
				l.AfterCTA = func(cta int, _ bool) bool { return cta == stopAt }
			}
			return gpusim.NewDevice(gpusim.PageSize), l
		}}
	}
	trap := func(thread int) *gpusim.Injection {
		return &gpusim.Injection{Thread: thread, DynInst: probeLdShared, Bit: 20, Kind: gpusim.InjectMemAddr}
	}
	cases := []arenaCase{
		probeCase("probe b4 serial", 6, gpusim.Dim3{X: 4, Y: 1, Z: 1}, 0, 0, false, nil, -1),
		probeCase("probe b8 warp32 shared1K", 3, gpusim.Dim3{X: 8, Y: 1, Z: 1}, 1024, 32, false, nil, -1),
		probeCase("probe b3x2 interp shared512", 4, gpusim.Dim3{X: 3, Y: 2, Z: 1}, 512, 0, true, nil, -1),
		probeCase("probe b2 warp32 interp", 5, gpusim.Dim3{X: 2, Y: 1, Z: 1}, 0, 32, true, nil, -1),
		probeCase("probe b4 early stop", 6, gpusim.Dim3{X: 4, Y: 1, Z: 1}, 0, 0, false, nil, 2),
		probeCase("probe b4 trap mid-CTA", 6, gpusim.Dim3{X: 4, Y: 1, Z: 1}, 0, 0, false, trap(6), -1),
		probeCase("probe b8 warp32 trap mid-CTA", 3, gpusim.Dim3{X: 8, Y: 1, Z: 1}, 1024, 32, false, trap(10), -1),
		probeCase("probe b3x2 interp trap mid-CTA", 4, gpusim.Dim3{X: 3, Y: 2, Z: 1}, 512, 0, true, trap(8), -1),
	}

	// Intra-CTA resumes of the chain kernel, one golden recording per
	// scheduler: every retained snapshot of two CTAs.
	chain, init := chainSetup(t)
	for _, warp := range []int{0, 32} {
		golden := init.Clone()
		rec := gpusim.NewCheckpointRecorder(init, golden, 6, 1)
		wrec := gpusim.NewWarpCheckpointRecorder(golden, 6, 2)
		rec.AttachIntra(wrec)
		l := chainLaunch(chain)
		l.WarpSize = warp
		l.AfterCTA = rec.AfterCTA
		l.IntraRec = wrec
		if _, err := gpusim.Execute(golden, l); err != nil {
			t.Fatal(err)
		}
		ck, wck := rec.Finish(), wrec.Finish()
		for _, cta := range []int{1, 4} {
			if wck.PerCTA(cta) == 0 {
				t.Fatalf("warp %d: no snapshots in CTA %d", warp, cta)
			}
			for ord := 0; ord < wck.PerCTA(cta); ord++ {
				ws := wck.Snapshot(cta, ord)
				snap, _ := ck.SnapshotFor(cta)
				cases = append(cases, arenaCase{name: fmt.Sprintf("chain warp%d resume %d/%d", warp, cta, ord),
					setup: func() (*gpusim.Device, *gpusim.Launch) {
						dev := init.Clone()
						dev.ResetFrom(snap)
						ws.RestorePages(dev)
						rl := chainLaunch(chain)
						rl.WarpSize = warp
						rl.FirstCTA = cta
						rl.Resume = ws
						return dev, rl
					}})
			}
		}
	}
	return cases
}

// TestArenaReuseDifferential: Execute's pooled arena carries nothing from
// one CTA or launch into the next. Every launch is first run alone on a
// fresh arena; then all launches are interleaved on one goroutine — so
// each reuses the arena the previous one left behind, including arenas
// abandoned mid-CTA by a trap — and must reproduce the same Result and
// device memory bit for bit.
func TestArenaReuseDifferential(t *testing.T) {
	cases := arenaCases(t)
	want := make([]arenaRun, len(cases))
	for i, c := range cases {
		// Two collections empty sync.Pool, so this run builds a fresh arena.
		runtime.GC()
		runtime.GC()
		want[i] = runArenaCase(t, c)
	}
	for i, c := range cases {
		if tr := want[i].res.Trap; (tr != nil) != c.traps {
			t.Fatalf("%s: trap %v", c.name, tr)
		}
		if c.want == nil {
			continue
		}
		// A fresh arena still carries state from CTA to CTA of one launch;
		// the probe's known output pins that no stale value leaks there.
		dev := gpusim.NewDevice(len(want[i].mem))
		dev.WriteBytes(0, want[i].mem)
		if got := dev.ReadWords(0, len(c.want)); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("%s: out = %v, want %v", c.name, got, c.want)
		}
	}
	for round := 0; round < 3; round++ {
		for _, i := range rand.New(rand.NewSource(int64(round))).Perm(len(cases)) {
			got := runArenaCase(t, cases[i])
			if !reflect.DeepEqual(got.res, want[i].res) {
				t.Fatalf("round %d %s: Result %+v (trap %v), fresh arena gave %+v (trap %v)",
					round, cases[i].name, got.res, got.res.Trap, want[i].res, want[i].res.Trap)
			}
			if !bytes.Equal(got.mem, want[i].mem) {
				t.Fatalf("round %d %s: device memory differs from the fresh-arena run", round, cases[i].name)
			}
		}
	}
}

// TestAfterCTAFaultLiveAcrossSlabReuse: a persistent fault's liveness ends
// at its thread's CTA boundary and stays ended while later CTAs reuse the
// arena's thread slab — the slot that held the faulty thread then holds a
// different, running thread, which must not revive the fault.
func TestAfterCTAFaultLiveAcrossSlabReuse(t *testing.T) {
	probe := probeProg(t)
	kinds := []struct {
		name string
		kind gpusim.InjectKind
		bit  int
	}{
		{"stuck pred", gpusim.InjectStuckPred, 3},
		{"stuck active mask 1", gpusim.InjectStuckActiveMask, 1},
		{"stuck barrier 1", gpusim.InjectStuckBarrier, 1},
	}
	const faultCTA, nCTA, tpc = 2, 6, 4
	for _, k := range kinds {
		for _, warp := range []int{0, 32} {
			for _, interpret := range []bool{false, true} {
				var live []bool
				l := &gpusim.Launch{
					Prog:      probe,
					Grid:      gpusim.Dim3{X: nCTA, Y: 1, Z: 1},
					Block:     gpusim.Dim3{X: tpc, Y: 1, Z: 1},
					Params:    []uint32{0},
					WarpSize:  warp,
					Interpret: interpret,
					Inject:    &gpusim.Injection{Thread: faultCTA*tpc + 1, DynInst: 2, Bit: k.bit, Kind: k.kind},
					AfterCTA: func(cta int, faultLive bool) bool {
						live = append(live, faultLive)
						return false
					},
				}
				res, err := gpusim.Execute(gpusim.NewDevice(gpusim.PageSize), l)
				if err != nil {
					t.Fatal(err)
				}
				if res.Trap != nil {
					t.Fatalf("%s warp %d interpret %v: trap %v", k.name, warp, interpret, res.Trap)
				}
				if len(live) != nCTA {
					t.Fatalf("%s: %d boundaries, want %d", k.name, len(live), nCTA)
				}
				for cta, got := range live {
					if want := cta < faultCTA; got != want {
						t.Fatalf("%s warp %d interpret %v: faultLive after CTA %d = %v, want %v (%v)",
							k.name, warp, interpret, cta, got, want, live)
					}
				}
			}
		}
	}
}
