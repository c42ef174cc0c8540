package gpusim

import "sync"

// arena is Execute's private execution state: the thread-state slab, the
// shared-memory buffer, the CTA view over both, and the exec struct with its
// warp scratch. It is reused across the CTAs of a launch and, through
// arenaPool, across launches, so an injection run builds CTAs without
// allocating. Ownership rules (DESIGN.md §3.1):
//
//   - Execute takes an arena from arenaPool on entry and returns it on exit.
//     Nothing else holds one; in particular no Device does, so long-lived
//     golden and checkpoint images never pin execution scratch.
//   - No pointer into the arena outlives its owner: thread states and shared
//     memory are rebuilt for every CTA, so nothing may keep a *threadState
//     past its CTA, and the exec/ctaState views die with the launch.
//   - Result.ThreadICnt is never arena memory: it belongs to the caller.
type arena struct {
	e   exec
	cta ctaState
	// slab holds the CTA's thread states; threads[i] == &slab[i] is the
	// pointer view the schedulers iterate. len(slab) == cap(slab).
	slab    []threadState
	threads []*threadState
	shared  []byte
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// reserve sizes the arena for CTAs of n threads and sharedBytes of shared
// memory and returns the CTA view. Thread and shared state are left stale:
// every CTA overwrites both before it runs.
func (a *arena) reserve(n, sharedBytes int) *ctaState {
	if len(a.slab) < n {
		a.slab = make([]threadState, n)
		a.threads = make([]*threadState, n)
		for i := range a.slab {
			a.threads[i] = &a.slab[i]
		}
	}
	if cap(a.shared) < sharedBytes {
		a.shared = make([]byte, sharedBytes)
	}
	a.cta = ctaState{threads: a.threads[:n], shared: a.shared[:sharedBytes]}
	return &a.cta
}

// release drops every reference the launch left in the arena — so a pooled
// arena pins no device, program or recorder — and returns it to the pool.
func (a *arena) release() {
	if r := a.e.intra; r != nil {
		r.cur = nil
	}
	a.e = exec{warpActive: a.e.warpActive[:0]}
	arenaPool.Put(a)
}
