package gpusim

// Checkpointing captures the golden (fault-free) run's global-memory state at
// CTA boundaries so that injection runs can fast-forward: for a fault site in
// CTA c, the CTAs before c are bit-identical to the golden run (CTAs execute
// strictly sequentially and share only global memory), so the run can resume
// from the nearest snapshot at or below c instead of re-executing the prefix.
// Snapshots are copy-on-write Device clones — their cost is proportional to
// the inter-snapshot write sets, not the device footprint — and every CTA
// boundary additionally records per-page content hashes, letting a run that
// matches golden state right after the injected CTA stop without executing
// the suffix (see Checkpoints.Converged).

// DefaultCheckpointSnapshots bounds the number of snapshots an auto-strided
// recorder takes, keeping retained snapshot memory proportional to at most
// this many inter-snapshot write sets.
const DefaultCheckpointSnapshots = 16

// AutoCheckpointStride picks a CTA-boundary snapshot stride for a grid of
// numCTAs CTAs: 1 for small grids, otherwise the smallest stride that keeps
// the snapshot count at DefaultCheckpointSnapshots or fewer.
func AutoCheckpointStride(numCTAs int) int {
	if numCTAs <= DefaultCheckpointSnapshots {
		return 1
	}
	return (numCTAs + DefaultCheckpointSnapshots - 1) / DefaultCheckpointSnapshots
}

// Checkpoints is the immutable result of recording a golden run: snapshots at
// strided CTA boundaries plus per-boundary page hashes. It is read-only after
// Finish and safe for concurrent use by campaign workers. Boundary b denotes
// the instant after CTAs [0, b) have executed; boundary 0 is the pristine
// image.
type Checkpoints struct {
	stride  int
	numCTAs int
	// snaps[i] is the frozen device state at boundary i*stride.
	snaps []*Device
	// hashes[b] maps page index -> content hash for every page written
	// during CTAs [0, b); pages absent from the map still hold pristine
	// content. Maps are shared across boundaries with identical write sets.
	hashes []map[int32]uint64
	// mustWrite[b] lists the pages whose content at boundary b differs from
	// their content at the floor checkpoint boundary for CTA b-1 — the pages
	// a run resumed from that checkpoint must have dirtied to have reached
	// golden state at b.
	mustWrite [][]int32
	// pristineHash[p] is the hash of page p in the pristine image.
	pristineHash []uint64
	bytes        int64
}

// Stride is the CTA-boundary distance between snapshots.
func (c *Checkpoints) Stride() int { return c.stride }

// NumCTAs is the grid size the checkpoints were recorded over.
func (c *Checkpoints) NumCTAs() int { return c.numCTAs }

// Count is the number of snapshots retained (including the pristine image).
func (c *Checkpoints) Count() int { return len(c.snaps) }

// Bytes approximates the global-memory bytes retained by the snapshots
// beyond the pristine image (pages privatized by the golden run up to the
// last snapshot, at page granularity).
func (c *Checkpoints) Bytes() int64 { return c.bytes }

// SnapshotFor returns the snapshot with the largest boundary at or below cta,
// and that boundary — the resume point for an injection into cta.
func (c *Checkpoints) SnapshotFor(cta int) (*Device, int) {
	i := c.SnapshotIndex(cta)
	return c.snaps[i], i * c.stride
}

// SnapshotIndex returns the ordinal of the snapshot SnapshotFor(cta) resumes
// from. The campaign scheduler uses it as the affinity key: sites that share
// a snapshot index reset a pooled device on the same-source fast path.
func (c *Checkpoints) SnapshotIndex(cta int) int {
	i := cta / c.stride
	if i >= len(c.snaps) {
		i = len(c.snaps) - 1
	}
	return i
}

// Converged reports whether dev — reset from SnapshotFor(boundary-1) and
// executed through CTA boundary-1 — holds exactly the golden run's global
// memory at boundary. If it does, the remaining CTAs of an injection run are
// bit-identical to golden (determinism; no cross-CTA state besides global
// memory), so the run is Masked without executing them. Page equality is
// judged by 64-bit content hash (see Device.HashPage for the collision
// argument). Must not be called once boundary == NumCTAs: the final state is
// classified against the golden output instead.
//
// Callers must not consult Converged while a persistent fault is live (the
// AfterCTA hook's faultLive flag): memory can match golden at the boundary
// while a stuck lane or barrier ghost still diverges a later CTA, so the
// early exit is only sound once the fault has retired with its thread
// (DESIGN.md §3.8).
func (c *Checkpoints) Converged(dev *Device, boundary int) bool {
	dirty := dev.DirtyPages()
	// Every page that golden changed between the resume checkpoint and this
	// boundary must have been written by the run too — an untouched page
	// still holds checkpoint content, which differs.
	if need := c.mustWrite[boundary]; len(need) > 0 {
		if len(dirty) < len(need) {
			return false
		}
		set := make(map[int32]struct{}, len(dirty))
		for _, p := range dirty {
			set[p] = struct{}{}
		}
		for _, p := range need {
			if _, ok := set[p]; !ok {
				return false
			}
		}
	}
	// Every page the run wrote must hash to golden's content at boundary.
	golden := c.hashes[boundary]
	for _, p := range dirty {
		want, ok := golden[p]
		if !ok {
			want = c.pristineHash[p]
		}
		if dev.HashPage(int(p)) != want {
			return false
		}
	}
	return true
}

// CheckpointRecorder observes a golden run via the Launch.AfterCTA hook and
// builds a Checkpoints store. The recorded device must start as a fresh clone
// of pristine and must never be reset (the recorder harvests its dirty-page
// tracking; see Device.TakeDirtyPages).
type CheckpointRecorder struct {
	dev *Device
	ck  *Checkpoints
	buf []int32
	// cur is the cumulative page->hash map at the last seen boundary.
	cur map[int32]uint64
	// intra, when non-nil, is the coupled intra-CTA recorder: it learns each
	// harvested CTA write set (its page deltas are relative to the last
	// retained boundary snapshot) and is told when a new snapshot is taken.
	intra *WarpCheckpointRecorder
}

// AttachIntra couples an intra-CTA recorder observing the same golden run:
// the boundary recorder forwards harvested write sets so warp snapshots can
// record page deltas relative to the retained boundary snapshots. Call
// before the golden Execute.
func (r *CheckpointRecorder) AttachIntra(w *WarpCheckpointRecorder) {
	r.intra = w
}

// NewCheckpointRecorder prepares recording for a numCTAs-CTA golden run of
// dev, cloned from pristine. stride <= 0 selects AutoCheckpointStride. Wire
// the returned recorder's AfterCTA into the golden Launch, then call Finish
// after a successful Execute.
func NewCheckpointRecorder(pristine, dev *Device, numCTAs, stride int) *CheckpointRecorder {
	if stride <= 0 {
		stride = AutoCheckpointStride(numCTAs)
	}
	ck := &Checkpoints{
		stride:  stride,
		numCTAs: numCTAs,
		snaps:   []*Device{pristine},
		hashes:  make([]map[int32]uint64, numCTAs+1),
	}
	ck.hashes[0] = map[int32]uint64{}
	dev.TakeDirtyPages(nil) // discard host-side init writes, if any
	dev.TakePagesCopied()
	return &CheckpointRecorder{dev: dev, ck: ck, cur: ck.hashes[0]}
}

// AfterCTA implements the Launch.AfterCTA hook: it folds the CTA's write set
// into the cumulative hash map and clones a snapshot at strided boundaries.
// It never stops the launch. faultLive is ignored: recording happens only on
// the fault-free golden run, where no persistent fault can be live. A CTA
// boundary needs no scheduler or barrier ledger beyond the device image —
// CTAs run strictly sequentially, a CTA retires only when every thread has
// exited, and threads of a fresh CTA start with an empty ledger (no parked
// flags, no barrier arrivals, election order fixed by thread order) — so the
// device clone IS the complete resume point (DESIGN.md §3.8).
func (r *CheckpointRecorder) AfterCTA(cta int, faultLive bool) bool {
	b := cta + 1
	r.buf = r.dev.TakeDirtyPages(r.buf)
	if r.intra != nil {
		r.intra.noteBoundaryWrites(r.buf)
	}
	if len(r.buf) > 0 {
		next := make(map[int32]uint64, len(r.cur)+len(r.buf))
		for p, h := range r.cur {
			next[p] = h
		}
		for _, p := range r.buf {
			next[p] = r.dev.HashPage(int(p))
		}
		r.cur = next
	}
	r.ck.hashes[b] = r.cur
	if b < r.ck.numCTAs && b%r.ck.stride == 0 {
		// Pages privatized since the previous snapshot are the bytes this
		// snapshot pins beyond it.
		r.ck.bytes += r.dev.TakePagesCopied() * PageSize
		r.ck.snaps = append(r.ck.snaps, r.dev.Clone())
		if r.intra != nil {
			// Deltas of snapshots captured after this point are relative to
			// the boundary snapshot just retained.
			r.intra.resetBase()
		}
	}
	return false
}

// Finish precomputes the per-boundary convergence obligations and returns
// the immutable store. Call exactly once, after the golden run completed
// without a trap.
func (r *CheckpointRecorder) Finish() *Checkpoints {
	ck := r.ck
	pristine := ck.snaps[0]
	ck.pristineHash = make([]uint64, pristine.NumPages())
	for p := range ck.pristineHash {
		ck.pristineHash[p] = pristine.HashPage(p)
	}
	ck.mustWrite = make([][]int32, ck.numCTAs+1)
	for b := 1; b <= ck.numCTAs; b++ {
		floor := ((b - 1) / ck.stride) * ck.stride
		atFloor, atB := ck.hashes[floor], ck.hashes[b]
		var diff []int32
		for p, h := range atB {
			hf, ok := atFloor[p]
			if !ok {
				hf = ck.pristineHash[p]
			}
			if h != hf {
				diff = append(diff, p)
			}
		}
		ck.mustWrite[b] = diff
	}
	return ck
}
