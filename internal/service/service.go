// Package service implements the campaign service behind the fsserve
// daemon: a long-lived, multi-tenant front end to the injection-campaign
// engine. Submissions (kernel, scale, seed, fault-model shape, shard) are
// validated with the same rules as the fsprune CLI, fingerprinted with the
// journal's campaign fingerprint, and deduplicated — two identical
// submissions share one engine run, like PreparedCache singleflights golden
// runs. Admitted campaigns execute on a bounded worker pool behind a
// bounded admission queue (overflow is rejected, HTTP 429); each campaign
// writes its write-ahead journal under the server's data directory, so a
// crashed or restarted daemon recovers every incomplete campaign from disk
// and resumes it through the engine's replay path, bit-identical to an
// uninterrupted run.
//
// The HTTP surface (Server.Handler): POST /campaigns submits, GET
// /campaigns/{id} reports live status with an incremental outcome profile
// read from the open journal, GET /campaigns/{id}/report serves the final
// deterministic report document (byte-identical to fsmerge's for the same
// journal), GET /healthz probes liveness, and GET /stats exposes the worker
// pool, the shared prepared-target cache, and per-campaign engine stats.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/kernels"
)

// Submission describes one campaign request: the same knobs fsprune's
// campaign action takes on its command line. The zero value of every
// optional field selects the fsprune default, so a submission that names
// only a kernel is valid.
type Submission struct {
	// Kernel is the target kernel name ("GEMM K1"); see fsprune -list.
	Kernel string `json:"kernel"`
	// Scale is the kernel geometry, "small" (default) or "paper".
	Scale string `json:"scale,omitempty"`
	// Seed is the site-sampling seed; 0 selects the fsprune default (1).
	Seed int64 `json:"seed,omitempty"`
	// Sites is the campaign size (uniform random sites); 0 selects the
	// fsprune default (3000).
	Sites int `json:"sites,omitempty"`
	// Model is the fault model name (fault.ParseModel); "" selects the
	// paper baseline, dest-value.
	Model string `json:"model,omitempty"`
	// Warp is the SIMT lockstep width (0 = serial interleaving).
	Warp int `json:"warp,omitempty"`
	// FullRun disables checkpointed fast-forward (the reference engine).
	FullRun bool `json:"full_run,omitempty"`
	// CkptStride is the CTA-boundary checkpoint stride (0 = auto).
	CkptStride int `json:"ckpt_stride,omitempty"`
	// IntraStride is the intra-CTA snapshot stride (0 = auto, <0 = off).
	IntraStride int `json:"intra_stride,omitempty"`
	// ShardIndex/ShardCount restrict the campaign to one deterministic
	// shard; ShardCount 0 means unsharded.
	ShardIndex int `json:"shard_index,omitempty"`
	ShardCount int `json:"shard_count,omitempty"`
}

// Submission defaults, mirroring fsprune's flag defaults.
const (
	DefaultSeed  = 1
	DefaultSites = 3000
)

// MaxSites caps a submission's campaign size at admission. A campaign
// holds its site list, per-site outcomes and journal in memory and on disk,
// so one request must not be able to ask for an unbounded amount of either;
// the cap sits far above any campaign the paper's methodology needs (its
// baselines run 60K sites per kernel). Journals recovered on restart are
// not re-checked: they were admitted when written.
const MaxSites = 1 << 20

// normalize validates the submission against the same usage rules fsprune
// enforces on its flags and fills in defaults. The returned submission is
// canonical: equal campaigns normalize to equal values, which is what the
// fingerprint-based dedup keys on.
func (s Submission) normalize() (Submission, error) {
	if _, ok := kernels.ByName(s.Kernel); !ok {
		return s, fmt.Errorf("unknown kernel %q", s.Kernel)
	}
	switch s.Scale {
	case "":
		s.Scale = kernels.ScaleSmall.String()
	case kernels.ScaleSmall.String(), kernels.ScalePaper.String():
	default:
		return s, fmt.Errorf("unknown scale %q (want %q or %q)",
			s.Scale, kernels.ScaleSmall, kernels.ScalePaper)
	}
	if s.Model == "" {
		s.Model = fault.ModelDestValue.String()
	}
	if _, err := fault.ParseModel(s.Model); err != nil {
		return s, err
	}
	if s.Seed == 0 {
		s.Seed = DefaultSeed
	}
	if s.Sites == 0 {
		s.Sites = DefaultSites
	}
	if s.Sites < 0 {
		return s, fmt.Errorf("sites must be > 0, got %d", s.Sites)
	}
	if s.Warp < 0 {
		return s, fmt.Errorf("warp must be >= 0 (0 = serial interleaving), got %d", s.Warp)
	}
	if s.CkptStride < 0 {
		return s, fmt.Errorf("ckpt_stride must be >= 0 (0 = auto), got %d", s.CkptStride)
	}
	if s.FullRun && s.CkptStride != 0 {
		return s, fmt.Errorf("full_run disables checkpointing; it cannot be combined with ckpt_stride %d", s.CkptStride)
	}
	if s.FullRun && s.IntraStride != 0 {
		return s, fmt.Errorf("full_run disables checkpointing; it cannot be combined with intra_stride %d", s.IntraStride)
	}
	if s.ShardCount == 0 && s.ShardIndex != 0 {
		return s, fmt.Errorf("shard_index %d requires a shard_count", s.ShardIndex)
	}
	sh := s.shard()
	if sh.Count < 1 || sh.Index < 0 || sh.Index >= sh.Count {
		return s, fmt.Errorf("invalid shard %d/%d (want 0 <= index < count)", s.ShardIndex, s.ShardCount)
	}
	s.ShardIndex, s.ShardCount = sh.Index, sh.Count
	return s, nil
}

// model maps the validated model name to the fault constant. Only valid on
// a normalized submission.
func (s Submission) model() fault.Model {
	m, err := fault.ParseModel(s.Model)
	if err != nil {
		panic(fmt.Sprintf("service: model %q survived normalize: %v", s.Model, err))
	}
	return m
}

// shard returns the submission's shard in the engine's normalized form.
func (s Submission) shard() fault.Shard {
	if s.ShardCount == 0 {
		return fault.Shard{Index: 0, Count: 1}
	}
	return fault.Shard{Index: s.ShardIndex, Count: s.ShardCount}
}

// scale maps the validated scale name to the kernels constant.
func (s Submission) scale() kernels.Scale {
	if s.Scale == kernels.ScalePaper.String() {
		return kernels.ScalePaper
	}
	return kernels.ScaleSmall
}

// ownedSites is the number of campaign sites this submission's shard
// executes — the completion target of its journal. A shard owns the
// schedule positions p with p%Count == Index, so its share of Sites
// positions is ceil((Sites-Index)/Count).
func (s Submission) ownedSites() int {
	sh := s.shard()
	if s.Sites <= sh.Index {
		return 0
	}
	return (s.Sites - sh.Index + sh.Count - 1) / sh.Count
}

// fingerprint derives the journal campaign fingerprint of a normalized
// submission. It must agree exactly with what the campaign runner's target
// produces via Target.JournalFingerprint — fault.Run cross-checks the two
// when the journal is attached, so drift fails loudly rather than
// resuming the wrong campaign.
func (s Submission) fingerprint() journal.Fingerprint {
	sh := s.shard()
	return journal.Fingerprint{
		Kernel:      s.Kernel,
		Scale:       s.Scale,
		Seed:        s.Seed,
		Model:       s.Model,
		Warp:        s.Warp,
		Stride:      s.CkptStride,
		IntraStride: s.IntraStride,
		FullRun:     s.FullRun,
		Sites:       s.Sites,
		ShardIndex:  sh.Index,
		ShardCount:  sh.Count,
	}
}

// submissionFromFingerprint reconstructs the submission a recovered journal
// was created for — every field of the fingerprint maps back onto one
// submission knob. It fails on journals from other tooling (a fault model
// this build does not implement) or for kernels it does not register.
func submissionFromFingerprint(fp journal.Fingerprint) (Submission, error) {
	if _, err := fault.ParseModel(fp.Model); err != nil {
		return Submission{}, fmt.Errorf("journal was recorded under a fault model this build cannot run: %w", err)
	}
	sub := Submission{
		Kernel:      fp.Kernel,
		Model:       fp.Model,
		Scale:       fp.Scale,
		Seed:        fp.Seed,
		Sites:       fp.Sites,
		Warp:        fp.Warp,
		FullRun:     fp.FullRun,
		CkptStride:  fp.Stride,
		IntraStride: fp.IntraStride,
		ShardIndex:  fp.ShardIndex,
		ShardCount:  fp.ShardCount,
	}
	sub, err := sub.normalize()
	if err != nil {
		return Submission{}, err
	}
	if got := sub.fingerprint(); got != fp {
		return Submission{}, fmt.Errorf("fingerprint does not round-trip (%s)", fp.Diff(got))
	}
	return sub, nil
}

// campaignID derives the stable campaign identity from the fingerprint: the
// dedup key, the status URL, and (suffixed .journal) the journal filename.
// Deterministic across restarts so a recovered journal resumes under the
// same id it was submitted with.
func campaignID(fp journal.Fingerprint) string {
	payload, err := json.Marshal(fp)
	if err != nil {
		// Fingerprint is a plain struct of scalars; Marshal cannot fail.
		panic(fmt.Sprintf("service: marshal fingerprint: %v", err))
	}
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:8])
}
