package fault

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/gpusim"
	"repro/internal/isa"
	"repro/internal/stats"
)

// Model selects the fault model for an injection experiment. The paper's
// methodology uses ModelDestValue (single bit flip in the destination
// register, Section II-C); the extended models reproduce the additional
// SASSIFI-style modes discussed in the paper's related work and are used by
// the model-comparison experiment.
type Model uint8

// Fault models.
const (
	// ModelDestValue is the paper's baseline single-bit flip.
	ModelDestValue Model = iota
	// ModelDestDouble flips two adjacent destination bits — the
	// double-bit error a SEC-DED code detects but cannot correct.
	ModelDestDouble
	// ModelMemAddr flips one bit of the effective address computed by a
	// memory instruction (an LSU address-path fault).
	ModelMemAddr
	// ModelDestByte flips the whole destination byte containing the site
	// bit — the spatially contiguous multi-bit pattern of the SDC-anatomy
	// literature.
	ModelDestByte
	// ModelLaneCorrelated flips the site bit of the destination register in
	// every thread of the injected thread's lane group — the same-bit-
	// across-lanes pattern of a datapath fault shared by a SIMT lane group.
	ModelLaneCorrelated
	// ModelStuckPred holds one predicate-register flag bit of the injected
	// thread at a stuck value from the site's dynamic instruction to the
	// end of the run. Site.Bit packs (stuck value, predicate register,
	// flag bit); see StuckBits.
	ModelStuckPred
	// ModelStuckActiveMask holds the injected thread's active-mask lane at
	// the stuck value Site.Bit&1: stuck at 0 freezes the lane, stuck at 1
	// keeps it active through barriers.
	ModelStuckActiveMask
	// ModelStuckBarrier holds the injected thread's barrier-arrival state
	// at the stuck value Site.Bit&1: stuck at 1 releases barriers without
	// it, stuck at 0 deadlocks any barrier that includes it.
	ModelStuckBarrier
	NumModels
)

// String names the model. The names are the CLI -model vocabulary and the
// journal fingerprint's model field.
func (m Model) String() string {
	switch m {
	case ModelDestDouble:
		return "dest-double"
	case ModelMemAddr:
		return "mem-addr"
	case ModelDestByte:
		return "dest-byte"
	case ModelLaneCorrelated:
		return "lane-correlated"
	case ModelStuckPred:
		return "stuck-pred"
	case ModelStuckActiveMask:
		return "stuck-active-mask"
	case ModelStuckBarrier:
		return "stuck-barrier"
	}
	return "dest-value"
}

// ModelNames lists every model name, comma-separated — for usage errors.
func ModelNames() string {
	var b strings.Builder
	for m := Model(0); m < NumModels; m++ {
		if m > 0 {
			b.WriteString(", ")
		}
		b.WriteString(m.String())
	}
	return b.String()
}

// ParseModel maps a CLI/JSON model name back to the Model constant.
func ParseModel(s string) (Model, error) {
	for m := Model(0); m < NumModels; m++ {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown fault model %q (known: %s)", s, ModelNames())
}

// Persistent reports whether the model is a stuck-at fault that persists
// from its activation site to the end of the run.
func (m Model) Persistent() bool {
	switch m {
	case ModelStuckPred, ModelStuckActiveMask, ModelStuckBarrier:
		return true
	}
	return false
}

// StuckBits is the size of a persistent model's Site.Bit encoding space (0
// for transient models): stuck value × location. ModelStuckPred enumerates
// both stuck values of every flag bit of every predicate register; the
// mask and barrier models only their two stuck values.
func (m Model) StuckBits() int {
	switch m {
	case ModelStuckPred:
		return 2 * isa.NumPreds * isa.PredBits
	case ModelStuckActiveMask, ModelStuckBarrier:
		return 2
	}
	return 0
}

// kind maps the model to the simulator's injection kind.
func (m Model) kind() gpusim.InjectKind {
	switch m {
	case ModelDestDouble:
		return gpusim.InjectDestDouble
	case ModelMemAddr:
		return gpusim.InjectMemAddr
	case ModelDestByte:
		return gpusim.InjectDestByte
	case ModelLaneCorrelated:
		return gpusim.InjectLaneCorrelated
	case ModelStuckPred:
		return gpusim.InjectStuckPred
	case ModelStuckActiveMask:
		return gpusim.InjectStuckActiveMask
	case ModelStuckBarrier:
		return gpusim.InjectStuckBarrier
	}
	return gpusim.InjectDestValue
}

// ErrNotAMemSite reports a ModelMemAddr injection at a dynamic instruction
// that computes no memory address.
var ErrNotAMemSite = errors.New("fault: dynamic instruction has no memory operand")

// touchesMemory reports whether an instruction computes an effective
// address (any memory operand, source or destination).
func touchesMemory(in *isa.Instruction) bool {
	if in.Dst.Kind == isa.OpdMem {
		return true
	}
	for _, s := range in.Srcs {
		if s.Kind == isa.OpdMem {
			return true
		}
	}
	return false
}

// validateSiteModel checks a site against the requirements of the model.
func (t *Target) validateSiteModel(site Site, model Model) error {
	if model == ModelDestValue {
		return t.validateSite(site)
	}
	if t.profile == nil {
		return errors.New("fault: RunSiteModel before Prepare")
	}
	if site.Thread < 0 || site.Thread >= len(t.profile.Threads) {
		return fmt.Errorf("fault: thread %d out of range", site.Thread)
	}
	tp := &t.profile.Threads[site.Thread]
	if site.DynInst < 0 || site.DynInst >= tp.ICnt {
		return fmt.Errorf("fault: dyn inst %d out of range for thread %d", site.DynInst, site.Thread)
	}
	switch model {
	case ModelDestDouble, ModelDestByte, ModelLaneCorrelated:
		bits := t.profile.SiteBitsOf(site.Thread, site.DynInst)
		if bits == 0 {
			return ErrNotASite
		}
		if site.Bit < 0 || site.Bit >= bits {
			return fmt.Errorf("fault: bit %d out of range (%d-bit destination)", site.Bit, bits)
		}
	case ModelMemAddr:
		pc := t.StaticPCAt(site.Thread, site.DynInst)
		if !touchesMemory(&t.Prog.Instrs[pc]) {
			return ErrNotAMemSite
		}
		if site.Bit < 0 || site.Bit >= 32 {
			return fmt.Errorf("fault: address bit %d out of range", site.Bit)
		}
	case ModelStuckPred, ModelStuckActiveMask, ModelStuckBarrier:
		// Persistent sites need no destination: any retired dynamic
		// instruction is a valid activation point. Bit encodes the stuck
		// location/value per StuckBits.
		if site.Bit < 0 || site.Bit >= model.StuckBits() {
			return fmt.Errorf("fault: stuck-at encoding %d out of range (%d encodings for %s)",
				site.Bit, model.StuckBits(), model)
		}
	default:
		return fmt.Errorf("fault: unknown model %d", model)
	}
	return nil
}

// RunSiteModel executes one fault-injection experiment under the given
// fault model on a fresh clone of the pristine device. ModelDestValue
// behaves exactly like RunSite.
func (t *Target) RunSiteModel(site Site, model Model) (Outcome, error) {
	if err := t.validateSiteModel(site, model); err != nil {
		return 0, err
	}
	return t.runSiteModelOn(t.Init.Clone(), site, model)
}

// RunSiteModelOn is RunSiteModel on a caller-provided pristine device (see
// RunSiteOn for the contract).
func (t *Target) RunSiteModelOn(dev *gpusim.Device, site Site, model Model) (Outcome, error) {
	if err := t.validateSiteModel(site, model); err != nil {
		return 0, err
	}
	return t.runSiteModelOn(dev, site, model)
}

func (t *Target) runSiteModelOn(dev *gpusim.Device, site Site, model Model) (Outcome, error) {
	inj := &gpusim.Injection{
		Thread: site.Thread, DynInst: site.DynInst, Bit: site.Bit,
		Kind: model.kind(),
	}
	res, err := gpusim.Execute(dev, t.launch(inj, nil, t.watchdog))
	if err != nil {
		return 0, err
	}
	return t.classify(dev, res), nil
}

// MemAddrSites enumerates ModelMemAddr fault sites for one thread: one site
// per address bit per dynamic memory instruction, optionally filtered.
func (s *Space) MemAddrSites(t int, keep func(dyn int64) bool) []Site {
	tp := &s.prof.Threads[t]
	var sites []Site
	for i := int64(0); i < tp.ICnt; i++ {
		pc := gpusim.PC(tp.PCs[i])
		if !touchesMemory(&s.prof.Prog.Instrs[pc]) {
			continue
		}
		if keep != nil && !keep(i) {
			continue
		}
		for b := 0; b < 32; b++ {
			sites = append(sites, Site{Thread: t, DynInst: i, Bit: b})
		}
	}
	return sites
}

// StuckSites enumerates the persistent fault sites of one thread: every
// stuck-at encoding at every retired dynamic instruction (the activation
// point), optionally filtered by keep.
func (s *Space) StuckSites(t int, model Model, keep func(dyn int64) bool) []Site {
	w := model.StuckBits()
	if w == 0 {
		panic(fmt.Sprintf("fault: StuckSites on transient model %s", model))
	}
	tp := &s.prof.Threads[t]
	sites := make([]Site, 0, tp.ICnt*int64(w))
	for i := int64(0); i < tp.ICnt; i++ {
		if keep != nil && !keep(i) {
			continue
		}
		for b := 0; b < w; b++ {
			sites = append(sites, Site{Thread: t, DynInst: i, Bit: b})
		}
	}
	return sites
}

// RandomModel draws n sites uniformly at random from the model's own site
// space. Destination-register models share the dest-value space; mem-addr
// draws over (memory instruction × address bit); persistent models over
// (retired dynamic instruction × stuck-at encoding).
func (s *Space) RandomModel(rng *stats.RNG, n int, model Model) []Site {
	switch {
	case model.Persistent():
		w := int64(model.StuckBits())
		cum := make([]int64, len(s.prof.Threads)+1)
		for t := range s.prof.Threads {
			cum[t+1] = cum[t] + s.prof.Threads[t].ICnt*w
		}
		total := cum[len(cum)-1]
		sites := make([]Site, n)
		for i := range sites {
			idx := rng.Int63n(total)
			t := sort.Search(len(cum)-1, func(j int) bool { return cum[j+1] > idx })
			rem := idx - cum[t]
			sites[i] = Site{Thread: t, DynInst: rem / w, Bit: int(rem % w)}
		}
		return sites
	case model == ModelMemAddr:
		cum := make([]int64, len(s.prof.Threads)+1)
		for t := range s.prof.Threads {
			tp := &s.prof.Threads[t]
			var mem int64
			for i := int64(0); i < tp.ICnt; i++ {
				if touchesMemory(&s.prof.Prog.Instrs[gpusim.PC(tp.PCs[i])]) {
					mem++
				}
			}
			cum[t+1] = cum[t] + mem*32
		}
		total := cum[len(cum)-1]
		if total == 0 {
			panic("fault: RandomModel(mem-addr) on a kernel with no memory instructions")
		}
		sites := make([]Site, n)
		for i := range sites {
			idx := rng.Int63n(total)
			t := sort.Search(len(cum)-1, func(j int) bool { return cum[j+1] > idx })
			rem := idx - cum[t]
			k, bit := rem/32, int(rem%32)
			tp := &s.prof.Threads[t]
			for d := int64(0); d < tp.ICnt; d++ {
				if !touchesMemory(&s.prof.Prog.Instrs[gpusim.PC(tp.PCs[d])]) {
					continue
				}
				if k == 0 {
					sites[i] = Site{Thread: t, DynInst: d, Bit: bit}
					break
				}
				k--
			}
		}
		return sites
	default:
		// Destination-register models index the same per-destination-bit
		// space as the baseline.
		return s.Random(rng, n)
	}
}

// RunModel executes a campaign of weighted sites under one fault model,
// sharing Run's pooled parallel fast-forward engine.
func RunModel(t *Target, sites []WeightedSite, model Model, opt CampaignOptions) (*CampaignResult, error) {
	return t.runCampaign(sites, opt, model)
}
