// Package ittage implements the ITTAGE indirect target predictor (Seznec &
// Michaud, "A case for (partially) TAgged GEometric history length branch
// prediction"), the direct descendant of the paper's PPM predictor: a
// tagless base table backed by N partially tagged banks indexed with
// geometrically increasing path-history lengths. The longest matching bank
// provides the prediction; the next longest (or the base table) provides
// the alternate. Per-entry usefulness counters with periodic graceful
// reset manage allocation, and a use-alt-on-newly-allocated counter learns
// whether freshly allocated entries should be trusted over the alternate.
//
// Unlike the paper's Markov stack, whose orders top out at a handful of
// targets, the geometric lengths span windows whose packed history exceeds
// 64 bits — the configuration that exposed the PHR's silent clamp. Each
// bank folds its window incrementally (hashing.Folded, one rotate and two
// single-item folds per push), and the wide multi-word register in
// history.PHR is the from-scratch specification the folds are checked
// against, both in unit tests and by the ppmcheck differential oracle.
package ittage

import (
	"fmt"
	"math"

	"repro/internal/hashing"
	"repro/internal/history"
	"repro/internal/predictor"
	"repro/internal/stats"
	"repro/internal/trace"
)

const (
	ctrMax   = 3 // 2-bit per-entry target confidence
	uMax     = 3 // 2-bit per-entry usefulness
	uaonaMax = 15
	// uaonaInit starts the use-alt counter at its decision threshold:
	// newly allocated entries defer to the alternate prediction until the
	// counter learns they tend to be right.
	uaonaInit = 8
)

// Config parameterizes an ITTAGE predictor.
type Config struct {
	// Name labels the predictor.
	Name string
	// BaseEntries sizes the tagless direct-mapped base table (power of two).
	BaseEntries int
	// Banks is the number of tagged banks; BankEntries the entries in each
	// (power of two).
	Banks       int
	BankEntries int
	// TagBits is the partial tag width stored per tagged entry (>= 2: the
	// second folded tag register is TagBits-1 wide).
	TagBits uint
	// MinHist and MaxHist bound the geometric history lengths, in recorded
	// items: bank i uses round(MinHist * alpha^i) items with
	// alpha = (MaxHist/MinHist)^(1/(Banks-1)).
	MinHist, MaxHist int
	// BitsPerItem is how many low-order bits of each recorded target enter
	// the history (the paper's PHR bitsPer).
	BitsPerItem uint
	// ResetPeriod is the graceful-reset cadence: every ResetPeriod updates,
	// every usefulness counter is halved. 0 disables the reset.
	ResetPeriod uint64
	// Stream selects which records advance the history.
	Stream history.Stream
}

func (c Config) validate() error {
	if c.BaseEntries <= 0 || c.BaseEntries&(c.BaseEntries-1) != 0 {
		return fmt.Errorf("ittage: base entries must be a positive power of two, got %d", c.BaseEntries)
	}
	if c.BankEntries <= 0 || c.BankEntries&(c.BankEntries-1) != 0 {
		return fmt.Errorf("ittage: bank entries must be a positive power of two, got %d", c.BankEntries)
	}
	if c.Banks < 2 {
		return fmt.Errorf("ittage: need at least 2 tagged banks, got %d", c.Banks)
	}
	if c.TagBits < 2 || c.TagBits > 32 {
		return fmt.Errorf("ittage: tag bits must be in [2,32], got %d", c.TagBits)
	}
	if c.MinHist < 1 || c.MaxHist <= c.MinHist {
		return fmt.Errorf("ittage: history lengths must satisfy 1 <= min < max, got [%d,%d]", c.MinHist, c.MaxHist)
	}
	if c.BitsPerItem == 0 || c.BitsPerItem > 32 {
		return fmt.Errorf("ittage: bits per item must be in [1,32], got %d", c.BitsPerItem)
	}
	return nil
}

// histLens expands the geometric series; the first and last lengths land
// exactly on MinHist and MaxHist.
func (c Config) histLens() []int {
	lens := make([]int, c.Banks)
	alpha := math.Pow(float64(c.MaxHist)/float64(c.MinHist), 1/float64(c.Banks-1))
	for i := range lens {
		lens[i] = int(math.Round(float64(c.MinHist) * math.Pow(alpha, float64(i))))
	}
	lens[0], lens[c.Banks-1] = c.MinHist, c.MaxHist
	return lens
}

type entry struct {
	valid  bool
	tag    uint64
	target uint64
	ctr    uint8 // confidence in target, 0..ctrMax
	u      uint8 // usefulness, 0..uMax
}

type baseEntry struct {
	valid  bool
	target uint64
}

// bank is one partially tagged table with its geometric window and the
// three incrementally folded views of that window (index, tag, tag-shifted),
// the circular-shift-register idiom of the hardware design.
type bank struct {
	entries  []entry
	histLen  int
	idxFold  hashing.Folded
	tagFold  hashing.Folded
	tagFold2 hashing.Folded
}

// ITTAGE is the predictor. Construct with New or Paper.
type ITTAGE struct {
	cfg     Config
	lens    []int
	base    []baseEntry
	banks   []bank
	hist    *history.PHR
	selMask uint64
	uaona   uint8  // use-alt-on-newly-allocated, 0..uaonaMax, >= 8 means use alt
	tick    uint64 // updates since power-up, drives the graceful u reset
	uResets uint64 // graceful resets performed (observability)
	pending pendingState
	pendIdx []uint64 // per-bank index of the pending prediction
	pendTag []uint64 // per-bank tag of the pending prediction
}

// pendingState carries one Predict's lookup results to the matching Update.
type pendingState struct {
	provider int // bank index of the longest tag match, -1 if none
	alt      int // bank index of the next match, -1 means the base table
	baseIdx  uint64
	pred     uint64
	predOK   bool
	provPred uint64
	provNew  bool // provider entry looked newly allocated (ctr==0 && u==0)
	altPred  uint64
	altOK    bool
}

// New builds an ITTAGE predictor. Panics on invalid configuration, which is
// always a programming error in this repository's fixed experiment set.
func New(cfg Config) *ITTAGE {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	lens := cfg.histLens()
	p := &ITTAGE{
		cfg:     cfg,
		lens:    lens,
		base:    make([]baseEntry, cfg.BaseEntries),
		banks:   make([]bank, cfg.Banks),
		selMask: hashing.Mask(cfg.BitsPerItem),
		uaona:   uaonaInit,
		pendIdx: make([]uint64, cfg.Banks),
		pendTag: make([]uint64, cfg.Banks),
		// The ring retains the longest window so each bank can read its
		// outgoing item at push time; the packed view spans the full
		// geometric width — well past 64 bits in the shipped configuration.
		hist: history.NewWide(cfg.Stream, cfg.MaxHist, cfg.BitsPerItem, uint(cfg.MaxHist)*cfg.BitsPerItem),
	}
	idxBits := indexBits(cfg.BankEntries)
	for i := range p.banks {
		p.banks[i] = bank{
			entries:  make([]entry, cfg.BankEntries),
			histLen:  lens[i],
			idxFold:  hashing.NewFolded(lens[i], cfg.BitsPerItem, idxBits),
			tagFold:  hashing.NewFolded(lens[i], cfg.BitsPerItem, cfg.TagBits),
			tagFold2: hashing.NewFolded(lens[i], cfg.BitsPerItem, cfg.TagBits-1),
		}
	}
	return p
}

func indexBits(entries int) uint {
	n := uint(0)
	for e := entries; e > 1; e >>= 1 {
		n++
	}
	return n
}

// Paper returns the configuration evaluated in the "1998 vs modern" matrix:
// the paper's ~2K-entry budget apportioned as a 1024-entry tagless base
// table plus four 256-entry tagged banks, 10-bit tags, and geometric window
// lengths 4/10/25/64 recording 2 bits per multi-target indirect target — a
// 128-bit path history register, double the width the 1998 designs use.
func Paper() *ITTAGE {
	return New(Config{
		Name:        "ITTAGE",
		BaseEntries: 1024,
		Banks:       4,
		BankEntries: 256,
		TagBits:     10,
		MinHist:     4,
		MaxHist:     64,
		BitsPerItem: 2,
		ResetPeriod: 2048,
		Stream:      history.MTIndirectBranches,
	})
}

// Name implements predictor.IndirectPredictor.
func (p *ITTAGE) Name() string {
	if p.cfg.Name != "" {
		return p.cfg.Name
	}
	return "ITTAGE"
}

// Entries implements predictor.Sized.
func (p *ITTAGE) Entries() int { return len(p.base) + len(p.banks)*p.cfg.BankEntries }

// HistLens returns the geometric window length of each bank, shortest first.
func (p *ITTAGE) HistLens() []int { return append([]int(nil), p.lens...) }

// HistoryBits returns the packed width of the path history register —
// past 64 in the shipped configuration, the width that motivated the
// multi-word register.
func (p *ITTAGE) HistoryBits() uint { return p.hist.PackedBits() }

// baseIndex direct-maps the word-aligned pc into the base table.
//
//ppm:hotpath per-lookup index-hash helper; runs once per table probe
func (p *ITTAGE) baseIndex(pc uint64) uint64 {
	return (pc >> 2) & uint64(len(p.base)-1)
}

// bankIndex forms bank b's set index from the mixed pc and the bank's
// folded window.
//
//ppm:hotpath per-lookup index-hash helper; runs once per table probe
func (p *ITTAGE) bankIndex(b *bank, pc uint64) uint64 {
	return (hashing.Mix64(pc>>2) ^ b.idxFold.Value()) & uint64(len(b.entries)-1)
}

// bankTag forms bank b's partial tag: high mixed pc bits XOR the folded
// window XOR the narrower fold shifted by one, the double-fold that keeps
// tags and indexes decorrelated (the ChampSim csr1/csr2 idiom).
//
//ppm:hotpath per-lookup index-hash helper; runs once per table probe
func (p *ITTAGE) bankTag(b *bank, pc uint64) uint64 {
	return ((hashing.Mix64(pc>>2) >> 32) ^ b.tagFold.Value() ^ (b.tagFold2.Value() << 1)) & hashing.Mask(p.cfg.TagBits)
}

// Predict implements predictor.IndirectPredictor: the longest tag-matching
// bank provides, the next match (or the base table) is the alternate, and
// newly allocated providers defer to the alternate while the
// use-alt-on-newly-allocated counter says so.
//
//ppm:hotpath per-record ITTAGE lookup
func (p *ITTAGE) Predict(pc uint64) (uint64, bool) {
	pd := &p.pending
	pd.provider, pd.alt = -1, -1
	for i := len(p.banks) - 1; i >= 0; i-- {
		b := &p.banks[i] //lint:idxsafe i descends from len(banks)-1 to 0
		idx := p.bankIndex(b, pc)
		tag := p.bankTag(b, pc)
		p.pendIdx[i] = idx //lint:idxsafe pendIdx and pendTag are sized to len(banks) at construction
		p.pendTag[i] = tag //lint:idxsafe pendIdx and pendTag are sized to len(banks) at construction
		if pd.alt >= 0 {
			continue // both match slots filled; keep filling pend{Idx,Tag}
		}
		e := &b.entries[idx]
		if !e.valid || e.tag != tag {
			continue
		}
		if pd.provider < 0 {
			pd.provider = i
			pd.provPred = e.target
			pd.provNew = e.ctr == 0 && e.u == 0
		} else {
			pd.alt = i
			pd.altPred = e.target
			pd.altOK = true
		}
	}
	pd.baseIdx = p.baseIndex(pc)
	if pd.alt < 0 {
		be := &p.base[pd.baseIdx]
		pd.altPred, pd.altOK = be.target, be.valid
	}
	if pd.provider >= 0 {
		if pd.provNew && pd.altOK && p.uaona >= uaonaInit {
			pd.pred, pd.predOK = pd.altPred, true
		} else {
			pd.pred, pd.predOK = pd.provPred, true
		}
	} else {
		pd.pred, pd.predOK = pd.altPred, pd.altOK
	}
	return pd.pred, pd.predOK
}

// Update implements predictor.IndirectPredictor, resolving the pending
// prediction: it trains the provider's confidence and usefulness, steers
// the use-alt counter on newly allocated disagreements, allocates into a
// longer bank on a final mispredict (first longer bank whose slot has
// usefulness 0; if none, every candidate's usefulness decays instead), and
// always refreshes the base table. Every ResetPeriod updates the usefulness
// counters halve — the graceful reset that lets the predictor forget a
// phase change without losing all of its allocation discipline at once.
//
//ppm:hotpath per-record ITTAGE train/allocate
func (p *ITTAGE) Update(pc, target uint64) {
	_ = pc
	pd := &p.pending
	p.tick++
	if p.cfg.ResetPeriod > 0 && p.tick%p.cfg.ResetPeriod == 0 {
		p.gracefulReset()
	}
	correct := pd.predOK && pd.pred == target

	if pd.provider >= 0 {
		e := &p.banks[pd.provider].entries[p.pendIdx[pd.provider]] //lint:idxsafe provider in [0,len(banks)) and pendIdx holds masked indexes
		altDiffers := !pd.altOK || pd.altPred != pd.provPred
		// The use-alt counter trains only on decisive events: a newly
		// allocated provider that disagreed with its alternate, where
		// exactly one of the two was right.
		if pd.provNew && altDiffers {
			if pd.provPred == target && p.uaona > 0 {
				p.uaona--
			} else if pd.altOK && pd.altPred == target && p.uaona < uaonaMax {
				p.uaona++
			}
		}
		if altDiffers {
			if pd.provPred == target {
				if e.u < uMax {
					e.u++
				}
			} else if e.u > 0 {
				e.u--
			}
		}
		if e.target == target {
			if e.ctr < ctrMax {
				e.ctr++
			}
		} else if e.ctr > 0 {
			e.ctr--
		} else {
			e.target = target
		}
	}

	if !correct {
		p.allocate(pd.provider+1, target)
	}

	be := &p.base[pd.baseIdx] //lint:idxsafe baseIdx is masked into [0, len(base)) by baseIndex
	be.valid = true
	be.target = target
}

// allocate claims a slot for the mispredicted branch in the first bank at
// or past `from` whose indexed entry has usefulness 0; if every candidate
// is defended, their usefulness decays by one instead — the deterministic
// variant of the hardware's randomized single-bank probe, chosen so the
// differential oracle can restate it exactly.
//
//ppm:hotpath per-mispredict ITTAGE allocation walk
func (p *ITTAGE) allocate(from int, target uint64) {
	for i := from; i < len(p.banks); i++ {
		e := &p.banks[i].entries[p.pendIdx[i]] //lint:idxsafe i in [0,len(banks)) and pendIdx holds masked indexes
		if !e.valid || e.u == 0 {
			*e = entry{valid: true, tag: p.pendTag[i], target: target} //lint:idxsafe i in [0,len(banks)) bounds pendTag too
			return
		}
	}
	for i := from; i < len(p.banks); i++ {
		e := &p.banks[i].entries[p.pendIdx[i]] //lint:idxsafe i in [0,len(banks)) and pendIdx holds masked indexes
		if e.u > 0 {
			e.u--
		}
	}
}

// gracefulReset halves every usefulness counter, aging out stale
// protection without wiping the working set.
func (p *ITTAGE) gracefulReset() {
	for i := range p.banks {
		es := p.banks[i].entries
		for j := range es {
			es[j].u >>= 1
		}
	}
	p.uResets++
}

// Observe implements predictor.IndirectPredictor: records on the
// configured stream advance the history ring, the wide packed register and
// every bank's folded views in lock step.
//
//ppm:hotpath per-record history advance
func (p *ITTAGE) Observe(r trace.Record) {
	if !p.hist.Stream().Accepts(r) {
		return
	}
	p.push(r.Target)
}

// push advances all history state by one item. The outgoing item for a
// window of length L is the target L-1 positions deep before the push.
//
//ppm:hotpath per-record history advance
func (p *ITTAGE) push(target uint64) {
	sel := (target >> 2) & p.selMask
	for i := range p.banks {
		b := &p.banks[i]
		out := (p.hist.Peek(b.histLen-1) >> 2) & p.selMask
		b.idxFold.Update(sel, out)
		b.tagFold.Update(sel, out)
		b.tagFold2.Update(sel, out)
	}
	p.hist.Push(target)
}

// ProcessBlock implements the engine's batch fast path. With the shipped
// MT-indirect stream the whole protocol — predict, update, history push —
// is driven by the block's MTIdx lane; other streams replay record-exactly.
//
//ppm:hotpath whole-block ITTAGE replay over the MT index lane
func (p *ITTAGE) ProcessBlock(b *trace.Block, c *stats.Counters) {
	if p.hist.Stream() != history.MTIndirectBranches {
		for i := 0; i < b.Len(); i++ {
			r := b.Record(i)
			if r.MTIndirect() {
				target, ok := p.Predict(r.PC)
				c.Resolve(target, ok, r.Target)
				p.Update(r.PC, r.Target)
			}
			p.Observe(r)
		}
		return
	}
	pcs, tgts := b.PC, b.Target
	for _, k := range b.MTIdx {
		pc := pcs[k]   //lint:idxsafe MTIdx entries index the block's lanes by construction
		tgt := tgts[k] //lint:idxsafe MTIdx entries index the block's lanes by construction
		target, ok := p.Predict(pc)
		c.Resolve(target, ok, tgt)
		p.Update(pc, tgt)
		p.push(tgt)
	}
}

// UStats reports the use-alt counter and how many graceful resets have run,
// for the experiment matrix's diagnostics.
func (p *ITTAGE) UStats() (uaona uint8, resets uint64) { return p.uaona, p.uResets }

// Reset implements predictor.Resetter.
func (p *ITTAGE) Reset() {
	for i := range p.base {
		p.base[i] = baseEntry{}
	}
	for i := range p.banks {
		b := &p.banks[i]
		for j := range b.entries {
			b.entries[j] = entry{}
		}
		b.idxFold.Reset()
		b.tagFold.Reset()
		b.tagFold2.Reset()
	}
	p.hist.Reset()
	p.uaona = uaonaInit
	p.tick = 0
	p.uResets = 0
}

var (
	_ predictor.IndirectPredictor = (*ITTAGE)(nil)
	_ predictor.Sized             = (*ITTAGE)(nil)
	_ predictor.Resetter          = (*ITTAGE)(nil)
	_ predictor.Costed            = (*ITTAGE)(nil)
)

// Bits implements predictor.Costed: the base table pays target+valid per
// entry; tagged entries add the 2-bit confidence, 2-bit usefulness and the
// partial tag; plus the full-width path history register and the use-alt
// counter.
func (p *ITTAGE) Bits() int {
	base := len(p.base) * (30 + 1)
	tagged := len(p.banks) * p.cfg.BankEntries * (30 + 1 + 2 + 2 + int(p.cfg.TagBits))
	return base + tagged + int(p.hist.PackedBits()) + 4
}
