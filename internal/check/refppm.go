package check

import (
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/predictor"
	"repro/internal/trace"
)

// This file holds RefPPM, the naive reference for the paper's PPM predictor
// stack in all three modes (PPM-PIB, PPM-hyb, PPM-hyb-biased). Markov tables
// are maps, path histories are refHistory slices whose packed/recent views
// are recomputed from scratch, indices come from the bit-vector refSFSXS,
// and the BIU is a plain map of explicit Figure 5 state machines with a
// slice FIFO bounding it when the configuration sets a BIU limit.

// refSelState mirrors counter's Figure 5 encoding.
const (
	refStronglyPB  uint8 = 0
	refWeaklyPB    uint8 = 1
	refWeaklyPIB   uint8 = 2
	refStronglyPIB uint8 = 3
)

// refSelUpdate is the Figure 5 transition function written as explicit
// per-state tables: solid arcs (correct) strengthen, dotted arcs
// (incorrect) move toward the other correlation type — one step in normal
// mode, two steps from the PB side in PIB-biased mode.
func refSelUpdate(state uint8, biased, correct bool) uint8 {
	if correct {
		switch state {
		case refWeaklyPB:
			return refStronglyPB
		case refWeaklyPIB:
			return refStronglyPIB
		}
		return state
	}
	if biased {
		switch state {
		case refStronglyPB:
			return refWeaklyPIB
		case refWeaklyPB:
			return refStronglyPIB
		case refWeaklyPIB:
			return refWeaklyPB
		case refStronglyPIB:
			return refWeaklyPIB
		}
		return state
	}
	switch state {
	case refStronglyPB:
		return refWeaklyPB
	case refWeaklyPB:
		return refWeaklyPIB
	case refWeaklyPIB:
		return refWeaklyPB
	case refStronglyPIB:
		return refWeaklyPIB
	}
	return state
}

// refSelPB reports whether a selection state picks the PB history.
func refSelPB(state uint8) bool { return state == refStronglyPB || state == refWeaklyPB }

type refMarkovEntry struct {
	tag    uint32
	target uint64
	hyst   refHyst
}

type refBIUEntry struct {
	mt  bool
	sel uint8 // Figure 5 state, initialized Strongly-PIB
}

// RefPPM is the reference PPM predictor. It covers the untagged,
// zero-confidence-threshold paper configurations (the ones the experiment
// grid runs); NewRefPPM rejects the future-work extensions.
type RefPPM struct {
	cfg    core.Config
	biased bool
	tables []map[uint64]*refMarkovEntry // tables[j-1]: order-j, keyed by index
	zero   *refMarkovEntry
	pb     *refHistory
	pib    *refHistory
	biu    map[uint64]*refBIUEntry
	// biuOrder is the BIU's insertion order, oldest first: the FIFO
	// eviction queue when cfg.BIULimit bounds it.
	biuOrder []uint64

	pending struct {
		indices []uint64 // indices[j] for order j in 1..Order
		tag     uint32
		chosen  int
		target  uint64
		ok      bool
		sel     *refBIUEntry
	}
}

// NewRefPPM builds the reference for core.New(cfg). It panics on the
// tagged / confidence-threshold extensions, which the harness does not
// model.
func NewRefPPM(cfg core.Config) *RefPPM {
	if cfg.Tagged || cfg.ConfidenceThreshold != 0 {
		panic("check: RefPPM models only the untagged, zero-threshold paper configurations")
	}
	tables := make([]map[uint64]*refMarkovEntry, cfg.Order)
	for i := range tables {
		tables[i] = map[uint64]*refMarkovEntry{}
	}
	p := &RefPPM{
		cfg:    cfg,
		biased: cfg.Mode == core.HybridBiased,
		tables: tables,
		pb:     newRefHistory(history.AllBranches, cfg.Order, cfg.TargetBits, 0),
		pib:    newRefHistory(history.IndirectBranches, cfg.Order, cfg.TargetBits, 0),
		biu:    map[uint64]*refBIUEntry{},
	}
	p.pending.indices = make([]uint64, cfg.Order+1)
	return p
}

// Name implements predictor.IndirectPredictor.
func (p *RefPPM) Name() string {
	if p.cfg.Name != "" {
		return p.cfg.Name
	}
	return p.cfg.Mode.String()
}

func (p *RefPPM) ensureBIU(pc uint64) *refBIUEntry {
	if e, ok := p.biu[pc]; ok {
		return e
	}
	e := &refBIUEntry{sel: refStronglyPIB}
	p.biu[pc] = e
	p.biuOrder = append(p.biuOrder, pc)
	if p.cfg.BIULimit > 0 && len(p.biuOrder) > p.cfg.BIULimit {
		delete(p.biu, p.biuOrder[0])
		p.biuOrder = p.biuOrder[1:]
	}
	return e
}

func (p *RefPPM) index(recent []uint64, order uint) uint64 {
	if p.cfg.LowSelect {
		return refSFSXSLow(recent, p.cfg.TargetBits, p.cfg.FoldBits, order)
	}
	return refSFSXS(recent, p.cfg.TargetBits, p.cfg.FoldBits, order)
}

// Predict implements predictor.IndirectPredictor: select the history per
// mode, compute every order's SFSXS index, and let the valid entry of the
// highest order supply the target, falling back to the order-0 component.
//
//ppm:coldpath reference model: unbounded bookkeeping is intentional, not hardware
func (p *RefPPM) Predict(pc uint64) (uint64, bool) {
	var hist *refHistory
	var sel *refBIUEntry
	if p.cfg.Mode == core.PIBOnly {
		hist = p.pib
	} else {
		sel = p.ensureBIU(pc)
		if refSelPB(sel.sel) {
			hist = p.pb
		} else {
			hist = p.pib
		}
	}
	recent := hist.recent(p.cfg.Order)
	tag := uint32(refMix64(pc>>2) >> 48)

	pd := &p.pending
	pd.tag = tag
	pd.sel = sel
	pd.chosen = -1
	pd.ok = false
	pd.target = 0

	for j := p.cfg.Order; j >= 1; j-- {
		idx := p.index(recent, uint(j)) % (1 << uint(j))
		pd.indices[j] = idx
		if pd.ok {
			continue
		}
		if e := p.tables[j-1][idx]; e != nil {
			pd.chosen = j
			pd.target = e.target
			pd.ok = true
		}
	}
	if !pd.ok && p.zero != nil {
		pd.chosen = 0
		pd.target = p.zero.target
		pd.ok = true
	}
	return pd.target, pd.ok
}

func refTrainMarkov(table map[uint64]*refMarkovEntry, idx uint64, tag uint32, target uint64) {
	e := table[idx]
	if e == nil {
		table[idx] = &refMarkovEntry{tag: tag, target: target, hyst: newRefHyst()}
		return
	}
	if e.target == target {
		e.hyst.hit()
		return
	}
	if e.hyst.miss() {
		e.target = target
	}
}

// Update implements predictor.IndirectPredictor with Chen et al.'s update
// exclusion: the chosen component and every higher order train; a
// no-prediction trains everything including the order-0 component.
//
//ppm:coldpath reference model: unbounded bookkeeping is intentional, not hardware
func (p *RefPPM) Update(_, target uint64) {
	pd := &p.pending
	correct := pd.ok && pd.target == target

	low := pd.chosen
	if low < 0 {
		low = 0
	}
	for j := p.cfg.Order; j >= 1 && j >= low; j-- {
		refTrainMarkov(p.tables[j-1], pd.indices[j], pd.tag, target)
	}
	if low == 0 {
		if p.zero == nil {
			p.zero = &refMarkovEntry{target: target, hyst: newRefHyst()}
		} else if p.zero.target == target {
			p.zero.hyst.hit()
		} else if p.zero.hyst.miss() {
			p.zero.target = target
		}
	}

	if pd.sel != nil {
		pd.sel.sel = refSelUpdate(pd.sel.sel, p.biased, correct)
	}
}

// Observe implements predictor.IndirectPredictor: both history registers
// advance on every committed record (each applying its own stream filter),
// and the hybrid modes' BIU learns annotation bits for every indirect-class
// branch.
//
//ppm:coldpath reference model: unbounded bookkeeping is intentional, not hardware
func (p *RefPPM) Observe(r trace.Record) {
	if p.cfg.Mode != core.PIBOnly {
		if r.Class.Indirect() {
			e := p.ensureBIU(r.PC)
			if r.MT {
				e.mt = true
			}
		}
	}
	p.pb.observe(r)
	p.pib.observe(r)
}

var _ predictor.IndirectPredictor = (*RefPPM)(nil)
