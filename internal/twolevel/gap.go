package twolevel

import (
	"fmt"

	"repro/internal/hashing"
	"repro/internal/history"
	"repro/internal/predictor"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Indexing selects how a GAp component forms its PHT index from the path
// history register and the branch address.
type Indexing uint8

const (
	// GShare XORs the packed history with the branch address (Chang et
	// al.; the paper's GAp and Target Cache configurations).
	GShare Indexing = iota
	// ReverseInterleave interleaves bit-reversed history with address
	// bits (Driesen & Hölzle; the paper's Dual-path configuration).
	ReverseInterleave
)

// GApConfig parameterizes one GAp-style two-level component.
type GApConfig struct {
	// Name labels the predictor.
	Name string
	// Entries is the total PHT entry count (power of two).
	Entries int
	// PHTs splits the entries across this many per-address tables,
	// selected by low-order PC bits (the "p" in GAp). 1 gives a single
	// global table.
	PHTs int
	// Assoc and Tagged select the table organisation (tagged 4-way for
	// the Cascade components; tagless direct-mapped otherwise).
	Assoc  int
	Tagged bool
	// PathLength is the number of targets recorded in the history
	// register; BitsPerTarget how many low-order bits of each.
	PathLength    int
	BitsPerTarget uint
	HistoryStream history.Stream
	Indexing      Indexing
	// HistoryBits optionally widens the shift register beyond
	// PathLength*BitsPerTarget (the Dual-path predictor uses a 24-bit
	// register regardless of path length). 0 means PathLength*BitsPerTarget.
	HistoryBits uint
	// Useful turns on ITTAGE-style u-bit replacement in the (necessarily
	// tagged) PHTs: per-entry usefulness counters gate eviction and halve
	// every UsefulResetPeriod updates.
	Useful            bool
	UsefulResetPeriod uint64
}

func (c GApConfig) historyBits() uint {
	if c.HistoryBits != 0 {
		return c.HistoryBits
	}
	return uint(c.PathLength) * c.BitsPerTarget
}

func (c GApConfig) validate() error {
	if c.Entries <= 0 || c.Entries&(c.Entries-1) != 0 {
		return fmt.Errorf("twolevel: entries must be a positive power of two, got %d", c.Entries)
	}
	if c.PHTs <= 0 || c.PHTs&(c.PHTs-1) != 0 {
		return fmt.Errorf("twolevel: PHT count must be a positive power of two, got %d", c.PHTs)
	}
	if c.Entries%c.PHTs != 0 {
		return fmt.Errorf("twolevel: %d PHTs do not divide %d entries", c.PHTs, c.Entries)
	}
	if c.PathLength <= 0 {
		return fmt.Errorf("twolevel: path length must be positive, got %d", c.PathLength)
	}
	if c.BitsPerTarget == 0 || c.BitsPerTarget > 32 {
		return fmt.Errorf("twolevel: bits per target must be in [1,32], got %d", c.BitsPerTarget)
	}
	if c.Useful && !c.Tagged {
		return fmt.Errorf("twolevel: useful-mode replacement needs tagged tables")
	}
	if c.Useful && c.UsefulResetPeriod == 0 {
		return fmt.Errorf("twolevel: useful mode needs a positive reset period")
	}
	return nil
}

// GAp is a two-level adaptive indirect target predictor with a global path
// history register and per-address pattern history tables, per Driesen &
// Hölzle as configured in Section 5.
type GAp struct {
	cfg     GApConfig
	tables  []*PHT
	hist    *history.PHR
	pending struct {
		table *PHT
		index uint64
		tag   uint64
	}
}

// NewGAp builds a GAp component. It panics on invalid configuration, which
// is always a programming error in this repository's fixed experiment set.
func NewGAp(cfg GApConfig) *GAp {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	perTable := cfg.Entries / cfg.PHTs
	tables := make([]*PHT, cfg.PHTs)
	for i := range tables {
		if cfg.Useful {
			tables[i] = NewPHTUseful(perTable, maxInt(1, cfg.Assoc), cfg.UsefulResetPeriod)
		} else {
			tables[i] = NewPHT(perTable, maxInt(1, cfg.Assoc), cfg.Tagged)
		}
	}
	hb := cfg.historyBits()
	return &GAp{
		cfg:    cfg,
		tables: tables,
		hist:   history.New(cfg.HistoryStream, cfg.PathLength, cfg.BitsPerTarget, hb),
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Name implements predictor.IndirectPredictor.
func (g *GAp) Name() string {
	if g.cfg.Name != "" {
		return g.cfg.Name
	}
	return "GAp"
}

// Entries implements predictor.Sized.
func (g *GAp) Entries() int { return g.cfg.Entries }

// index computes (table, set index, tag) for a branch address under the
// current history.
func (g *GAp) index(pc uint64) (*PHT, uint64, uint64) {
	tsel := uint64(0)
	if len(g.tables) > 1 {
		tsel = (pc >> 2) & uint64(len(g.tables)-1)
	}
	table := g.tables[tsel]
	bits := table.IndexBits()
	var idx uint64
	switch {
	case g.cfg.Tagged:
		// Tagged tables carry branch identity in the tag, so the whole
		// index budget goes to folded path history.
		idx = hashing.Fold(g.hist.Packed(), g.cfg.historyBits(), bits)
	case g.cfg.Indexing == GShare:
		idx = hashing.GShare(g.hist.Packed(), pc, bits)
	default:
		idx = hashing.ReverseInterleave(g.hist.Packed(), g.cfg.historyBits(), pc, bits)
	}
	tag := hashing.Mix64(pc>>2) >> 40 // 24-bit tag for the tagged variants
	return table, idx, tag
}

// Predict implements predictor.IndirectPredictor.
func (g *GAp) Predict(pc uint64) (uint64, bool) {
	table, idx, tag := g.index(pc)
	g.pending.table, g.pending.index, g.pending.tag = table, idx, tag
	if e := table.Lookup(idx, tag); e != nil {
		table.Touch(idx, tag)
		return e.Target(), true
	}
	return 0, false
}

// Update implements predictor.IndirectPredictor.
func (g *GAp) Update(pc, target uint64) { g.UpdateAlloc(pc, target, true) }

// UpdateAlloc resolves the pending prediction like Update but lets the
// caller suppress allocation of new entries — the hook the Cascade
// predictor's leaky-filter protocol needs to keep monomorphic branches out
// of its main tables.
func (g *GAp) UpdateAlloc(_, target uint64, allocate bool) {
	g.pending.table.Update(g.pending.index, g.pending.tag, target, allocate)
}

// Observe implements predictor.IndirectPredictor.
func (g *GAp) Observe(r trace.Record) { g.hist.Observe(r) }

// ProcessBlock implements the engine's batch fast path. A GAp's only
// per-record work outside MT-indirect branches is its history register, so
// when the configured stream matches one of the block's precomputed index
// lanes the loop walks that lane and never visits the rest of the stream;
// other streams take the record-exact loop.
//
//ppm:hotpath whole-block GAp replay over the indirect index lanes
func (g *GAp) ProcessBlock(b *trace.Block, c *stats.Counters) {
	pcs, tgts, metas := b.PC, b.Target, b.Meta
	switch g.hist.Stream() {
	case history.IndirectBranches:
		for _, k := range b.PIBIdx {
			tgt := tgts[k] //lint:idxsafe PIBIdx entries index the block's lanes by construction
			//lint:idxsafe PIBIdx entries index the block's lanes by construction
			if metas[k]&trace.MetaMT != 0 {
				pc := pcs[k] //lint:idxsafe PIBIdx entries index the block's lanes by construction
				target, ok := g.Predict(pc)
				c.Resolve(target, ok, tgt)
				g.Update(pc, tgt)
			}
			g.hist.Push(tgt)
		}
	case history.MTIndirectBranches:
		for _, k := range b.MTIdx {
			pc := pcs[k]   //lint:idxsafe MTIdx entries index the block's lanes by construction
			tgt := tgts[k] //lint:idxsafe MTIdx entries index the block's lanes by construction
			target, ok := g.Predict(pc)
			c.Resolve(target, ok, tgt)
			g.Update(pc, tgt)
			g.hist.Push(tgt)
		}
	default:
		// AllBranches / TakenBranches streams (no shipped configuration):
		// replay record-exactly.
		for i := 0; i < b.Len(); i++ {
			r := b.Record(i)
			if r.MTIndirect() {
				target, ok := g.Predict(r.PC)
				c.Resolve(target, ok, r.Target)
				g.Update(r.PC, r.Target)
			}
			g.hist.Observe(r)
		}
	}
}

// Reset implements predictor.Resetter.
func (g *GAp) Reset() {
	for _, t := range g.tables {
		t.Reset()
	}
	g.hist.Reset()
}

// PaperGAp returns the exact GAp configuration of Section 5: two tagless 1K
// PHTs, a 10-bit path history register recording the 2 low-order bits of
// each of the last 5 indirect-branch targets, gshare indexing, and a 2-bit
// replacement counter per entry.
func PaperGAp() *GAp {
	return NewGAp(GApConfig{
		Name:          "GAp",
		Entries:       2048,
		PHTs:          2,
		Assoc:         1,
		PathLength:    5,
		BitsPerTarget: 2,
		HistoryStream: history.IndirectBranches,
		Indexing:      GShare,
	})
}

var (
	_ predictor.IndirectPredictor = (*GAp)(nil)
	_ predictor.Sized             = (*GAp)(nil)
	_ predictor.Resetter          = (*GAp)(nil)
	_ predictor.Costed            = (*GAp)(nil)
)

// Bits implements predictor.Costed.
func (g *GAp) Bits() int {
	per := 30 + 1 + 2 // target, valid, replacement counter
	if g.cfg.Tagged {
		per += 24 + 2 // tag and LRU stamp (2 bits suffice for 4 ways)
	}
	if g.cfg.Useful {
		per += 2 // usefulness counter
	}
	return g.cfg.Entries*per + int(g.cfg.historyBits())
}
