package twolevel

import (
	"fmt"

	"repro/internal/hashing"
	"repro/internal/history"
	"repro/internal/predictor"
	"repro/internal/stats"
	"repro/internal/trace"
)

// TargetCacheConfig parameterizes a Target Cache (Chang et al., ISCA 1997):
// a single tagless table of targets indexed by gshare of the branch address
// and a path history register recording partial targets from a selected
// branch stream. Unlike GAp entries, Target Cache entries are replaced
// immediately on a target mispredict.
type TargetCacheConfig struct {
	Name          string
	Entries       int // power of two
	HistoryBits   uint
	BitsPerTarget uint
	HistoryStream history.Stream
	// Tagged adds a branch-address tag to every entry (the tagged-variant
	// study the paper lists as future work): lookups require a tag match,
	// trading capacity for immunity to cross-branch aliasing.
	Tagged bool
}

// TargetCache is the TC predictor of Section 5.
type TargetCache struct {
	cfg        TargetCacheConfig
	table      []tcEntry
	hist       *history.PHR
	pending    uint64
	pendingTag uint64
}

type tcEntry struct {
	valid  bool
	tag    uint64
	target uint64
}

// NewTargetCache builds a Target Cache. Panics on invalid configuration.
func NewTargetCache(cfg TargetCacheConfig) *TargetCache {
	if cfg.Entries <= 0 || cfg.Entries&(cfg.Entries-1) != 0 {
		panic(fmt.Sprintf("twolevel: target cache entries must be a positive power of two, got %d", cfg.Entries))
	}
	if cfg.BitsPerTarget == 0 {
		panic("twolevel: target cache bits per target must be positive")
	}
	depth := int((cfg.HistoryBits + cfg.BitsPerTarget - 1) / cfg.BitsPerTarget)
	if depth < 1 {
		depth = 1
	}
	return &TargetCache{
		cfg:   cfg,
		table: make([]tcEntry, cfg.Entries),
		hist:  history.New(cfg.HistoryStream, depth, cfg.BitsPerTarget, cfg.HistoryBits),
	}
}

// Name implements predictor.IndirectPredictor.
func (t *TargetCache) Name() string {
	if t.cfg.Name != "" {
		return t.cfg.Name
	}
	return "TC"
}

// Entries implements predictor.Sized.
func (t *TargetCache) Entries() int { return t.cfg.Entries }

func (t *TargetCache) index(pc uint64) uint64 {
	bits := uint(0)
	for s := len(t.table); s > 1; s >>= 1 {
		bits++
	}
	return hashing.GShare(t.hist.Packed(), pc, bits)
}

// Predict implements predictor.IndirectPredictor.
func (t *TargetCache) Predict(pc uint64) (uint64, bool) {
	idx := t.index(pc)
	t.pending = idx
	t.pendingTag = hashing.Mix64(pc>>2) >> 40
	e := t.table[idx] //lint:idxsafe GShare truncates to floor(log2(len(table))) bits, so idx < len(table)
	if !e.valid {
		return 0, false
	}
	if t.cfg.Tagged && e.tag != t.pendingTag {
		return 0, false
	}
	return e.target, true
}

// Update implements predictor.IndirectPredictor. The Target Cache always
// installs the actual target — no replacement hysteresis.
func (t *TargetCache) Update(_, target uint64) {
	t.table[t.pending] = tcEntry{valid: true, tag: t.pendingTag, target: target} //lint:idxsafe pending holds the GShare-truncated index Predict stored
}

// Observe implements predictor.IndirectPredictor.
func (t *TargetCache) Observe(r trace.Record) { t.hist.Observe(r) }

// ProcessBlock implements the engine's batch fast path; like GAp, the only
// non-MT work is the history register, so the loop walks the index lane
// matching the configured stream.
//
//ppm:hotpath whole-block Target Cache replay over the indirect index lanes
func (t *TargetCache) ProcessBlock(b *trace.Block, c *stats.Counters) {
	pcs, tgts, metas := b.PC, b.Target, b.Meta
	switch t.hist.Stream() {
	case history.IndirectBranches:
		for _, k := range b.PIBIdx {
			tgt := tgts[k] //lint:idxsafe PIBIdx entries index the block's lanes by construction
			//lint:idxsafe PIBIdx entries index the block's lanes by construction
			if metas[k]&trace.MetaMT != 0 {
				pc := pcs[k] //lint:idxsafe PIBIdx entries index the block's lanes by construction
				target, ok := t.Predict(pc)
				c.Resolve(target, ok, tgt)
				t.Update(pc, tgt)
			}
			t.hist.Push(tgt)
		}
	case history.MTIndirectBranches:
		for _, k := range b.MTIdx {
			pc := pcs[k]   //lint:idxsafe MTIdx entries index the block's lanes by construction
			tgt := tgts[k] //lint:idxsafe MTIdx entries index the block's lanes by construction
			target, ok := t.Predict(pc)
			c.Resolve(target, ok, tgt)
			t.Update(pc, tgt)
			t.hist.Push(tgt)
		}
	default:
		for i := 0; i < b.Len(); i++ {
			r := b.Record(i)
			if r.MTIndirect() {
				target, ok := t.Predict(r.PC)
				c.Resolve(target, ok, r.Target)
				t.Update(r.PC, r.Target)
			}
			t.hist.Observe(r)
		}
	}
}

// Reset implements predictor.Resetter.
func (t *TargetCache) Reset() {
	for i := range t.table {
		t.table[i] = tcEntry{}
	}
	t.hist.Reset()
}

// PaperTCPIB returns the exact TC-PIB configuration of Section 5: a tagless
// 2K-entry Target Cache, gshare indexed, with an 11-bit PIB path history
// register recording the 2 low-order bits of previous indirect-branch
// targets.
func PaperTCPIB() *TargetCache {
	return NewTargetCache(TargetCacheConfig{
		Name:          "TC-PIB",
		Entries:       2048,
		HistoryBits:   11,
		BitsPerTarget: 2,
		HistoryStream: history.IndirectBranches,
	})
}

var (
	_ predictor.IndirectPredictor = (*TargetCache)(nil)
	_ predictor.Sized             = (*TargetCache)(nil)
	_ predictor.Resetter          = (*TargetCache)(nil)
	_ predictor.Costed            = (*TargetCache)(nil)
)

// Bits implements predictor.Costed.
func (t *TargetCache) Bits() int {
	per := 30 + 1
	if t.cfg.Tagged {
		per += 24
	}
	return t.cfg.Entries*per + int(t.cfg.HistoryBits)
}
