// Package btb implements the two Branch Target Buffer baselines of
// Section 5: the plain tagless BTB of Lee & Smith, which caches the most
// recent target per entry and replaces it on every target mispredict, and
// BTB2b (Calder & Grunwald), which adds a 2-bit up/down saturating counter
// so the target is replaced only after two consecutive mispredictions —
// exploiting the target locality of C++ virtual calls.
package btb

import (
	"fmt"

	"repro/internal/counter"
	"repro/internal/predictor"
	"repro/internal/stats"
	"repro/internal/trace"
)

type entry struct {
	valid  bool
	target uint64
	hyst   counter.Hysteresis
}

// BTB is a tagless direct-mapped branch target buffer.
type BTB struct {
	name       string
	entries    []entry
	hysteresis bool // true for BTB2b behaviour
	pending    struct {
		idx   uint64
		hit   bool
		guess uint64
	}
}

// New returns a plain tagless BTB with the given number of entries.
// Panics if entries is not a positive power of two.
func New(entries int) *BTB { return newBTB("BTB", entries, false) }

// New2b returns a BTB2b: a tagless BTB whose entries carry the 2-bit
// hysteresis counter of Calder & Grunwald. Panics if entries is not a
// positive power of two.
func New2b(entries int) *BTB { return newBTB("BTB2b", entries, true) }

func newBTB(name string, entries int, hysteresis bool) *BTB {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic(fmt.Sprintf("btb: entries must be a positive power of two, got %d", entries))
	}
	return &BTB{name: name, entries: make([]entry, entries), hysteresis: hysteresis}
}

// Name implements predictor.IndirectPredictor.
func (b *BTB) Name() string { return b.name }

// Entries implements predictor.Sized.
func (b *BTB) Entries() int { return len(b.entries) }

func (b *BTB) index(pc uint64) uint64 {
	return (pc >> 2) & uint64(len(b.entries)-1)
}

// Predict implements predictor.IndirectPredictor.
func (b *BTB) Predict(pc uint64) (uint64, bool) {
	idx := b.index(pc)
	e := &b.entries[idx]
	b.pending.idx = idx
	b.pending.hit = e.valid
	b.pending.guess = e.target
	return e.target, e.valid
}

// Update implements predictor.IndirectPredictor.
func (b *BTB) Update(pc, target uint64) {
	e := &b.entries[b.pending.idx]
	if !e.valid {
		e.valid = true
		e.target = target
		e.hyst = counter.NewHysteresis()
		return
	}
	if e.target == target {
		if b.hysteresis {
			e.hyst.OnHit()
		}
		return
	}
	if !b.hysteresis {
		e.target = target
		return
	}
	if e.hyst.OnMiss() {
		e.target = target
	}
}

// Observe implements predictor.IndirectPredictor; BTBs keep no path history.
func (b *BTB) Observe(trace.Record) {}

// ProcessBlock implements the engine's batch fast path. A BTB holds no
// path history, so only the block's multi-target indirect records exist
// for it: the loop walks the precomputed MTIdx lane and skips the
// conditional-branch fabric entirely.
//
//ppm:hotpath whole-block BTB replay over the MT index lane
func (b *BTB) ProcessBlock(blk *trace.Block, c *stats.Counters) {
	pcs, tgts := blk.PC, blk.Target
	for _, k := range blk.MTIdx {
		pc := pcs[k]   //lint:idxsafe MTIdx entries index the block's lanes by construction
		tgt := tgts[k] //lint:idxsafe MTIdx entries index the block's lanes by construction
		target, ok := b.Predict(pc)
		c.Resolve(target, ok, tgt)
		b.Update(pc, tgt)
	}
}

// Reset implements predictor.Resetter.
func (b *BTB) Reset() {
	for i := range b.entries {
		b.entries[i] = entry{}
	}
}

var (
	_ predictor.IndirectPredictor = (*BTB)(nil)
	_ predictor.Sized             = (*BTB)(nil)
	_ predictor.Resetter          = (*BTB)(nil)
	_ predictor.Costed            = (*BTB)(nil)
)

// Bits implements predictor.Costed: each entry stores a 30-bit target and
// a valid bit, plus the 2-bit counter in the BTB2b variant.
func (b *BTB) Bits() int {
	per := 30 + 1
	if b.hysteresis {
		per += 2
	}
	return len(b.entries) * per
}
