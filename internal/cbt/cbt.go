// Package cbt implements the Case Block Table of Kaeli & Emma, discussed
// in the paper's Related Work section: a predictor for switch-statement
// indirect jumps keyed on the *switch variable value*. Because the value
// is an exact selector, the CBT resolves switch targets perfectly — but,
// as the paper notes (citing Chang et al.), "the value of the switch
// variable is not always known at the time the code for the switch
// statement reaches the instruction fetch stage of a superscalar machine
// employing speculative execution."
//
// This implementation models that limitation with an availability
// probability: on each fetch the value is usable with probability p
// (deterministically derived from the run's progress), and the CBT falls
// back to a BTB-style most-recent-target entry otherwise. p = 1 gives the
// idealized CBT; p = 0 degenerates to a BTB.
package cbt

import (
	"fmt"

	"repro/internal/hashing"
	"repro/internal/predictor"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Config parameterizes a Case Block Table.
type Config struct {
	// Name labels the predictor; defaults to "CBT(p=<availability>)".
	Name string
	// Entries is the table capacity in (pc, value) associations
	// (power of two).
	Entries int
	// Availability is the probability the switch value is known at fetch.
	Availability float64
	// Seed drives the deterministic availability draw.
	Seed uint64
}

type entry struct {
	valid  bool
	key    uint64
	target uint64
}

// CBT is the value-keyed switch-target predictor.
type CBT struct {
	cfg      Config
	table    []entry // (pc,value)-keyed associations
	fallback []entry // pc-keyed most-recent-target entries
	draws    uint64
	pending  struct {
		haveValue bool
		key       uint64
		fIdx      uint64
		value     uint32
	}

	valueHits uint64
	lookups   uint64
}

// New builds a CBT. Panics on invalid configuration.
func New(cfg Config) *CBT {
	if cfg.Entries <= 0 || cfg.Entries&(cfg.Entries-1) != 0 {
		panic(fmt.Sprintf("cbt: entries must be a positive power of two, got %d", cfg.Entries))
	}
	if cfg.Availability < 0 || cfg.Availability > 1 {
		panic(fmt.Sprintf("cbt: availability %v out of [0,1]", cfg.Availability))
	}
	return &CBT{
		cfg:      cfg,
		table:    make([]entry, cfg.Entries),
		fallback: make([]entry, cfg.Entries/2),
	}
}

// Name implements predictor.IndirectPredictor.
func (c *CBT) Name() string {
	if c.cfg.Name != "" {
		return c.cfg.Name
	}
	return fmt.Sprintf("CBT(p=%.2f)", c.cfg.Availability)
}

// Entries implements predictor.Sized.
func (c *CBT) Entries() int { return len(c.table) + len(c.fallback) }

// SetValue implements sim's ValueAware hook: the engine passes the
// record's switch value before Predict. The CBT decides — with its
// configured availability — whether the value would have been computed by
// fetch time.
func (c *CBT) SetValue(v uint32) {
	c.pending.value = 0
	if v == 0 {
		return
	}
	c.draws++
	// Deterministic Bernoulli draw from the run position.
	draw := float64(hashing.Mix64(c.cfg.Seed^c.draws*0x9e3779b97f4a7c15)>>11) / float64(uint64(1)<<53)
	if draw < c.cfg.Availability {
		c.pending.value = v
	}
}

func (c *CBT) key(pc uint64, value uint32) uint64 {
	return hashing.Mix64(pc>>2 ^ uint64(value)<<40)
}

// Predict implements predictor.IndirectPredictor.
func (c *CBT) Predict(pc uint64) (uint64, bool) {
	c.lookups++
	if v := c.pending.value; v != 0 {
		k := c.key(pc, v)
		c.pending.haveValue = true
		c.pending.key = k
		e := &c.table[k&uint64(len(c.table)-1)]
		if e.valid && e.key == k {
			c.valueHits++
			return e.target, true
		}
		// Known value but no association yet: fall through to the
		// pc-keyed entry below.
	} else {
		c.pending.haveValue = false
	}
	fIdx := (pc >> 2) & uint64(len(c.fallback)-1)
	c.pending.fIdx = fIdx
	fe := &c.fallback[fIdx]
	if fe.valid && fe.key == pc {
		return fe.target, true
	}
	return 0, false
}

// Update implements predictor.IndirectPredictor.
func (c *CBT) Update(pc, target uint64) {
	if c.pending.haveValue {
		k := c.pending.key
		c.table[k&uint64(len(c.table)-1)] = entry{valid: true, key: k, target: target}
	}
	fIdx := (pc >> 2) & uint64(len(c.fallback)-1)
	c.fallback[fIdx] = entry{valid: true, key: pc, target: target}
	c.pending.value = 0
	c.pending.haveValue = false
}

// Observe implements predictor.IndirectPredictor; the CBT keeps no path
// history.
func (c *CBT) Observe(trace.Record) {}

// ProcessBlock implements the engine's batch fast path. With Observe a
// no-op, only the multi-target indirect positions matter: the MTIdx lane
// jumps straight to them and the Value lane supplies the switch value the
// engine's per-record SetValue forward would have carried (a nil lane means
// no record in the block carried a value).
//
//ppm:hotpath whole-block CBT replay
func (c *CBT) ProcessBlock(b *trace.Block, ctr *stats.Counters) {
	pcs, tgts, vals := b.PC, b.Target, b.Value
	for _, k := range b.MTIdx {
		if vals != nil {
			c.SetValue(vals[k]) //lint:idxsafe MTIdx entries index the block's lanes by construction
		} else {
			c.SetValue(0)
		}
		pc, tgt := pcs[k], tgts[k] //lint:idxsafe MTIdx entries index the block's lanes by construction
		target, ok := c.Predict(pc)
		ctr.Resolve(target, ok, tgt)
		c.Update(pc, tgt)
	}
}

// ValueHitRate reports the fraction of lookups served from a value-keyed
// association.
func (c *CBT) ValueHitRate() float64 {
	if c.lookups == 0 {
		return 0
	}
	return float64(c.valueHits) / float64(c.lookups)
}

// Reset implements predictor.Resetter.
func (c *CBT) Reset() {
	for i := range c.table {
		c.table[i] = entry{}
	}
	for i := range c.fallback {
		c.fallback[i] = entry{}
	}
	c.draws, c.valueHits, c.lookups = 0, 0, 0
	c.pending.value = 0
	c.pending.haveValue = false
}

var (
	_ predictor.IndirectPredictor = (*CBT)(nil)
	_ predictor.Sized             = (*CBT)(nil)
	_ predictor.Resetter          = (*CBT)(nil)
)
