package sim

import (
	"repro/internal/stats"
	"repro/internal/trace"
)

// BlockPredictor is the batch opt-in: a predictor that can replay a whole
// columnar block against itself, accumulating accuracy into c. The engine
// routes blocks through this method when a predictor implements it,
// hoisting the three interface dispatches per record (Predict, Update,
// Observe) into one per block.
//
// Implementations MUST be observationally equivalent to the record loop:
// for each record of the block in stream order — if the record is
// MT-indirect, predict at the pre-update history, record the outcome into
// c, then train; then observe the record (history registers, BIU). A
// predictor that consumes the switch value (ValueAware) must read it from
// the block's Value lane itself; the engine's per-record SetValue forward
// only runs on the fallback path.
type BlockPredictor interface {
	ProcessBlock(b *trace.Block, c *stats.Counters)
}

// ProcessBlock feeds one columnar block to every predictor, whole-block
// per predictor: the RAS steps through the block once, then each predictor
// replays the block in turn — batch fast path when it opts in via
// BlockPredictor, otherwise the per-record protocol on each record
// reconstructed from the lanes (the oracle, the filtered/multi PPM
// extensions). Predictors share no state with each other or with the RAS,
// so this reordering relative to the record-interleaved Process loop
// leaves every per-predictor outcome and the RAS accounting bit-identical.
//
//ppm:hotpath per-block engine step driving every predictor
func (e *Engine) ProcessBlock(b *trace.Block) {
	n := uint64(b.Len())
	e.records += n
	e.instrs += b.GapSum + n
	e.ras.ProcessBlock(b)
	for i, p := range e.preds {
		if bp := e.bp[i]; bp != nil {
			bp.ProcessBlock(b, &e.counters[i])
			continue
		}
		for k := 0; k < b.Len(); k++ {
			r := b.Record(k)
			if r.MTIndirect() {
				e.dispatch(i, r)
			}
			p.Observe(r)
		}
	}
}

// ProcessBlocks feeds a pre-decoded block sequence, block by block.
func (e *Engine) ProcessBlocks(blks []trace.Block) {
	for i := range blks {
		e.ProcessBlock(&blks[i])
	}
}
