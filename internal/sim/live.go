package sim

import (
	"repro/internal/stats"
	"repro/internal/trace"
)

// Prediction is the per-dispatch outcome of the engine's first predictor:
// the element of ProcessBlockPredicted's outcome lane and the result of
// ProcessPredicted.
type Prediction = stats.Prediction

// ProcessBlockPredicted is ProcessBlock that also appends the first
// predictor's outcome for every MT indirect dispatch of b — one per b.MTIdx
// entry, in stream order — to dst, and returns the extended slice. The
// outcomes come from the Counters.Resolve call every dispatch loop already
// makes (the batch fast paths and the record fallback alike), through a
// lane attached to the first predictor's counters for the duration of the
// call, so every family reports them with no per-family code. dst is grown
// to the block's dispatch count up front; with its storage reused across
// blocks, a steady-state call does not allocate. This is the live
// session's predict step. Panics if the engine has no predictor.
//
//ppm:hotpath per-block engine step with the first predictor's outcome lane
func (e *Engine) ProcessBlockPredicted(b *trace.Block, dst []Prediction) []Prediction {
	if need := len(dst) + len(b.MTIdx); cap(dst) < need {
		dst = append(dst[:cap(dst)], make([]Prediction, need-cap(dst))...)[:len(dst)] //lint:coldpath grows only until dst's reused storage fits a block's dispatches
	}
	e.lane = dst
	c := &e.counters[0]
	c.Attach(&e.lane)
	e.ProcessBlock(b)
	c.Attach(nil)
	dst, e.lane = e.lane, nil
	return dst
}

// ProcessPredicted feeds one record through the per-record protocol —
// predict and train every predictor on MT indirect dispatches, advance the
// RAS, observe everything — and additionally surfaces the first predictor's
// prediction outcome. dispatched is false (and the outcome zero) when the
// record is not an MT indirect dispatch, where no prediction is made. It
// builds the outcome itself rather than through the outcome lane, which
// makes it the per-record reference ProcessBlockPredicted is held to: the
// benchmark's expected prediction streams and internal/check's blocks and
// snapshot oracles replay against it, and TestProcessPredictedMatchesProcess
// pins it to the batch engine.
func (e *Engine) ProcessPredicted(r trace.Record) (p Prediction, dispatched bool) {
	e.records++
	e.instrs += uint64(r.Gap) + 1
	if r.MTIndirect() {
		dispatched = true
		for i := range e.preds {
			target, ok := e.dispatch(i, r)
			if i == 0 {
				p = Prediction{Target: target, Predicted: ok, Correct: ok && target == r.Target}
			}
		}
	}
	e.ras.Process(r)
	for _, pr := range e.preds {
		pr.Observe(r)
	}
	return p, dispatched
}
