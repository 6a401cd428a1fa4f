package sim

import "repro/internal/trace"

// Prediction is the per-dispatch outcome ProcessPredicted reports for the
// engine's first predictor.
type Prediction struct {
	Target    uint64 // predicted target; meaningful only when Predicted
	Predicted bool   // the predictor ventured a prediction
	Correct   bool   // Predicted and the target matched the committed one
}

// ProcessPredicted feeds one record through the per-record protocol —
// predict and train every predictor on MT indirect dispatches, advance the
// RAS, observe everything — and additionally surfaces the first predictor's
// prediction outcome. dispatched is false (and the outcome zero) when the
// record is not an MT indirect dispatch, where no prediction is made. The
// live-session predict stream uses this so each prediction can be streamed
// back while state mutates exactly as the batch engine would; the two paths
// are pinned identical by TestProcessPredictedMatchesProcess.
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
