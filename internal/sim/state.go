package sim

import "repro/internal/state"

// Snapshot implements state.Snapshotter: the engine's accounting and
// per-predictor counters, the RAS, then every predictor in attachment
// order. Panics if a predictor does not implement state.Snapshotter.
func (e *Engine) Snapshot(w *state.Writer) {
	w.Begin(state.SecEngine)
	w.U64(uint64(len(e.preds)))
	w.U64(e.records)
	w.U64(e.instrs)
	for i := range e.counters {
		c := &e.counters[i]
		w.U64(c.Lookups)
		w.U64(c.Correct)
		w.U64(c.Wrong)
		w.U64(c.NoPrediction)
	}
	w.End()
	e.ras.Snapshot(w)
	for _, p := range e.preds {
		p.(state.Snapshotter).Snapshot(w)
	}
}

// Restore implements state.Snapshotter into an engine built over an
// identically-ordered predictor set. Panics if a predictor does not
// implement state.Snapshotter.
func (e *Engine) Restore(r *state.Reader) error {
	if err := r.Begin(state.SecEngine); err != nil {
		return err
	}
	if n := r.U64(); n != uint64(len(e.preds)) {
		if err := r.Err(); err != nil {
			return err
		}
		return state.Mismatchf("engine has %d predictors, snapshot %d", len(e.preds), n)
	}
	records := r.U64()
	instrs := r.U64()
	for i := range e.counters {
		c := &e.counters[i]
		c.Lookups = r.U64()
		c.Correct = r.U64()
		c.Wrong = r.U64()
		c.NoPrediction = r.U64()
	}
	if err := r.End(); err != nil {
		return err
	}
	if err := e.ras.Restore(r); err != nil {
		return err
	}
	for _, p := range e.preds {
		if err := p.(state.Snapshotter).Restore(r); err != nil {
			return err
		}
	}
	e.records, e.instrs = records, instrs
	return nil
}

var _ state.Snapshotter = (*Engine)(nil)
