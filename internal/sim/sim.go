// Package sim is the trace-driven simulation engine: it drives committed
// branch records through a set of indirect-branch predictors using the
// protocol the paper's hardware implies — predict at fetch with the
// pre-update history, resolve and train, then advance path history — and
// accumulates the misprediction statistics of Section 5. A RAS is simulated
// alongside to account for returns, which are excluded from the indirect
// predictors' workload.
package sim

import (
	"context"
	"io"

	"repro/internal/predictor"
	"repro/internal/ras"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Engine drives one record stream through any number of predictors.
type Engine struct {
	preds []predictor.IndirectPredictor
	// va is the ValueAware lane: va[i] is non-nil iff preds[i] consumes
	// the switch variable value. Precomputed at construction so Process
	// does not pay a type assertion per predictor per MT record.
	va []ValueAware
	// bp is the batch lane: bp[i] is non-nil iff preds[i] opts into
	// whole-block processing via BlockPredictor, letting ProcessBlock
	// skip the record-at-a-time fallback for it.
	bp       []BlockPredictor
	counters []stats.Counters
	ras      *ras.Stack
	records  uint64
	instrs   uint64
	// dec is the block ProcessReader decodes into, kept so repeated
	// streams through one engine reuse its lanes.
	dec trace.Block
}

// New builds an engine over the given predictors. A 64-deep RAS is
// simulated for return accounting.
func New(preds ...predictor.IndirectPredictor) *Engine {
	e := &Engine{
		preds:    preds,
		va:       make([]ValueAware, len(preds)),
		bp:       make([]BlockPredictor, len(preds)),
		counters: make([]stats.Counters, len(preds)),
		ras:      ras.New(64),
	}
	for i, p := range preds {
		e.counters[i].Predictor = p.Name()
		if v, ok := p.(ValueAware); ok {
			e.va[i] = v
		}
		if b, ok := p.(BlockPredictor); ok {
			e.bp[i] = b
		}
	}
	return e
}

// ValueAware is implemented by predictors that consume the switch variable
// value carried by a record (the Case Block Table); the engine hands them
// the value before Predict, modelling a fetch-stage value forward.
type ValueAware interface {
	SetValue(v uint32)
}

// Process feeds one committed branch record to every predictor. It is
// ProcessPredicted without the outcome capture, kept as its own loop
// because it is the record protocol's inner loop.
//
//ppm:hotpath per-record engine step driving every predictor
func (e *Engine) Process(r trace.Record) {
	e.records++
	e.instrs += uint64(r.Gap) + 1
	if r.MTIndirect() {
		for i := range e.preds {
			e.dispatch(i, r)
		}
	}
	e.ras.Process(r)
	for _, p := range e.preds {
		p.Observe(r)
	}
}

// dispatch runs predictor i through one MT indirect dispatch: forward the
// switch value (ValueAware), predict at the pre-update history, record the
// outcome and train. It is the one predict→record→update step Process,
// ProcessPredicted and ProcessBlock's record fallback share; each of them
// then observes every record.
//
//ppm:hotpath per-dispatch protocol step for one predictor
func (e *Engine) dispatch(i int, r trace.Record) (target uint64, ok bool) {
	if va := e.va[i]; va != nil { //lint:idxsafe len(e.va) == len(e.preds) by construction
		va.SetValue(r.Value)
	}
	p := e.preds[i] //lint:idxsafe i < len(e.preds) by caller contract
	target, ok = p.Predict(r.PC)
	e.counters[i].Record(ok && target == r.Target, ok) //lint:idxsafe len(e.counters) == len(e.preds) by construction
	p.Update(r.PC, r.Target)
	return target, ok
}

// ProcessAll feeds a slice of records.
func (e *Engine) ProcessAll(recs []trace.Record) {
	for _, r := range recs {
		e.Process(r)
	}
}

// ProcessReader decodes the stream block by block into one reused block
// and replays each through ProcessBlock, until EOF, a decode error, or ctx
// is done — checked between blocks, so an abandoned stream stops within
// one block's work. It returns nil at EOF, ctx's error when cancelled, and
// otherwise the decode error (trace.ErrTruncated for a cut-off stream;
// r.Count then counts the records decoded, of which the engine has
// replayed every complete block).
func (e *Engine) ProcessReader(ctx context.Context, r *trace.Reader) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := r.ReadBlock(&e.dec); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		e.ProcessBlock(&e.dec)
	}
}

// Counters returns per-predictor accuracy counters, in predictor order.
func (e *Engine) Counters() []stats.Counters { return e.counters }

// RAS exposes the simulated return address stack.
func (e *Engine) RAS() *ras.Stack { return e.ras }

// Records returns the number of branch records processed.
func (e *Engine) Records() uint64 { return e.records }

// Instructions returns the reconstructed instruction count (branches plus
// their recorded gaps).
func (e *Engine) Instructions() uint64 { return e.instrs }

// Reset returns the engine and every resettable predictor to power-up
// state.
func (e *Engine) Reset() {
	for i, p := range e.preds {
		if r, ok := p.(predictor.Resetter); ok {
			r.Reset()
		}
		e.counters[i] = stats.Counters{Predictor: p.Name()}
	}
	e.ras.Reset()
	e.records, e.instrs = 0, 0
}

// Run is a convenience: build an engine, feed the records, return counters.
func Run(recs []trace.Record, preds ...predictor.IndirectPredictor) []stats.Counters {
	e := New(preds...)
	e.ProcessAll(recs)
	return e.Counters()
}
