package sim_test

import (
	"bytes"
	"testing"

	"repro/internal/bench"
	"repro/internal/check"
	"repro/internal/sim"
	"repro/internal/state"
	"repro/internal/trace"
)

// TestProcessPredictedMatchesProcess pins the live predict step to the batch
// engine: replaying the same trace through ProcessBlocks (every family's
// block fast path) and record by record through ProcessPredicted must leave
// byte-identical engine state for every family, and the surfaced
// predictions must sum to exactly the engine's counters.
func TestProcessPredictedMatchesProcess(t *testing.T) {
	recs := check.RandomTrace(0x11FE, 3000)
	for _, name := range bench.PredictorNames() {
		t.Run(name, func(t *testing.T) {
			pa, _ := bench.NewPredictor(name)
			pb, _ := bench.NewPredictor(name)
			batch, live := sim.New(pa), sim.New(pb)
			batch.ProcessBlocks(trace.Blocks(recs))

			var dispatches, predicted, correct uint64
			for _, r := range recs {
				p, ok := live.ProcessPredicted(r)
				if !ok {
					continue
				}
				dispatches++
				if p.Predicted {
					predicted++
				}
				if p.Correct {
					correct++
				}
			}

			a, b := state.SaveBytes(batch), state.SaveBytes(live)
			if !bytes.Equal(a, b) {
				t.Fatalf("live replay diverged from batch: snapshots %d vs %d bytes", len(a), len(b))
			}
			c := live.Counters()[0]
			if c.Lookups != dispatches {
				t.Errorf("dispatches %d, counters saw %d lookups", dispatches, c.Lookups)
			}
			if got := c.Correct + c.Wrong; got != predicted {
				t.Errorf("predicted %d, counters saw %d predictions", predicted, got)
			}
			if c.Correct != correct {
				t.Errorf("correct %d, counters saw %d", correct, c.Correct)
			}
		})
	}
}
