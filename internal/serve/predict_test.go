package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/race"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestAppendPredLineMatchesJSON pins the hand-written pred-line encoder to
// encoding/json's encoding of the same PredictEvent, byte for byte: over
// random events and over the edge values — zero pc, target and actual
// (omitted by omitempty), math.MaxUint64, and every predicted/correct
// combination.
func TestAppendPredLineMatchesJSON(t *testing.T) {
	edges := []uint64{0, 1, 9, 10, math.MaxUint32, math.MaxUint64 - 1, math.MaxUint64}
	type line struct {
		seq, pc, actual uint64
		p               sim.Prediction
	}
	var cases []line
	for _, seq := range edges {
		for _, v := range edges {
			for _, predicted := range []bool{false, true} {
				for _, correct := range []bool{false, true} {
					cases = append(cases,
						line{seq, v, v, sim.Prediction{Target: v, Predicted: predicted, Correct: correct}},
						line{seq, v, 0, sim.Prediction{Target: 0, Predicted: predicted, Correct: correct}},
						line{seq, 0, v, sim.Prediction{Target: v, Predicted: predicted, Correct: correct}})
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(0x9e3779b9))
	for range 5000 {
		cases = append(cases, line{rng.Uint64() >> rng.Intn(64), rng.Uint64() >> rng.Intn(64), rng.Uint64() >> rng.Intn(64),
			sim.Prediction{Target: rng.Uint64() >> rng.Intn(64), Predicted: rng.Intn(2) == 0, Correct: rng.Intn(2) == 0}})
	}

	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	var got []byte
	for _, c := range cases {
		ev := PredictEvent{Type: "pred", Seq: c.seq, PC: c.pc, Actual: c.actual,
			Predicted: c.p.Predicted, Correct: c.p.Correct}
		if c.p.Predicted {
			ev.Target = c.p.Target
		}
		want.Reset()
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
		got = appendPredLine(got[:0], c.seq, c.pc, c.actual, c.p)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%+v:\n got %s\nwant %s", c, got, want.Bytes())
		}
	}
}

// TestPredictCoreZeroAllocSteadyState pins the predict call's core loop —
// IBT2 decode into the pooled block, the block engine with the outcome lane
// attached, and pred-line encoding into the pooled line buffer, flushed in
// batches — to zero allocations per call once the scratch has grown.
func TestPredictCoreZeroAllocSteadyState(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc counts asserted in the non-race run")
	}
	body := encodeIBT2(t, benchRecords(t, "troff.ped", 3000))
	src := bytes.NewReader(body)
	p, _ := bench.NewPredictor("PPM-hyb")
	eng := sim.New(p)
	var sc predictScratch
	ctx := context.Background()
	call := func() {
		src.Reset(body)
		if err := sc.tr.Reset(src); err != nil {
			t.Fatal(err)
		}
		sc.out = sc.out[:0]
		gone, err := sc.stream(ctx, eng, io.Discard)
		if n := sc.tr.Count(); gone || err != io.EOF || n <= trace.BlockCap {
			t.Fatalf("stream: %d records, gone %v, err %v; want more than a block and a clean end", n, gone, err)
		}
	}
	call()
	if avg := testing.AllocsPerRun(10, call); avg != 0 {
		t.Errorf("predict core: %.2f allocs per steady-state call, want 0", avg)
	}
}
