package sim

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/internal/btb"
	"repro/internal/core"
	"repro/internal/trace"
)

func mtJmp(pc, target uint64, gap uint32) trace.Record {
	return trace.Record{PC: pc, Target: target, Class: trace.IndirectJmp, Taken: true, MT: true, Gap: gap}
}

func TestEngineCountsOnlyMTIndirect(t *testing.T) {
	e := New(btb.New(64))
	e.Process(trace.Record{PC: 0x10, Target: 0x14, Class: trace.CondDirect, Taken: false, Gap: 2})
	e.Process(trace.Record{PC: 0x20, Target: 0x9000, Class: trace.IndirectJsr, Taken: true, MT: false})
	e.Process(trace.Record{PC: 0x9010, Target: 0x24, Class: trace.Return, Taken: true})
	e.Process(mtJmp(0x30, 0x4000, 1))
	c := e.Counters()[0]
	if c.Lookups != 1 {
		t.Errorf("Lookups = %d, want 1 (only the MT indirect record)", c.Lookups)
	}
	if e.Records() != 4 {
		t.Errorf("Records = %d, want 4", e.Records())
	}
	if e.Instructions() != 7 { // gaps 2+0+0+1 plus the 4 branches
		t.Errorf("Instructions = %d", e.Instructions())
	}
}

func TestEngineAccuracyAccounting(t *testing.T) {
	e := New(btb.New(64))
	e.Process(mtJmp(0x40, 0x1000, 0)) // cold: abstain
	e.Process(mtJmp(0x40, 0x1000, 0)) // correct
	e.Process(mtJmp(0x40, 0x2000, 0)) // wrong
	c := e.Counters()[0]
	if c.NoPrediction != 1 || c.Correct != 1 || c.Wrong != 1 {
		t.Errorf("counters: %+v", c)
	}
	if c.Mispredictions() != 2 {
		t.Errorf("Mispredictions = %d", c.Mispredictions())
	}
}

func TestEngineMultiplePredictorsIndependent(t *testing.T) {
	e := New(btb.New(64), core.PaperHyb())
	for i := 0; i < 100; i++ {
		tgt := uint64(0x1010)
		if i%2 == 1 {
			tgt = 0x2020
		}
		e.Process(mtJmp(0x40, tgt, 0))
	}
	counters := e.Counters()
	if counters[0].Predictor != "BTB" || counters[1].Predictor != "PPM-hyb" {
		t.Fatalf("names: %q %q", counters[0].Predictor, counters[1].Predictor)
	}
	// Alternating targets: BTB is always wrong after warm-up; PPM learns.
	if counters[0].MispredictionRatio() < 0.9 {
		t.Errorf("BTB ratio = %v on alternation, expected ~1", counters[0].MispredictionRatio())
	}
	if counters[1].MispredictionRatio() > 0.2 {
		t.Errorf("PPM ratio = %v on alternation, expected small", counters[1].MispredictionRatio())
	}
}

func TestEngineRAS(t *testing.T) {
	e := New()
	e.Process(trace.Record{PC: 0x100, Target: 0x5000, Class: trace.DirectCall, Taken: true})
	e.Process(trace.Record{PC: 0x5020, Target: 0x104, Class: trace.Return, Taken: true})
	hits, total := e.RAS().Accuracy()
	if hits != 1 || total != 1 {
		t.Errorf("RAS accuracy %d/%d", hits, total)
	}
}

func TestEngineReset(t *testing.T) {
	e := New(btb.New(64))
	e.Process(mtJmp(0x40, 0x1000, 3))
	e.Reset()
	if e.Records() != 0 || e.Instructions() != 0 {
		t.Error("engine counters survived Reset")
	}
	if e.Counters()[0].Lookups != 0 {
		t.Error("predictor counters survived Reset")
	}
	// Predictor state also reset: next lookup is cold.
	e.Process(mtJmp(0x40, 0x1000, 0))
	if e.Counters()[0].NoPrediction != 1 {
		t.Error("predictor state survived Reset")
	}
}

func TestProcessReader(t *testing.T) {
	var buf bytes.Buffer
	w, _ := trace.NewWriter(&buf)
	for i := 0; i < 50; i++ {
		_ = w.Write(mtJmp(0x40, uint64(0x1000+(i%3)*0x40), 2))
	}
	_ = w.Flush()
	data := buf.Bytes()
	r, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	e := New(btb.New(16))
	if err := e.ProcessReader(context.Background(), r); err != nil {
		t.Fatal(err)
	}
	if e.Records() != 50 {
		t.Errorf("Records = %d, want 50", e.Records())
	}

	// A cut-off stream surfaces ErrTruncated with Count intact.
	r, _ = trace.NewReader(bytes.NewReader(data[:len(data)-1]))
	if err := New(btb.New(16)).ProcessReader(context.Background(), r); !errors.Is(err, trace.ErrTruncated) {
		t.Errorf("truncated stream: err = %v, want ErrTruncated", err)
	}
	if r.Count() != 49 {
		t.Errorf("truncated stream: Count = %d, want 49", r.Count())
	}

	// A done context stops the replay before the next block.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r, _ = trace.NewReader(bytes.NewReader(data))
	e = New(btb.New(16))
	if err := e.ProcessReader(ctx, r); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled replay: err = %v, want context.Canceled", err)
	}
	if e.Records() != 0 {
		t.Errorf("cancelled replay processed %d records, want 0", e.Records())
	}
}

func TestRunConvenience(t *testing.T) {
	recs := []trace.Record{mtJmp(0x40, 0x1000, 0), mtJmp(0x40, 0x1000, 0)}
	counters := Run(recs, btb.New(16))
	if counters[0].Lookups != 2 || counters[0].Correct != 1 {
		t.Errorf("Run counters: %+v", counters[0])
	}
}

// valueSpy records the values the engine forwards through the ValueAware
// lane, proving New hoists the capability check out of the record loop
// without losing the value forward.
type valueSpy struct {
	values []uint32
}

func (v *valueSpy) Name() string                  { return "spy" }
func (v *valueSpy) Predict(uint64) (uint64, bool) { return 0, false }
func (v *valueSpy) Update(uint64, uint64)         {}
func (v *valueSpy) Observe(trace.Record)          {}
func (v *valueSpy) SetValue(val uint32)           { v.values = append(v.values, val) }

var _ ValueAware = (*valueSpy)(nil)

func TestValueAwareLane(t *testing.T) {
	spy := &valueSpy{}
	plain := btb.New(64)
	e := New(plain, spy)
	rec := mtJmp(0x50, 0x3000, 0)
	rec.Value = 7
	e.Process(rec)
	e.Process(trace.Record{PC: 0x60, Target: 0x64, Class: trace.CondDirect, Taken: true})
	rec.Value = 9
	e.Process(rec)
	if len(spy.values) != 2 || spy.values[0] != 7 || spy.values[1] != 9 {
		t.Errorf("ValueAware saw %v, want [7 9] (MT records only)", spy.values)
	}
	if e.Counters()[0].Lookups != 2 || e.Counters()[1].Lookups != 2 {
		t.Errorf("lanes disturbed the counter protocol: %+v", e.Counters())
	}
}
