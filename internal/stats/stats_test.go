package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCountersRecord(t *testing.T) {
	var c Counters
	c.Record(true, true)   // correct
	c.Record(false, true)  // wrong
	c.Record(false, false) // abstained
	if c.Lookups != 3 || c.Correct != 1 || c.Wrong != 1 || c.NoPrediction != 1 {
		t.Fatalf("counters: %+v", c)
	}
	if c.Mispredictions() != 2 {
		t.Errorf("Mispredictions = %d, want 2 (abstentions count)", c.Mispredictions())
	}
	if got := c.MispredictionRatio(); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("ratio = %v", got)
	}
	if got := c.Accuracy(); math.Abs(got-1.0/3.0) > 1e-12 {
		t.Errorf("accuracy = %v", got)
	}
}

func TestCountersZero(t *testing.T) {
	var c Counters
	if c.MispredictionRatio() != 0 {
		t.Error("empty counters ratio != 0")
	}
}

func TestCountersAdd(t *testing.T) {
	a := Counters{Predictor: "x", Lookups: 10, Correct: 7, Wrong: 2, NoPrediction: 1}
	b := Counters{Predictor: "x", Lookups: 5, Correct: 5}
	a.Add(b)
	if a.Lookups != 15 || a.Correct != 12 || a.Wrong != 2 || a.NoPrediction != 1 {
		t.Errorf("Add: %+v", a)
	}
}

func TestMeanRatio(t *testing.T) {
	runs := []Counters{
		{Lookups: 100, Wrong: 10},                // 10%
		{Lookups: 1000, Wrong: 200},              // 20%
		{Lookups: 0},                             // skipped
		{Lookups: 10, Wrong: 2, NoPrediction: 1}, // 30%
	}
	if got := MeanRatio(runs); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("MeanRatio = %v, want 0.2", got)
	}
	if MeanRatio(nil) != 0 {
		t.Error("MeanRatio(nil) != 0")
	}
}

func TestRatiosBounded(t *testing.T) {
	f := func(correct, wrong, nop uint32) bool {
		c := Counters{
			Lookups:      uint64(correct) + uint64(wrong) + uint64(nop),
			Correct:      uint64(correct),
			Wrong:        uint64(wrong),
			NoPrediction: uint64(nop),
		}
		r := c.MispredictionRatio()
		return r >= 0 && r <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCountersString(t *testing.T) {
	c := Counters{Predictor: "PPM-hyb", Lookups: 200, Correct: 180, Wrong: 15, NoPrediction: 5}
	s := c.String()
	if !strings.Contains(s, "PPM-hyb") || !strings.Contains(s, "10.00%") {
		t.Errorf("String = %q", s)
	}
}

func TestDistribution(t *testing.T) {
	d := Distribution{Labels: []string{"a", "b"}, Counts: []uint64{30, 10}}
	if d.Total() != 40 {
		t.Errorf("Total = %d", d.Total())
	}
	if math.Abs(d.Share(0)-0.75) > 1e-12 {
		t.Errorf("Share(0) = %v", d.Share(0))
	}
	empty := Distribution{Labels: []string{"a"}, Counts: []uint64{0}}
	if empty.Share(0) != 0 {
		t.Error("empty distribution Share != 0")
	}
}
