package trace_test

import (
	"bytes"
	"fmt"
	"io"
	"slices"
	"testing"

	"repro/internal/check"
	"repro/internal/trace"
)

// lanesEqual reports the first lane on which two blocks differ.
func lanesEqual(a, b *trace.Block) error {
	switch {
	case a.Len() != b.Len():
		return fmt.Errorf("length %d vs %d", a.Len(), b.Len())
	case !slices.Equal(a.PC, b.PC):
		return fmt.Errorf("PC lane differs")
	case !slices.Equal(a.Target, b.Target):
		return fmt.Errorf("Target lane differs")
	case !slices.Equal(a.Meta, b.Meta):
		return fmt.Errorf("Meta lane differs")
	case !slices.Equal(a.Gap, b.Gap):
		return fmt.Errorf("Gap lane differs")
	case (a.Value == nil) != (b.Value == nil):
		return fmt.Errorf("Value lane present %t vs %t", a.Value != nil, b.Value != nil)
	case !slices.Equal(a.Value, b.Value):
		return fmt.Errorf("Value lane differs")
	case !slices.Equal(a.MTIdx, b.MTIdx):
		return fmt.Errorf("MTIdx lane differs")
	case !slices.Equal(a.PIBIdx, b.PIBIdx):
		return fmt.Errorf("PIBIdx lane differs")
	case a.GapSum != b.GapSum:
		return fmt.Errorf("GapSum %d vs %d", a.GapSum, b.GapSum)
	}
	return nil
}

// TestBuilderPathsAgree holds the three ways a trace becomes blocks to one
// result: workload generation emitting straight into a BlockBuilder,
// Blocks over the same records, and Reader.ReadBlock over their IBT2
// encoding must give lane-identical blocks. Lengths straddle the block
// boundary, and one variant gives a record mid-way through the second
// block a switch value so the Value lane starts late and back-fills.
func TestBuilderPathsAgree(t *testing.T) {
	const valueAt = trace.BlockCap + trace.BlockCap/2
	for _, seed := range []uint64{1, 2, 3} {
		cfg := check.RandomConfig(seed, 2*trace.BlockCap)
		for _, n := range []int{0, 1, trace.BlockCap - 1, trace.BlockCap, trace.BlockCap + 1, valueAt + 1} {
			for _, midValue := range []bool{false, true} {
				t.Run(fmt.Sprintf("seed%d/n%d/value%t", seed, n, midValue), func(t *testing.T) {
					// The emit path, cut at n records.
					bb := trace.NewBlockBuilder(trace.BlockCap)
					var recs []trace.Record
					cfg.Generate(func(r trace.Record) {
						if len(recs) == n {
							return
						}
						if midValue && len(recs) == valueAt {
							r.Value = 7
						}
						recs = append(recs, r)
						bb.Add(r)
					})
					if len(recs) != n {
						t.Fatalf("workload emitted %d records, want at least %d", len(recs), n)
					}
					emitted := bb.Blocks()
					converted := trace.Blocks(recs)
					if len(emitted) != len(converted) {
						t.Fatalf("emit path built %d blocks, Blocks %d", len(emitted), len(converted))
					}
					for i := range emitted {
						if err := lanesEqual(&emitted[i], &converted[i]); err != nil {
							t.Fatalf("block %d: emit path vs Blocks: %v", i, err)
						}
					}
					if midValue && n > valueAt && emitted[1].Value == nil {
						t.Fatal("mid-block switch value did not materialize the Value lane")
					}

					var buf bytes.Buffer
					w, err := trace.NewWriter(&buf)
					if err != nil {
						t.Fatal(err)
					}
					for _, r := range recs {
						if err := w.Write(r); err != nil {
							t.Fatal(err)
						}
					}
					if err := w.Flush(); err != nil {
						t.Fatal(err)
					}
					rd, err := trace.NewReader(&buf)
					if err != nil {
						t.Fatal(err)
					}
					var b trace.Block
					for i := 0; ; i++ {
						err := rd.ReadBlock(&b)
						if err == io.EOF {
							if i != len(emitted) {
								t.Fatalf("ReadBlock decoded %d blocks, want %d", i, len(emitted))
							}
							break
						}
						if err != nil {
							t.Fatal(err)
						}
						if i >= len(emitted) {
							t.Fatalf("ReadBlock decoded more than %d blocks", len(emitted))
						}
						if err := lanesEqual(&b, &emitted[i]); err != nil {
							t.Fatalf("block %d: ReadBlock vs emit path: %v", i, err)
						}
					}
				})
			}
		}
	}
}
