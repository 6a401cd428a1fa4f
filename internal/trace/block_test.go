package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"

	"repro/internal/race"
)

// blockRecords builds a stream long enough to span several small blocks,
// mixing every class, ST and MT indirect branches, and a late switch value
// so the lazy Value lane's back-fill path runs.
func blockRecords(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		r := Record{PC: 0x120000000 + uint64(i)*4, Gap: uint32(i % 7)}
		switch i % 9 {
		case 0:
			r.Class, r.Taken, r.MT = IndirectJmp, true, true
			r.Target = 0x140000000 + uint64(i%5)*16
			if i%18 == 0 {
				r.Value = uint32(i%5) + 1
			}
		case 1:
			r.Class, r.Taken = IndirectJsr, true
			r.Target = 0x150000000
		case 2:
			r.Class, r.Taken, r.MT = IndirectJsr, true, true
			r.Target = 0x150000000 + uint64(i%3)*32
		case 3:
			r.Class, r.Taken = DirectCall, true
			r.Target = 0x160000000
		case 4:
			r.Class, r.Taken = Return, true
			r.Target = 0x120000000 + uint64(i)*4
		default:
			r.Class = CondDirect
			r.Taken = i%2 == 0
			if r.Taken {
				r.Target = r.PC + 0x80
			} else {
				r.Target = r.PC + 4
			}
		}
		recs[i] = r
	}
	return recs
}

func TestBlocksRoundTrip(t *testing.T) {
	recs := blockRecords(1000)
	blks := BlocksSized(recs, 64)
	if want := (1000 + 63) / 64; len(blks) != want {
		t.Fatalf("got %d blocks, want %d", len(blks), want)
	}
	got := BlocksRecords(blks)
	if len(got) != len(recs) {
		t.Fatalf("flattened %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestBlocksDerivedLanes(t *testing.T) {
	recs := blockRecords(500)
	for bi, b := range BlocksSized(recs, 128) {
		var mt, pib []int32
		var gaps uint64
		for i := 0; i < b.Len(); i++ {
			r := b.Record(i)
			gaps += uint64(r.Gap)
			if r.PIBStream() {
				pib = append(pib, int32(i))
				if r.MT {
					mt = append(mt, int32(i))
				}
			}
		}
		if gaps != b.GapSum {
			t.Errorf("block %d: GapSum = %d, want %d", bi, b.GapSum, gaps)
		}
		if len(mt) != len(b.MTIdx) || len(pib) != len(b.PIBIdx) {
			t.Fatalf("block %d: index lane lengths MT=%d/%d PIB=%d/%d",
				bi, len(b.MTIdx), len(mt), len(b.PIBIdx), len(pib))
		}
		for i := range mt {
			if b.MTIdx[i] != mt[i] {
				t.Errorf("block %d: MTIdx[%d] = %d, want %d", bi, i, b.MTIdx[i], mt[i])
			}
		}
		for i := range pib {
			if b.PIBIdx[i] != pib[i] {
				t.Errorf("block %d: PIBIdx[%d] = %d, want %d", bi, i, b.PIBIdx[i], pib[i])
			}
		}
	}
}

func TestBlocksValueLaneLazy(t *testing.T) {
	noValues := Blocks([]Record{
		{Class: CondDirect, PC: 4, Target: 8, Taken: true},
		{Class: IndirectJmp, PC: 12, Target: 0x100, Taken: true, MT: true},
	})
	if noValues[0].Value != nil {
		t.Error("Value lane materialized for a value-free block")
	}
	// A value arriving mid-block must back-fill zeros for earlier records.
	recs := []Record{
		{Class: CondDirect, PC: 4, Target: 8, Taken: true},
		{Class: IndirectJmp, PC: 12, Target: 0x100, Taken: true, MT: true, Value: 3},
		{Class: CondDirect, PC: 16, Target: 20},
	}
	b := Blocks(recs)[0]
	if b.Value == nil {
		t.Fatal("Value lane missing despite a value-carrying record")
	}
	for i, want := range []uint32{0, 3, 0} {
		if got := b.Record(i).Value; got != want {
			t.Errorf("record %d value = %d, want %d", i, got, want)
		}
	}
}

func TestBlocksSizedPanicsOnBadCap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("BlocksSized(recs, 0) did not panic")
		}
	}()
	BlocksSized(blockRecords(4), 0)
}

func TestBlocksBytesColumnarModel(t *testing.T) {
	recs := blockRecords(100)
	b := Blocks(recs)[0]
	// Fixed lanes are preallocated to the build size; index lanes grow.
	want := int64(cap(b.PC))*8 + int64(cap(b.Target))*8 + int64(cap(b.Meta)) +
		int64(cap(b.Gap))*4 + int64(cap(b.Value))*4 +
		int64(cap(b.MTIdx))*4 + int64(cap(b.PIBIdx))*4
	if got := b.Bytes(); got != want {
		t.Errorf("Bytes() = %d, want %d", got, want)
	}
	blks := Blocks(recs)
	var sum int64
	for i := range blks {
		sum += blks[i].Bytes()
	}
	if got := BlocksBytes(blks); got != sum+int64(cap(blks))*blockHeaderBytes {
		t.Errorf("BlocksBytes = %d, want lanes %d plus %d headers of %d bytes",
			got, sum, cap(blks), blockHeaderBytes)
	}
}

func TestReadBlocksMatchesReadAll(t *testing.T) {
	recs := blockRecords(10_000) // > 2 full BlockCap blocks plus a remainder
	rd, err := NewReader(bytes.NewReader(encodeRecords(t, recs)))
	if err != nil {
		t.Fatal(err)
	}
	var b Block
	var got []Record
	for n := 0; ; n++ {
		err := rd.ReadBlock(&b)
		if err == io.EOF {
			if b.Len() != 0 {
				t.Errorf("io.EOF left %d records in the block", b.Len())
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(got)+b.Len() < len(recs) && b.Len() != BlockCap {
			t.Errorf("block %d holds %d records, want BlockCap=%d", n, b.Len(), BlockCap)
		}
		got = append(got, BlocksRecords([]Block{b})...)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestReadBlocksTruncated(t *testing.T) {
	data := encodeRecords(t, blockRecords(10))
	rd, err := NewReader(bytes.NewReader(data[:len(data)-1]))
	if err != nil {
		t.Fatal(err)
	}
	var b Block
	if err := rd.ReadBlock(&b); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated stream: err = %v, want ErrTruncated", err)
	}
	if rd.Count() != 9 || b.Len() != 9 {
		t.Errorf("salvaged Count %d, block %d records from the truncated stream, want 9", rd.Count(), b.Len())
	}
}

// TestReadBlockZeroAllocSteadyState pins the decode loop's reuse: once a
// block's lanes (Value lane included) have grown, refilling it from a
// reset reader allocates nothing.
func TestReadBlockZeroAllocSteadyState(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	data := encodeRecords(t, blockRecords(3*BlockCap+17))
	src := bytes.NewReader(data)
	rd, err := NewReader(src)
	if err != nil {
		t.Fatal(err)
	}
	var b Block
	drain := func() {
		src.Reset(data)
		if err := rd.Reset(src); err != nil {
			t.Fatal(err)
		}
		for rd.ReadBlock(&b) == nil {
		}
	}
	drain()
	if allocs := testing.AllocsPerRun(10, drain); allocs != 0 {
		t.Errorf("ReadBlock loop: %v allocs/op, want 0", allocs)
	}
}

func TestBlocksRoundTripProperty(t *testing.T) {
	f := func(pcs, tgts []uint64, classes []uint8, gaps []uint32, blockCap uint8) bool {
		n := len(pcs)
		for _, l := range []int{len(tgts), len(classes), len(gaps)} {
			if l < n {
				n = l
			}
		}
		recs := make([]Record, n)
		for i := 0; i < n; i++ {
			recs[i] = Record{
				PC:     pcs[i],
				Target: tgts[i],
				Class:  Class(classes[i] % 7),
				Taken:  classes[i]%2 == 0,
				MT:     classes[i]%3 == 0,
				Gap:    gaps[i],
				Value:  uint32(classes[i]) % 5,
			}
		}
		blks := BlocksSized(recs, int(blockCap%32)+1)
		got := BlocksRecords(blks)
		if len(got) != n {
			return false
		}
		for i := range got {
			if got[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
