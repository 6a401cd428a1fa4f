package trace

import (
	"bytes"
	"io"
	"testing"
)

// FuzzReader feeds arbitrary bytes to the trace decoder: it must never
// panic and must either terminate with an error or consume the stream.
// The block decoder the upload path runs must end the same way, having
// decoded the same records.
func FuzzReader(f *testing.F) {
	// Seed with a valid trace and a few mutations.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for _, r := range sampleRecords() {
		_ = w.Write(r)
	}
	_ = w.Flush()
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte("IBT2"))
	f.Add([]byte("IBT2\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var recs []Record
		var readErr error
		for i := 0; i < 100000; i++ {
			rec, err := r.Read()
			if err != nil {
				readErr = err // any error is acceptable; panics are not
				break
			}
			recs = append(recs, rec)
		}
		if readErr == nil {
			return // stream longer than the loop bound
		}

		br, _ := NewReader(bytes.NewReader(data))
		var b Block
		var got []Record
		for {
			err := br.ReadBlock(&b)
			got = b.AppendRecords(got)
			if err != nil {
				if (err == io.EOF) != (readErr == io.EOF) {
					t.Fatalf("ReadBlock ended with %v, Read with %v", err, readErr)
				}
				break
			}
		}
		if len(got) != len(recs) || br.Count() != r.Count() {
			t.Fatalf("ReadBlock decoded %d records (Count %d), Read %d (Count %d)", len(got), br.Count(), len(recs), r.Count())
		}
		for i := range recs {
			if got[i] != recs[i] {
				t.Fatalf("record %d: ReadBlock %+v, Read %+v", i, got[i], recs[i])
			}
		}
	})
}

// FuzzRoundTrip checks that any encodable record survives a round trip.
func FuzzRoundTrip(f *testing.F) {
	f.Add(uint64(0x120000000), uint64(0x140000abc), uint8(3), true, true, uint32(12), uint32(0))
	f.Add(uint64(0), uint64(0), uint8(0), false, false, uint32(0), uint32(99))
	f.Add(^uint64(0), uint64(1), uint8(6), true, false, ^uint32(0), ^uint32(0))

	f.Fuzz(func(t *testing.T, pc, tgt uint64, class uint8, taken, mt bool, gap, value uint32) {
		rec := Record{
			PC: pc, Target: tgt, Class: Class(class % 7),
			Taken: taken, MT: mt, Gap: gap, Value: value,
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		if got != rec {
			t.Fatalf("round trip: got %+v, want %+v", got, rec)
		}
	})
}
