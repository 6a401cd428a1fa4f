package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// FuzzReader feeds arbitrary bytes to the trace decoder: it must never
// panic and must end every stream. The decoder reads the same input four
// ways — Read and ReadBlock, each over a bytes.Reader (whose reads fill the
// buffer, so records decode from the bufio window) and over
// iotest.OneByteReader (one byte per fill, so every record takes the byte
// path) — and all four must agree on every record, every error's text and
// Count. Decoding continues past corrupt records, so the streams also agree
// on where each error left the stream.
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
	// Corrupt records with a full window behind them, so the window path
	// meets a varint overflow and an invalid class, then decodes on.
	f.Add([]byte("IBT2\x10" + strings.Repeat("\xff", 11) + strings.Repeat("\x10\x02\x02\x00", 12)))
	f.Add([]byte("IBT2" + strings.Repeat("\x07\x00\x00\x00\x10\x02\x02\x00", 12)))

	f.Fuzz(func(t *testing.T, data []byte) {
		window := func() io.Reader { return bytes.NewReader(data) }
		oneByte := func() io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) }
		want, wantCount, ok := readTranscript(window())
		if !ok {
			return
		}
		for _, c := range []struct {
			name  string
			trans func(io.Reader) ([]step, uint64, bool)
			src   func() io.Reader
		}{
			{"Read/byte path", readTranscript, oneByte},
			{"ReadBlock/window", blockTranscript, window},
			{"ReadBlock/byte path", blockTranscript, oneByte},
		} {
			got, count, _ := c.trans(c.src())
			if count != wantCount {
				t.Fatalf("%s: Count %d, Read over the window %d", c.name, count, wantCount)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d steps, Read over the window %d", c.name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: step %d: %+v, Read over the window %+v", c.name, i, got[i], want[i])
				}
			}
		}
	})
}

// transcriptSteps bounds a fuzz transcript; every step consumes at least a
// byte, so only a long valid stream reaches it.
const transcriptSteps = 100000

// step is one decode step of a transcript: a record, or an error's text.
type step struct {
	rec Record
	err string
}

// readTranscript decodes src with Read until io.EOF, one step per record
// or error, and returns the steps, Count, and whether the header was valid.
func readTranscript(src io.Reader) ([]step, uint64, bool) {
	r, err := NewReader(src)
	if err != nil {
		return nil, 0, false
	}
	var steps []step
	for len(steps) < transcriptSteps {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		steps = append(steps, transcriptStep(rec, err))
	}
	return steps, r.Count(), true
}

// blockTranscript is readTranscript through ReadBlock.
func blockTranscript(src io.Reader) ([]step, uint64, bool) {
	r, err := NewReader(src)
	if err != nil {
		return nil, 0, false
	}
	var steps []step
	var b Block
	for len(steps) < transcriptSteps {
		err := r.ReadBlock(&b)
		for i := 0; i < b.Len(); i++ {
			steps = append(steps, transcriptStep(b.Record(i), nil))
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			steps = append(steps, transcriptStep(Record{}, err))
		}
	}
	return steps, r.Count(), true
}

// transcriptStep records one decode step.
func transcriptStep(rec Record, err error) step {
	if err != nil {
		return step{err: err.Error()}
	}
	return step{rec: rec}
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
