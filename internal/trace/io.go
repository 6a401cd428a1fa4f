package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Binary trace format:
//
//	magic   [4]byte  "IBT2" (Indirect Branch Trace, version 2)
//	records *
//
// Each record is delta/varint encoded against the previous record to keep
// traces compact:
//
//	flags   byte    bits 0-2 class, bit 3 taken, bit 4 MT, bit 5 value
//	pcΔ     zigzag varint (PC - prevPC)
//	tgtΔ    zigzag varint (Target - PC)
//	gap     uvarint
//	value   uvarint (present only when bit 5 set)
const magic = "IBT2"

// ErrBadMagic is returned by NewReader when the stream does not begin with
// the trace file magic.
var ErrBadMagic = errors.New("trace: bad magic (not an IBT2 trace)")

// ErrTruncated is returned by Read when the stream ends in the middle of a
// record — after its flags byte but before its last varint field. It wraps
// io.ErrUnexpectedEOF (errors.Is holds for both), so callers that already
// handle ErrUnexpectedEOF keep working, while callers that need to
// distinguish "client sent a cut-off trace" (a 400) from an internal decode
// failure (a 500) can match this sentinel directly.
var ErrTruncated = fmt.Errorf("trace: truncated record: %w", io.ErrUnexpectedEOF)

const (
	flagClassMask = 0x07
	flagTaken     = 0x08
	flagMT        = 0x10
	flagValue     = 0x20
)

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(v uint64) int64 { return int64(v>>1) ^ -int64(v&1) }

// Writer encodes Records to an underlying io.Writer in IBT2 format.
// Writers buffer internally; call Flush (or Close via the caller's file)
// before the trace is read back.
type Writer struct {
	w      *bufio.Writer
	prevPC uint64
	count  uint64
	buf    [4 * binary.MaxVarintLen64]byte
	err    error
}

// NewWriter creates a Writer and emits the file header.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return &Writer{w: bw}, nil
}

// Write appends one record to the trace.
func (w *Writer) Write(r Record) error {
	if w.err != nil {
		return w.err
	}
	if !r.Class.Valid() {
		return fmt.Errorf("trace: invalid class %d", r.Class)
	}
	flags := byte(r.Class) & flagClassMask
	if r.Taken {
		flags |= flagTaken
	}
	if r.MT {
		flags |= flagMT
	}
	if r.Value != 0 {
		flags |= flagValue
	}
	if err := w.w.WriteByte(flags); err != nil {
		w.err = err
		return err
	}
	n := binary.PutUvarint(w.buf[:], zigzag(int64(r.PC-w.prevPC)))
	n += binary.PutUvarint(w.buf[n:], zigzag(int64(r.Target-r.PC)))
	n += binary.PutUvarint(w.buf[n:], uint64(r.Gap))
	if r.Value != 0 {
		n += binary.PutUvarint(w.buf[n:], uint64(r.Value))
	}
	if _, err := w.w.Write(w.buf[:n]); err != nil {
		w.err = err
		return err
	}
	w.prevPC = r.PC
	w.count++
	return nil
}

// Count returns the number of records written so far.
func (w *Writer) Count() uint64 { return w.count }

// Flush writes any buffered data to the underlying writer.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Reader decodes Records from an IBT2 stream.
type Reader struct {
	r      *bufio.Reader
	prevPC uint64
	count  uint64
	hint   int
}

// NewReader validates the header and returns a Reader positioned at the
// first record.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	hdr := make([]byte, len(magic))
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(hdr) != magic {
		return nil, ErrBadMagic
	}
	return &Reader{r: br}, nil
}

// Reset repoints the Reader at a new stream, reusing the internal buffered
// reader and its 64 KiB buffer instead of reallocating them. The header is
// revalidated and the delta-decode state rewound, so a Reset reader behaves
// exactly like one from NewReader. Callers that drain many traces in a loop
// (the live-session predict handler's pooled scratch, tests) Reset one
// Reader rather than paying a buffer allocation per trace. The zero Reader
// is ready for Reset. Reset(nil) detaches the reader from its stream
// without reading, so a pooled reader pins no finished request body; the
// reader must be Reset onto a stream again before its next read.
func (r *Reader) Reset(src io.Reader) error {
	if r.r == nil {
		r.r = bufio.NewReaderSize(src, 1<<16)
	} else {
		r.r.Reset(src)
	}
	r.prevPC, r.count, r.hint = 0, 0, 0
	if src == nil {
		return nil
	}
	hdr, err := r.r.Peek(len(magic))
	if err != nil {
		return fmt.Errorf("trace: reading header: %w", err)
	}
	if string(hdr) != magic {
		return ErrBadMagic
	}
	r.r.Discard(len(magic))
	return nil
}

// maxRecordBytes bounds the bytes the decoder can consume for one record,
// error or not: the flags byte plus four varint fields, each of which the
// decoder reads for up to 11 bytes before it reports an overflow.
const maxRecordBytes = 1 + 4*(binary.MaxVarintLen64+1)

// errVarintOverflow mirrors the stdlib's binary.ReadUvarint overflow error.
var errVarintOverflow = errors.New("binary: varint overflows a 64-bit integer")

// next is the one decode step behind Read and ReadBlock: it decodes the
// next record's wire fields, updating the delta-decode state and the count.
// With at least maxRecordBytes buffered it decodes straight from the
// bufio window (decodeWindow); at the window's edge it falls back to the
// byte-at-a-time path (decodeBytes), which refills the buffer. The two
// paths return the same fields and the same error after consuming the
// same bytes, so neither the records nor the byte offset of an error
// depend on how the stream was chunked.
//
//ppm:hotpath per-record IBT2 decode under Read and ReadBlock
func (r *Reader) next() (flags uint8, pc, target uint64, gap, value uint32, err error) {
	var pcd, tgtd uint64
	if r.r.Buffered() >= maxRecordBytes {
		win, _ := r.r.Peek(maxRecordBytes)
		var n int
		flags, pcd, tgtd, gap, value, n, err = decodeWindow(win)
		r.r.Discard(n)
	} else {
		flags, pcd, tgtd, gap, value, err = r.decodeBytes()
	}
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	if !Class(flags & flagClassMask).Valid() {
		return 0, 0, 0, 0, 0, fmt.Errorf("trace: corrupt record: invalid class %d", flags&flagClassMask) //lint:coldpath — corrupt stream
	}
	pc = r.prevPC + uint64(unzigzag(pcd))
	r.prevPC = pc
	r.count++
	return flags, pc, pc + uint64(unzigzag(tgtd)), gap, value, nil
}

// decodeWindow decodes the raw fields of the record at the front of win,
// which holds at least maxRecordBytes bytes, and returns how many bytes the
// byte path would have consumed for it — on an overflow, up to and
// including the offending byte.
func decodeWindow(win []byte) (flags uint8, pcd, tgtd uint64, gap, value uint32, n int, err error) {
	win = win[:maxRecordBytes]
	flags = win[0]
	n = 1
	var v uint64
	if pcd, n, err = windowUvarint(win, n); err != nil {
		return 0, 0, 0, 0, 0, n, err
	}
	if tgtd, n, err = windowUvarint(win, n); err != nil {
		return 0, 0, 0, 0, 0, n, err
	}
	if v, n, err = windowUvarint(win, n); err != nil {
		return 0, 0, 0, 0, 0, n, err
	}
	gap = uint32(v)
	if flags&flagValue != 0 {
		if v, n, err = windowUvarint(win, n); err != nil {
			return 0, 0, 0, 0, 0, n, err
		}
		value = uint32(v)
	}
	return flags, pcd, tgtd, gap, value, n, nil
}

// windowUvarint decodes the unsigned varint at win[i:] and returns the
// offset just past it. It reads and rejects exactly the bytes uvarint
// does, so it needs at most binary.MaxVarintLen64+1 bytes of window.
func windowUvarint(win []byte, i int) (uint64, int, error) {
	var v uint64
	for shift := uint(0); ; shift += 7 {
		b := win[i] //lint:idxsafe decodeWindow passes maxRecordBytes of window, which cover the flags byte and four worst-case fields
		i++
		if b < 0x80 {
			if shift >= 64 || (shift == 63 && b > 1) {
				return 0, i, errVarintOverflow //lint:coldpath — corrupt stream
			}
			return v | uint64(b)<<shift, i, nil
		}
		if shift >= 64 {
			return 0, i, errVarintOverflow //lint:coldpath — corrupt stream
		}
		v |= uint64(b&0x7f) << shift
	}
}

// decodeBytes is next's byte-at-a-time path, used at the edge of the
// buffered window: it reads the fields one byte at a time, refilling the
// buffer as needed. An end of stream before the flags byte is io.EOF; one
// after it is ErrTruncated.
func (r *Reader) decodeBytes() (flags uint8, pcd, tgtd uint64, gap, value uint32, err error) {
	flags, err = r.r.ReadByte()
	if err != nil {
		if err == io.ErrUnexpectedEOF {
			err = io.EOF
		}
		return 0, 0, 0, 0, 0, err
	}
	if pcd, err = r.uvarint(); err != nil {
		return 0, 0, 0, 0, 0, truncated(err)
	}
	if tgtd, err = r.uvarint(); err != nil {
		return 0, 0, 0, 0, 0, truncated(err)
	}
	v, err := r.uvarint()
	if err != nil {
		return 0, 0, 0, 0, 0, truncated(err)
	}
	gap = uint32(v)
	if flags&flagValue != 0 {
		if v, err = r.uvarint(); err != nil {
			return 0, 0, 0, 0, 0, truncated(err)
		}
		value = uint32(v)
	}
	return flags, pcd, tgtd, gap, value, nil
}

// uvarint decodes one unsigned varint from the buffered stream. Equivalent
// to binary.ReadUvarint(r.r) but calls the concrete *bufio.Reader directly:
// the stdlib helper takes an io.ByteReader, which costs an interface
// dispatch per byte.
func (r *Reader) uvarint() (uint64, error) {
	var v uint64
	var shift uint
	for {
		b, err := r.r.ReadByte()
		if err != nil {
			return 0, err
		}
		if b < 0x80 {
			if shift >= 64 || (shift == 63 && b > 1) {
				return 0, errVarintOverflow
			}
			return v | uint64(b)<<shift, nil
		}
		if shift >= 64 {
			return 0, errVarintOverflow
		}
		v |= uint64(b&0x7f) << shift
		shift += 7
	}
}

// Read returns the next record, or io.EOF at end of trace.
func (r *Reader) Read() (Record, error) {
	flags, pc, target, gap, value, err := r.next()
	if err != nil {
		return Record{}, err
	}
	return Record{
		PC: pc, Target: target,
		Class: Class(flags & flagClassMask),
		Taken: flags&flagTaken != 0,
		MT:    flags&flagMT != 0,
		Gap:   gap, Value: value,
	}, nil
}

// Count returns the number of records read so far.
func (r *Reader) Count() uint64 { return r.count }

// truncated maps an end-of-stream error hit mid-record to ErrTruncated;
// genuine I/O errors pass through untouched.
func truncated(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ErrTruncated
	}
	return err
}

// SetSizeHint tells the reader how many records remain in the stream, when
// the caller knows (a Writer.Count from the producing side, a record count
// carried out of band). ReadAll preallocates its result to the hint, so an
// accurate hint makes draining the trace reallocation-free. The hint is
// advisory and untrusted: a hint may arrive from the far side of a network
// boundary, so ReadAll caps the upfront allocation no matter how large the
// hint claims the stream is.
func (r *Reader) SetSizeHint(n int) {
	if n > 0 {
		r.hint = n
	}
}

// maxReadAllPrealloc caps the initial ReadAll allocation, in records. A
// size hint is a claim, not a measurement — an adversarial or corrupt hint
// of billions of records must not translate into an out-of-memory upfront
// allocation for a three-record stream. Streams genuinely longer than the
// cap grow normally from there (amortized append), so honest hints beyond
// the cap lose only the reallocation-free guarantee, never data.
const maxReadAllPrealloc = 1 << 20

// ReadAll drains the reader into a slice, preallocated from the size hint
// when one was set (capped at maxReadAllPrealloc records). Intended for
// tests and moderate trace sizes; large traces should be streamed with
// Read.
func (r *Reader) ReadAll() ([]Record, error) {
	capacity := r.hint
	if capacity <= 0 {
		capacity = 1024
	}
	if capacity > maxReadAllPrealloc {
		capacity = maxReadAllPrealloc
	}
	recs := make([]Record, 0, capacity)
	for {
		rec, err := r.Read()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
	}
}
