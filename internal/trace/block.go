package trace

import (
	"io"
	"unsafe"
)

// Block is the struct-of-arrays form of a run of consecutive Records: one
// parallel slice ("lane") per field, plus precomputed index lanes over the
// branch classes the simulation engine dispatches on. Blocks exist to make
// re-simulation cheap: the experiment grid sweeps the same traces through
// many predictor configurations, and the columnar form lets the engine hand
// a whole block to one predictor at a time — hoisting interface dispatch
// and per-record bookkeeping out of the record loop — while batch fast
// paths that only act on indirect branches walk the index lanes and skip
// the conditional-branch fabric that dominates the stream.
//
// Blocks are built once by a BlockBuilder (from workload generation or a
// []Record) and then shared: every field, including the lanes, MUST be
// treated as immutable by consumers. A decode loop instead refills one
// block in place with Reader.ReadBlock. The derived lanes (MTIdx, PIBIdx,
// GapSum) are maintained by the builders; mutating a data lane without
// rebuilding them desynchronizes the block.
type Block struct {
	// PC, Target, Meta, Gap and Value are the per-record field lanes; all
	// have the same length. Meta packs Class, Taken and MT into one byte
	// (see the Meta* constants, which mirror the low bits of the IBT2
	// flags byte).
	PC     []uint64
	Target []uint64
	Meta   []uint8
	Gap    []uint32
	// Value is nil when no record in the block carries a switch value,
	// the common case; otherwise it has the same length as Meta.
	Value []uint32

	// MTIdx lists, in stream order, the positions of multi-target
	// indirect jmp/jsr records (Record.MTIndirect) — the records
	// predictors predict and train on. Predictors whose history streams
	// ignore everything else (BTB, Dual-path, Cascade) walk only this
	// lane.
	MTIdx []int32
	// PIBIdx lists, in stream order, the positions of all indirect
	// jmp/jsr records (Record.PIBStream), a superset of MTIdx — the
	// stream PIB path history registers record (GAp, TC-PIB).
	PIBIdx []int32
	// GapSum is the sum of the Gap lane, precomputed so the engine can
	// account reconstructed instruction counts in O(1) per block.
	GapSum uint64

	// spare keeps a reused block's Value lane storage while the lane is
	// absent (see reset); it is never read as data.
	spare []uint32
}

// BlockCap is the records-per-block capacity used by the builders: large
// enough to amortize per-block setup to noise, small enough that one
// block's lanes stay cache-resident while several predictors replay it.
const BlockCap = 4096

// Meta lane bit layout. The low five bits coincide with the IBT2 flags
// byte (class, taken, MT); the value-present wire bit is not stored — a
// non-nil Value lane carries that information.
const (
	MetaClassMask = 0x07 // Class in bits 0-2
	MetaTaken     = 0x08 // direction bit
	MetaMT        = 0x10 // multi-target annotation bit
)

// metaOf packs a record's class and flag bits into its Meta lane byte.
func metaOf(r Record) uint8 {
	m := uint8(r.Class) & MetaClassMask
	if r.Taken {
		m |= MetaTaken
	}
	if r.MT {
		m |= MetaMT
	}
	return m
}

// Len returns the number of records in the block.
func (b *Block) Len() int { return len(b.Meta) }

// Record reassembles the i'th record from the lanes. Panics if i is out of
// range.
//
//ppm:hotpath per-record reassembly inside the block engine's fallback loop
func (b *Block) Record(i int) Record {
	m := b.Meta[i] //lint:idxsafe caller contract: i < Len(); panicking on bad i is the documented behaviour
	// The value is read before the record is built, so the record is
	// returned straight from registers rather than assembled in memory.
	var v uint32
	if b.Value != nil {
		v = b.Value[i] //lint:idxsafe a non-nil Value lane shares len(b.Meta) by construction
	}
	return Record{
		PC:     b.PC[i],     //lint:idxsafe all lanes share len(b.Meta) by construction
		Target: b.Target[i], //lint:idxsafe all lanes share len(b.Meta) by construction
		Class:  Class(m & MetaClassMask),
		Taken:  m&MetaTaken != 0,
		MT:     m&MetaMT != 0,
		Gap:    b.Gap[i], //lint:idxsafe all lanes share len(b.Meta) by construction
		Value:  v,
	}
}

// Bytes returns the block's resident footprint under the columnar size
// model: the capacity of every lane times its element width. This is the
// unit the trace cache's budget accounting charges for a cached block.
func (b *Block) Bytes() int64 {
	return int64(cap(b.PC))*8 + int64(cap(b.Target))*8 +
		int64(cap(b.Meta)) + int64(cap(b.Gap))*4 + int64(cap(b.Value))*4 +
		int64(cap(b.MTIdx))*4 + int64(cap(b.PIBIdx))*4
}

// blockHeaderBytes is the size of the Block struct itself (slice headers
// plus GapSum), charged per cached block on top of the lane storage.
const blockHeaderBytes = int64(unsafe.Sizeof(Block{}))

// BlocksBytes sums the columnar footprint of a block slice, including the
// per-block struct headers.
func BlocksBytes(blks []Block) int64 {
	n := int64(cap(blks)) * blockHeaderBytes
	for i := range blks {
		n += blks[i].Bytes()
	}
	return n
}

// push appends one record's fields to the lanes, maintaining the derived
// lanes. meta's bits above the Meta lane's (the wire value-present bit) are
// dropped. It is the one per-record build step behind BlockBuilder and
// Reader.ReadBlock, which decodes straight into it; once the lanes have
// grown to the block's capacity, pushes do not allocate.
func (b *Block) push(meta uint8, pc, target uint64, gap, value uint32) {
	meta &= MetaClassMask | MetaTaken | MetaMT
	i := len(b.Meta)
	b.PC = append(b.PC, pc)
	b.Target = append(b.Target, target)
	b.Meta = append(b.Meta, meta)
	b.Gap = append(b.Gap, gap)
	if value != 0 && b.Value == nil {
		// First switch value in the block: materialize the lane — from
		// the storage a reset kept, when there is enough — and back-fill
		// the zeros for the records already appended.
		if cap(b.spare) >= cap(b.Meta) {
			b.Value = b.spare[:i]
			clear(b.Value)
		} else {
			b.Value = make([]uint32, i, cap(b.Meta))
		}
	}
	if b.Value != nil {
		b.Value = append(b.Value, value)
	}
	b.GapSum += uint64(gap)
	if cls := Class(meta & MetaClassMask); cls == IndirectJmp || cls == IndirectJsr {
		b.PIBIdx = append(b.PIBIdx, int32(i))
		if meta&MetaMT != 0 {
			b.MTIdx = append(b.MTIdx, int32(i))
		}
	}
}

// reset empties the block for refilling with up to n records, keeping the
// lane storage (and a materialized Value lane's storage, for the next block
// that carries a switch value). A block with less than n records of room is
// reallocated once to full size.
func (b *Block) reset(n int) {
	if cap(b.Meta) < n {
		*b = newBlock(n)
		return
	}
	if b.Value != nil {
		b.spare = b.Value[:0]
	}
	b.PC, b.Target, b.Meta, b.Gap = b.PC[:0], b.Target[:0], b.Meta[:0], b.Gap[:0]
	b.Value, b.MTIdx, b.PIBIdx = nil, b.MTIdx[:0], b.PIBIdx[:0]
	b.GapSum = 0
}

// newBlock returns an empty block with every fixed lane preallocated to n
// records. The index lanes start small and grow as indirect branches
// arrive; the Value lane is allocated lazily.
func newBlock(n int) Block {
	return Block{
		PC:     make([]uint64, 0, n),
		Target: make([]uint64, 0, n),
		Meta:   make([]uint8, 0, n),
		Gap:    make([]uint32, 0, n),
	}
}

// BlockBuilder accumulates a record stream into blocks of a fixed capacity.
// It is how a trace becomes blocks on its way to the engine: workload
// generation emits straight into Add (workload.Config.Generate(bb.Add)),
// Blocks converts record slices through it, and Reader.ReadBlock refills a
// block through the same per-record build step (push).
type BlockBuilder struct {
	blockCap int
	cur      Block
	blks     []Block
}

// NewBlockBuilder returns a builder of blockCap-record blocks. Panics if
// blockCap < 1.
func NewBlockBuilder(blockCap int) *BlockBuilder {
	if blockCap < 1 {
		panic("trace: block capacity must be >= 1")
	}
	return &BlockBuilder{blockCap: blockCap, cur: newBlock(blockCap)}
}

// Add appends one record, opening a new block when the current one is full.
func (bb *BlockBuilder) Add(r Record) {
	if bb.cur.Len() == bb.blockCap {
		bb.blks = append(bb.blks, bb.cur)
		bb.cur = newBlock(bb.blockCap)
	}
	bb.cur.push(metaOf(r), r.PC, r.Target, r.Gap, r.Value)
}

// Blocks returns the built blocks: every block holds blockCap records but
// the last, which holds the remainder. The builder must not be used after.
func (bb *BlockBuilder) Blocks() []Block {
	if bb.cur.Len() > 0 {
		bb.blks = append(bb.blks, bb.cur)
		bb.cur = Block{}
	}
	return bb.blks
}

// Blocks converts a record slice to its columnar form in BlockCap-sized
// blocks (the last block holds the remainder). The records are copied; the
// input slice is not retained.
func Blocks(recs []Record) []Block { return BlocksSized(recs, BlockCap) }

// BlocksSized is Blocks with an explicit records-per-block capacity.
// Panics if blockCap < 1.
func BlocksSized(recs []Record, blockCap int) []Block {
	bb := NewBlockBuilder(blockCap)
	for _, r := range recs {
		bb.Add(r)
	}
	return bb.Blocks()
}

// AppendRecords appends the block's records, in stream order, to dst. The
// lanes are walked once with each record assembled in registers, so
// flattening a block into a reused buffer costs about as much as copying a
// record slice.
func (b *Block) AppendRecords(dst []Record) []Record {
	n := len(b.Meta)
	pc, tgt, gap := b.PC[:n], b.Target[:n], b.Gap[:n]
	for k, m := range b.Meta {
		var v uint32
		if b.Value != nil {
			v = b.Value[k] //lint:idxsafe a non-nil Value lane shares len(b.Meta) by construction
		}
		dst = append(dst, Record{
			PC: pc[k], Target: tgt[k], Gap: gap[k], Value: v,
			Class: Class(m & MetaClassMask), Taken: m&MetaTaken != 0, MT: m&MetaMT != 0,
		})
	}
	return dst
}

// BlocksRecords flattens blocks back to a record slice — the inverse of
// Blocks, for differential tests and analyses that need one contiguous
// record sequence.
func BlocksRecords(blks []Block) []Record {
	n := 0
	for i := range blks {
		n += blks[i].Len()
	}
	recs := make([]Record, 0, n)
	for i := range blks {
		recs = blks[i].AppendRecords(recs)
	}
	return recs
}

// ReadBlock refills b with the next BlockCap records of the stream (fewer
// at its end), reusing b's lane storage, so a decode loop over one block
// allocates nothing once the lanes have grown. Records decode straight into
// the lanes through the same decode step as Read. It returns io.EOF, with b
// empty, once the stream is exhausted. On a decode error b holds the
// records decoded before it, and Count counts exactly those.
func (r *Reader) ReadBlock(b *Block) error {
	b.reset(BlockCap)
	for b.Len() < BlockCap {
		flags, pc, target, gap, value, err := r.next()
		if err == io.EOF && b.Len() > 0 {
			return nil
		}
		if err != nil {
			return err
		}
		b.push(flags, pc, target, gap, value)
	}
	return nil
}
