// Package history implements path history registers (PHRs): shift registers
// that record the recent targets of a selected stream of branches. Two views
// are provided, matching the two families of predictors in the paper:
//
//   - Recent() and Peek() expose the most recent full targets: the path
//     the oracle and the workload generator read, and the one the PPM
//     predictor rebuilds its incremental SFSXS registers (Figure 2) from
//     after a snapshot restore;
//   - Packed() exposes the conventional k-bits-per-target shift register
//     used by GAp, Target Cache and Dual-path gshare/interleaved indexing.
package history

import (
	"repro/internal/hashing"
	"repro/internal/trace"
)

// Stream selects which branch records feed a PHR, mirroring the correlation
// groups studied by Chang et al. and adopted in Section 4 of the paper.
type Stream uint8

const (
	// AllBranches records the target of every committed branch (PB path
	// history: "Per Branch" correlation). Not-taken conditional branches
	// contribute their fall-through address.
	AllBranches Stream = iota
	// IndirectBranches records targets of indirect jmp/jsr instructions
	// only, ST and MT alike (PIB path history: "Per Indirect Branch").
	IndirectBranches
	// MTIndirectBranches records only multi-target indirect jmp/jsr
	// targets — the stream the Dual-path predictor registers observe.
	MTIndirectBranches
	// TakenBranches records targets of taken branches only.
	TakenBranches
)

// String names the stream.
func (s Stream) String() string {
	switch s {
	case AllBranches:
		return "PB"
	case IndirectBranches:
		return "PIB"
	case MTIndirectBranches:
		return "MT"
	case TakenBranches:
		return "taken"
	}
	return "stream(?)"
}

// Accepts reports whether a record belongs to the stream.
func (s Stream) Accepts(r trace.Record) bool {
	switch s {
	case AllBranches:
		return true
	case IndirectBranches:
		return r.PIBStream()
	case MTIndirectBranches:
		return r.MTIndirect()
	case TakenBranches:
		return r.Taken
	}
	return false
}

// PHR is a path history register holding the most recent `depth` targets of
// its stream. The zero value is not usable; construct with New or NewWide.
type PHR struct {
	stream Stream
	ring   []uint64
	head   int // index of most recent entry
	filled int

	// packed is the conventional shift register maintained incrementally:
	// bitsPer low-order bits of each target, most recent in the low bits.
	// Registers up to 64 bits occupy one word; wider registers (geometric
	// ITTAGE histories) span little-endian words, word 0 least significant.
	packed     []uint64
	topMask    uint64 // mask of the valid bits in the top packed word
	packedBits uint
	bitsPer    uint
}

// New creates a PHR of the given depth over the given stream. bitsPer
// configures the packed shift-register view (bits recorded per target);
// packedBits bounds the register width. Panics if depth < 1 or if
// packedBits > 64 — registers wider than one word must be constructed with
// NewWide, which is a deliberate call-site declaration that the extra width
// is wanted (the former silent clamp to 64 truncated geometric histories).
func New(stream Stream, depth int, bitsPer, packedBits uint) *PHR {
	if packedBits > 64 {
		panic("history: packedBits > 64 needs the multi-word register; construct with NewWide")
	}
	return NewWide(stream, depth, bitsPer, packedBits)
}

// NewWide creates a PHR whose packed shift-register view may be wider than
// 64 bits, kept as a little-endian multi-word register; Packed then exposes
// the 64 low-order bits and FoldPacked folds any prefix of the full width.
// Panics if depth < 1.
func NewWide(stream Stream, depth int, bitsPer, packedBits uint) *PHR {
	if depth < 1 {
		panic("history: depth must be >= 1")
	}
	words := int((packedBits + 63) / 64)
	top := ^uint64(0)
	if packedBits%64 != 0 {
		top = (uint64(1) << (packedBits % 64)) - 1
	}
	return &PHR{
		stream:     stream,
		ring:       make([]uint64, depth),
		head:       depth - 1,
		packed:     make([]uint64, words),
		topMask:    top,
		bitsPer:    bitsPer,
		packedBits: packedBits,
	}
}

// Stream returns the stream feeding this register.
func (p *PHR) Stream() Stream { return p.stream }

// Depth returns the number of targets retained.
func (p *PHR) Depth() int { return len(p.ring) }

// Observe shifts the record's target into the register if the record
// belongs to the PHR's stream. It returns true if the register advanced.
//
//ppm:hotpath per-record history-register shift
func (p *PHR) Observe(r trace.Record) bool {
	if !p.stream.Accepts(r) {
		return false
	}
	p.Push(r.Target)
	return true
}

// Push unconditionally shifts a target into the register.
//
//ppm:hotpath per-record history-register shift
func (p *PHR) Push(target uint64) {
	p.head++
	if p.head == len(p.ring) {
		p.head = 0
	}
	p.ring[p.head] = target
	if p.filled < len(p.ring) {
		p.filled++
	}
	if p.packedBits == 0 {
		return
	}
	var sel uint64
	if p.bitsPer >= 64 {
		sel = target >> 2
	} else {
		sel = (target >> 2) & ((uint64(1) << p.bitsPer) - 1)
	}
	w := p.packed
	if len(w) == 1 {
		w[0] = ((w[0] << p.bitsPer) | sel) & p.topMask
		return
	}
	// Multi-word left shift by bitsPer, high word first so carries read the
	// pre-shift neighbours; bitsPer >= 64 degenerates to a whole-word shift
	// exactly as a single-word register degenerates to sel alone.
	if p.bitsPer >= 64 {
		for i := len(w) - 1; i > 0; i-- {
			w[i] = w[i-1] //lint:idxsafe i walks (0, len) so i and i-1 are in range
		}
		w[0] = sel
	} else {
		carry := 64 - p.bitsPer
		for i := len(w) - 1; i > 0; i-- {
			w[i] = (w[i] << p.bitsPer) | (w[i-1] >> carry) //lint:idxsafe i walks (0, len) so i and i-1 are in range
		}
		w[0] = (w[0] << p.bitsPer) | sel
	}
	w[len(w)-1] &= p.topMask
}

// Len reports how many targets have been recorded, up to the depth.
func (p *PHR) Len() int { return p.filled }

// Recent fills dst's backing storage with the n most recent targets (most
// recent first) and returns the resulting length-n slice. Fewer than n are
// returned during warm-up. Callers on the per-lookup path pass a
// struct-owned scratch slice with capacity >= n so no allocation occurs;
// undersized (or nil) dst grows once.
//
//ppm:hotpath per-record history-register shift
func (p *PHR) Recent(dst []uint64, n int) []uint64 {
	if n > p.filled {
		n = p.filled
	}
	if cap(dst) < n {
		dst = make([]uint64, n) //lint:coldpath — only for nil/undersized scratch
	}
	dst = dst[:n]
	idx := p.head
	for i := range dst {
		dst[i] = p.ring[idx] //lint:idxsafe idx walks the ring down from head and wraps at 0, staying in [0, len)
		idx--
		if idx < 0 {
			idx = len(p.ring) - 1
		}
	}
	return dst
}

// Peek returns the i-th most recent target in the ring (0 = most recent),
// reading slots that have not been written yet as zero — the zero-filled
// warm-up a hardware register that powers up cleared would exhibit, and the
// contract the incremental folded registers of geometric-history predictors
// rely on for their outgoing items. Panics if i is not in [0, Depth()).
//
//ppm:hotpath per-record history-register read; runs once per bank per push
func (p *PHR) Peek(i int) uint64 {
	if i < 0 || i >= len(p.ring) {
		panic("history: Peek index out of range")
	}
	idx := p.head - i
	if idx < 0 {
		idx += len(p.ring)
	}
	return p.ring[idx] //lint:idxsafe idx = head-i wrapped once into [0, len)
}

// Packed returns the 64 low-order bits of the shift-register view: bitsPer
// low bits of each recorded target, most recent target in the least
// significant bits, truncated to packedBits. For registers constructed with
// NewWide past 64 bits this is the most recent word; FoldPacked reaches the
// full width.
//
//ppm:hotpath per-record history-register shift
func (p *PHR) Packed() uint64 {
	if len(p.packed) == 0 {
		return 0
	}
	return p.packed[0]
}

// PackedBits returns the configured width of the packed register.
func (p *PHR) PackedBits() uint { return p.packedBits }

// FoldPacked XOR-folds the `in` low-order bits of the packed register —
// the most recent in/bitsPer targets — into out bits. It is the
// from-scratch specification of the incrementally maintained
// hashing.Folded registers geometric-history predictors keep per bank;
// snapshot restore reseeds those registers from it. in is clamped to the
// register width; out must be in [1, 64].
func (p *PHR) FoldPacked(in, out uint) uint64 {
	if in > p.packedBits {
		in = p.packedBits
	}
	return hashing.FoldWords(p.packed, in, out)
}

// State is a snapshot of a PHR's contents, used by the workload generator
// to model programs that return to previously visited control-flow
// configurations.
type State struct {
	ring   []uint64
	head   int
	filled int
	packed []uint64
}

// Snapshot captures the register's current contents.
func (p *PHR) Snapshot() State {
	return State{
		ring:   append([]uint64(nil), p.ring...),
		head:   p.head,
		filled: p.filled,
		packed: append([]uint64(nil), p.packed...),
	}
}

// Restore rewinds the register to a snapshot taken from the same PHR
// (matching depth and width); mismatched snapshots panic.
func (p *PHR) Restore(s State) {
	if len(s.ring) != len(p.ring) || len(s.packed) != len(p.packed) {
		panic("history: snapshot depth mismatch")
	}
	copy(p.ring, s.ring)
	p.head = s.head
	p.filled = s.filled
	copy(p.packed, s.packed)
}

// Reset clears the register to its power-up state.
func (p *PHR) Reset() {
	for i := range p.ring {
		p.ring[i] = 0
	}
	p.head = len(p.ring) - 1
	p.filled = 0
	for i := range p.packed {
		p.packed[i] = 0
	}
}
