// Package hashing implements the index-generation functions used by the
// indirect branch predictors in this repository:
//
//   - gshare XOR indexing (Chang et al., Driesen & Hölzle)
//   - Select-Fold-Shift-XOR (SFSX) from Sazeides & Smith
//   - Select-Fold-Shift-XOR-Select (SFSXS), the paper's Figure 2 mapping
//     function for the PPM Markov predictor stack, and SFSXSRegister, its
//     incremental shift-register form
//   - reverse-interleaving indexing used by the Dual-path predictor
//
// All functions are pure and allocation-free so they can run in the inner
// simulation loop; the registers (SFSXSRegister, Folded) are
// allocation-free value types updated in place.
package hashing

import "math/bits"

// Mask returns a mask of the n low-order bits. n must be <= 64.
//
//ppm:hotpath per-lookup index-hash helper; runs once per table probe
func Mask(n uint) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << n) - 1
}

// Select extracts the n low-order bits of v.
//
//ppm:hotpath per-lookup index-hash helper; runs once per table probe
func Select(v uint64, n uint) uint64 { return v & Mask(n) }

// Fold XOR-folds the in low-order bits of v into out bits by XORing
// successive out-bit chunks together. If out >= in the value is returned
// masked to in bits. out must be > 0.
//
//ppm:hotpath per-lookup index-hash helper; runs once per table probe
func Fold(v uint64, in, out uint) uint64 {
	v = Select(v, in)
	if out == 0 {
		return 0
	}
	if out >= in {
		return v
	}
	var folded uint64
	for v != 0 {
		folded ^= v & Mask(out)
		v >>= out
	}
	return folded
}

// GShare forms a bits-wide index by XORing the branch address (shifted right
// by 2 to drop the instruction alignment bits) with the history register.
//
//ppm:hotpath per-lookup index-hash helper; runs once per table probe
func GShare(history, pc uint64, n uint) uint64 {
	return (history ^ (pc >> 2)) & Mask(n)
}

// SFSX computes the Select-Fold-Shift-XOR hash over a path of targets.
// targets[0] is the most recent target. For each target i the selBits
// low-order bits are selected, folded to foldBits bits, shifted left by i,
// and XORed into the accumulator. The conceptual accumulator is
// foldBits+len(targets)-1 bits wide; bit positions past 63 wrap around
// (the shift is a 64-bit rotation), XOR-reducing the wide hash modulo 64
// so every path entry contributes no matter how long the path is. For
// paths where foldBits+len(targets)-1 <= 64 — every configuration in this
// repository — the wrap never engages and the result is the plain
// shift-XOR hash.
//
//ppm:hotpath per-lookup index-hash helper; runs once per table probe
func SFSX(targets []uint64, selBits, foldBits uint) uint64 {
	var h uint64
	for i, t := range targets {
		h ^= bits.RotateLeft64(Fold(t>>2, selBits, foldBits), i&63)
	}
	return h
}

// SFSXS computes the paper's Figure 2 Select-Fold-Shift-XOR-Select index for
// the Markov predictor of the given order. It forms an SFSX-style hash over
// the `order` most recent targets (targets[0] is most recent), with the most
// recent target shifted into the highest bit positions, and selects the
// `order` high-order bits of the (foldBits+order-1)-bit hash. The order-j
// Markov table thus has exactly 2^j entries, its index depends only on the
// j most recent targets (preserving Markov-chain semantics), and the
// selected bits are dominated by the most recent path — without which the
// highest-order component would effectively ignore recent control flow.
//
// If fewer than `order` targets are available the hash is computed over the
// ones present (early-execution warm-up), which matches a hardware PHR that
// powers up zeroed.
//
//ppm:hotpath per-lookup index-hash helper; runs once per table probe
func SFSXS(targets []uint64, selBits, foldBits, order uint) uint64 {
	if order == 0 {
		return 0
	}
	n := uint(len(targets))
	if n > order {
		n = order
	}
	var h uint64
	for i, t := range targets[:n] {
		h ^= Fold(t>>2, selBits, foldBits) << (order - 1 - uint(i))
	}
	width := foldBits + order - 1
	if width < order {
		width = order
	}
	return (h >> (width - order)) & Mask(order)
}

// SFSXSRegister is the incremental form of SFSXS and SFSXSLow: the Figure 2
// shift-XOR kept as a register that folds each target once, as it enters
// the path history, instead of refolding the whole path per lookup. Its
// indices always equal the per-order spec functions over the targets pushed
// so far, most recent first — the pair is pinned equal by
// TestSFSXSRegisterMatchesSpec and the ppmcheck differential.
//
// With g the folded contribution Fold(t>>2, selBits, foldBits) of an
// entering target, the two select orientations advance as:
//
//   - high select: h = (h >> 1) ^ (g << (order-1)), and the order-o index is
//     (h >> (order-o+foldBits-1)) & Mask(o). The target i pushes back sits
//     at g << (order-1-i). For i < o the final shift turns that into
//     SFSXS's g << (o-1-i) >> (foldBits-1) exactly. Every older term
//     (i >= o, including those already shifted past bit 0) lies below
//     2^(order-o+foldBits-1), so the final shift drops it.
//   - low select: h = (h << 1) ^ g, and the order-o index is h & Mask(o):
//     the target i pushes back sits at bit i, so the mask caps the path
//     at o targets exactly as SFSXSLow does.
//
// A cleared register holds the hash of an all-zero path, and zero targets
// fold to zero, so during warm-up it matches SFSXS over the fewer than
// order targets pushed so far — a hardware PHR that powers up zeroed.
type SFSXSRegister struct {
	h     uint64
	sel   uint64 // Mask(selBits)
	fmask uint64 // Mask(foldBits)
	fold  uint   // foldBits
	// One push is h = h>>rs<<ls ^ g<<top, and the order-o index is
	// (h >> (sh0 - (o-1)*step)) & Mask(o): rs=1, ls=0, top=order-1,
	// sh0=order-1+foldBits-1, step=1 for the high select; rs=0, ls=1,
	// top=0, sh0=0, step=0 for the low select.
	rs, ls, top uint
	sh0, step   uint
}

// NewSFSXSRegister returns a cleared register for indices of orders
// [1, order] over selBits-bit targets folded to foldBits bits. Panics unless
// 1 <= order <= 32 and 1 <= foldBits <= selBits <= 32, the range in which
// every term fits the 64-bit register.
func NewSFSXSRegister(order, selBits, foldBits uint, low bool) SFSXSRegister {
	if order < 1 || order > 32 {
		panic("hashing: SFSXS register order must be in [1, 32]")
	}
	if foldBits < 1 || foldBits > selBits || selBits > 32 {
		panic("hashing: SFSXS register needs 1 <= foldBits <= selBits <= 32")
	}
	r := SFSXSRegister{sel: Mask(selBits), fmask: Mask(foldBits), fold: foldBits}
	if low {
		r.ls = 1
	} else {
		r.rs, r.top, r.sh0, r.step = 1, order-1, order+foldBits-2, 1
	}
	return r
}

// Push shifts one target into the register: the target's selBits
// low-order word-address bits are XOR-folded to foldBits bits (Fold, once
// per target entering the path history) and shifted in.
//
//ppm:hotpath per-record history-register shift
func (r *SFSXSRegister) Push(target uint64) {
	var g uint64
	for v := target >> 2 & r.sel; v != 0; v >>= r.fold {
		g ^= v & r.fmask
	}
	r.h = r.h>>r.rs<<r.ls ^ g<<r.top
}

// Indices writes the order-o index to dst[o] for every o in
// [1, len(dst)-1]; dst[0] is left as is. len(dst)-1 must not exceed the
// register's order.
//
//ppm:hotpath per-lookup index-hash helper; runs once per table probe
func (r *SFSXSRegister) Indices(dst []uint64) {
	h, sh, mask := r.h, r.sh0, uint64(1)
	for o := 1; o < len(dst); o++ {
		dst[o] = h >> sh & mask
		sh -= r.step
		mask = mask<<1 | 1
	}
}

// Reset clears the register to the all-zero-path state.
func (r *SFSXSRegister) Reset() { r.h = 0 }

// SFSXSLow is the alternative mapping mentioned in Section 4 of the paper:
// the mirror orientation that shifts the most recent target into the
// low-order bit positions and selects the order low-order bits of the hash.
// The paper found little accuracy difference between the two; both are kept
// so the claim can be checked experimentally.
//
//ppm:hotpath per-lookup index-hash helper; runs once per table probe
func SFSXSLow(targets []uint64, selBits, foldBits, order uint) uint64 {
	if order == 0 {
		return 0
	}
	n := uint(len(targets))
	if n > order {
		n = order
	}
	var h uint64
	for i, t := range targets[:n] {
		h ^= Fold(t>>2, selBits, foldBits) << uint(i)
	}
	return h & Mask(order)
}

// ReverseInterleave forms an n-bit index by interleaving bits of the
// bit-reversed history register with bits of the branch address, the
// indexing scheme Driesen & Hölzle describe for the Dual-path predictor
// components. Reversing the history places the most recently shifted-in
// target bits in the high-order index positions, spreading recent-path
// information across the table.
//
//ppm:hotpath per-lookup index-hash helper; runs once per table probe
func ReverseInterleave(history uint64, historyBits uint, pc uint64, n uint) uint64 {
	// The shift register keeps the most recent target in its low-order
	// bits; bit-reversing within the n-bit window places those most
	// recent bits in the high-order index positions, spreading recent-path
	// information across the table while PC bits fill the gaps.
	// Count the history positions in the 2:1 interleave pattern and fold
	// the full register into that many bits, so the whole recorded path —
	// not just its most recent slice — reaches the index.
	histPos := (n + 1) / 2
	h := Fold(Select(history, historyBits), historyBits, histPos)
	pc >>= 2
	var out uint64
	var outPos uint
	// Alternate one folded-history bit (recent first) and one PC bit until
	// n output bits are set.
	for outPos < n {
		out |= (h & 1) << (n - 1 - outPos)
		h >>= 1
		outPos++
		if outPos >= n {
			break
		}
		out |= (pc & 1) << (n - 1 - outPos)
		pc >>= 1
		outPos++
	}
	return Select(out, n)
}

// Mix64 is a splitmix64-style finalizer used to derive well-distributed
// table tags and workload hash functions from raw addresses. It is a
// bijection on 64-bit values.
//
//ppm:hotpath per-lookup index-hash helper; runs once per table probe
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
