package hashing

import (
	"testing"
	"testing/quick"
)

func TestMask(t *testing.T) {
	cases := []struct {
		n    uint
		want uint64
	}{
		{0, 0},
		{1, 1},
		{2, 3},
		{10, 0x3ff},
		{63, 0x7fffffffffffffff},
		{64, ^uint64(0)},
		{80, ^uint64(0)},
	}
	for _, c := range cases {
		if got := Mask(c.n); got != c.want {
			t.Errorf("Mask(%d) = %#x, want %#x", c.n, got, c.want)
		}
	}
}

func TestSelect(t *testing.T) {
	if got := Select(0xdeadbeef, 8); got != 0xef {
		t.Errorf("Select(0xdeadbeef, 8) = %#x, want 0xef", got)
	}
	if got := Select(0xdeadbeef, 64); got != 0xdeadbeef {
		t.Errorf("Select full width = %#x", got)
	}
}

func TestFold(t *testing.T) {
	// Folding 10 bits into 5: low chunk XOR high chunk.
	v := uint64(0b10110_01101)
	want := uint64(0b10110 ^ 0b01101)
	if got := Fold(v, 10, 5); got != want {
		t.Errorf("Fold = %#b, want %#b", got, want)
	}
	// out >= in returns the masked value unchanged.
	if got := Fold(0x3ff, 10, 10); got != 0x3ff {
		t.Errorf("Fold identity = %#x", got)
	}
	if got := Fold(0xffff, 8, 16); got != 0xff {
		t.Errorf("Fold wide-out = %#x, want 0xff", got)
	}
	// out == 0 is defined as 0.
	if got := Fold(0xff, 8, 0); got != 0 {
		t.Errorf("Fold(out=0) = %#x", got)
	}
}

func TestFoldRangeProperty(t *testing.T) {
	f := func(v uint64, inRaw, outRaw uint8) bool {
		in := uint(inRaw%63) + 1
		out := uint(outRaw%31) + 1
		return Fold(v, in, out) <= Mask(out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFoldPreservesInformationParity(t *testing.T) {
	// XOR-folding preserves the overall parity of the selected bits, a
	// simple invariant distinguishing it from truncation.
	f := func(v uint64) bool {
		in, out := uint(12), uint(4)
		folded := Fold(v, in, out)
		return parity(Select(v, in)) == parity(folded)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func parity(v uint64) uint {
	var p uint
	for v != 0 {
		p ^= uint(v & 1)
		v >>= 1
	}
	return p
}

func TestGShare(t *testing.T) {
	if got := GShare(0, 0x1000, 10); got != (0x1000>>2)&0x3ff {
		t.Errorf("GShare zero history = %#x", got)
	}
	// XOR is self-inverse: same history twice cancels.
	h := uint64(0x2a5)
	pc := uint64(0x1234560)
	if GShare(h, pc, 10)^h != GShare(0, pc, 10) {
		t.Error("GShare does not XOR history into index")
	}
}

func TestSFSXDistinctShifts(t *testing.T) {
	// The same target at different path positions must hash differently.
	a := SFSX([]uint64{0x40, 0}, 10, 5)
	b := SFSX([]uint64{0, 0x40}, 10, 5)
	if a == b {
		t.Errorf("SFSX position-insensitive: %#x == %#x", a, b)
	}
}

func TestSFSXLongPathContributes(t *testing.T) {
	// Regression: contributions from path entries at index >= 64 used to be
	// shifted out of the 64-bit accumulator entirely (<<i with i >= 64 is 0
	// in Go), so arbitrarily long paths silently degenerated to their first
	// 64 entries. The rotation-based accumulator keeps every entry live:
	// changing a deep entry must be able to change the hash.
	ts := make([]uint64, 70)
	for i := range ts {
		ts[i] = Mix64(uint64(i)) &^ 3
	}
	base := SFSX(ts, 10, 5)
	ts[69] ^= 1 << 4 // flip a selected bit of the deepest entry
	if SFSX(ts, 10, 5) == base {
		t.Error("path entry 69 does not reach the SFSX hash — long-path contributions lost")
	}
	// And the wrap must not perturb short paths: positions below 64 behave
	// exactly as the plain shift (spot-checked against the wide definition).
	short := []uint64{0x40, 0}
	if SFSX(short, 10, 5) != Fold(0x40>>2, 10, 5)<<0^Fold(0, 10, 5)<<1 {
		t.Error("short-path SFSX changed: rotation must equal shift below bit 64")
	}
}

func TestSFSXSRange(t *testing.T) {
	f := func(t0, t1, t2 uint64, orderRaw uint8) bool {
		order := uint(orderRaw%10) + 1
		idx := SFSXS([]uint64{t0, t1, t2}, 10, 5, order)
		return idx <= Mask(order)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSFSXSOrderSemantics(t *testing.T) {
	// The order-j index must depend only on the j most recent targets:
	// changing older targets must not change it.
	base := []uint64{0x1111c, 0x2222c, 0x33330, 0x44444}
	changed := []uint64{0x1111c, 0x2222c, 0x77770, 0x99998}
	for order := uint(1); order <= 2; order++ {
		if SFSXS(base, 10, 5, order) != SFSXS(changed, 10, 5, order) {
			t.Errorf("order-%d index depends on targets beyond its order", order)
		}
	}
	// And it must depend on the recent ones.
	if SFSXS(base, 10, 5, 1) == SFSXS([]uint64{0x5555c}, 10, 5, 1) &&
		SFSXS(base, 10, 5, 2) == SFSXS([]uint64{0x5555c, 0x2222c}, 10, 5, 2) {
		t.Error("suspicious: order indexes insensitive to recent targets")
	}
}

func TestSFSXSRecentTargetDominates(t *testing.T) {
	// Flipping a selected bit of the most recent target must change the
	// order-10 index for most values — this is the regression test for
	// the recency-weighting of the shift direction.
	changes := 0
	const trials = 256
	for i := 0; i < trials; i++ {
		ts := make([]uint64, 10)
		for j := range ts {
			ts[j] = Mix64(uint64(i*10+j)) &^ 3
		}
		a := SFSXS(ts, 10, 5, 10)
		ts[0] ^= 1 << 6 // flip a bit inside the 10-bit select
		if SFSXS(ts, 10, 5, 10) != a {
			continue
		}
		changes++
	}
	if changes > trials/4 {
		t.Errorf("most-recent target barely influences order-10 index (%d/%d unchanged)", changes, trials)
	}
}

func TestSFSXSWarmup(t *testing.T) {
	// With fewer targets than the order, the hash covers what exists.
	got := SFSXS([]uint64{0xabc0}, 10, 5, 10)
	if got > Mask(10) {
		t.Errorf("warm-up index out of range: %#x", got)
	}
	if SFSXS(nil, 10, 5, 10) != 0 {
		t.Error("empty history should hash to 0")
	}
}

func TestSFSXSLowDiffersFromHigh(t *testing.T) {
	ts := []uint64{0x12340, 0x56784, 0x9abc8, 0xdef0c, 0x13570, 0x24684, 0xaceb8, 0xbdf0c, 0x11110, 0x22224}
	same := 0
	for order := uint(2); order <= 10; order++ {
		if SFSXS(ts, 10, 5, order) == SFSXSLow(ts, 10, 5, order) {
			same++
		}
	}
	if same == 9 {
		t.Error("high and low select are identical across all orders")
	}
}

func TestSFSXSZeroOrder(t *testing.T) {
	if SFSXS([]uint64{1, 2}, 10, 5, 0) != 0 || SFSXSLow([]uint64{1, 2}, 10, 5, 0) != 0 {
		t.Error("order-0 index must be 0")
	}
}

func TestReverseInterleaveRange(t *testing.T) {
	f := func(hist, pc uint64, nRaw uint8) bool {
		n := uint(nRaw%16) + 1
		return ReverseInterleave(hist, 24, pc, n) <= Mask(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReverseInterleaveUsesWholeRegister(t *testing.T) {
	// Changing any byte of a 24-bit register must be able to change the
	// index (the register is folded, not truncated).
	pc := uint64(0x120004c0)
	base := ReverseInterleave(0x000001, 24, pc, 10)
	if ReverseInterleave(0x800001, 24, pc, 10) == base &&
		ReverseInterleave(0x008001, 24, pc, 10) == base {
		t.Error("high history bits never reach the index — register truncated?")
	}
}

func TestReverseInterleaveMixesPC(t *testing.T) {
	h := uint64(0xabcdef)
	if ReverseInterleave(h, 24, 0x12000000, 10) == ReverseInterleave(h, 24, 0x12000004, 10) &&
		ReverseInterleave(h, 24, 0x12000000, 10) == ReverseInterleave(h, 24, 0x12000008, 10) {
		t.Error("PC bits never reach the index")
	}
}

func TestMix64Bijective(t *testing.T) {
	// splitmix64's finalizer is a bijection; spot-check injectivity over
	// a large sample.
	seen := make(map[uint64]uint64, 1<<16)
	for i := uint64(0); i < 1<<16; i++ {
		h := Mix64(i)
		if prev, dup := seen[h]; dup {
			t.Fatalf("Mix64 collision: %d and %d -> %#x", prev, i, h)
		}
		seen[h] = i
	}
}

// TestSFSXSRegisterMatchesSpec pins the incremental register to the
// per-order spec functions: after every push, each order's index must equal
// SFSXS (or SFSXSLow) over the most recent targets, most recent first —
// through warm-up (fewer pushes than the order) and runs far longer than
// the order, for every order the PPM accepts, both select orientations and
// the edge fold widths.
func TestSFSXSRegisterMatchesSpec(t *testing.T) {
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { rng = Mix64(rng); return rng }
	for order := uint(1); order <= 20; order++ {
		for _, selBits := range []uint{10, 32} {
			for _, foldBits := range []uint{1, 5, selBits} {
				for _, low := range []bool{false, true} {
					reg := NewSFSXSRegister(order, selBits, foldBits, low)
					dst := make([]uint64, order+1)
					var path []uint64 // most recent first
					for push := 0; push < 3*int(order)+40; push++ {
						tgt := next()
						reg.Push(tgt)
						path = append([]uint64{tgt}, path...)
						reg.Indices(dst)
						for o := uint(1); o <= order; o++ {
							want := SFSXS(path, selBits, foldBits, o)
							if low {
								want = SFSXSLow(path, selBits, foldBits, o)
							}
							if dst[o] != want {
								t.Fatalf("order %d sel %d fold %d low %t, push %d: index[%d] = %#x, spec %#x",
									order, selBits, foldBits, low, push, o, dst[o], want)
							}
						}
					}
					reg.Reset()
					reg.Indices(dst)
					for o := uint(1); o <= order; o++ {
						if dst[o] != 0 {
							t.Fatalf("order %d: index[%d] = %#x after Reset, want the empty-path 0", order, o, dst[o])
						}
					}
				}
			}
		}
	}
}
