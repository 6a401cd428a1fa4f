package predictor

import (
	"hash/maphash"
	"math/bits"

	"repro/internal/counter"
	"repro/internal/trace"
)

// BIU models the Branch Identification Unit of Section 4: a structure
// indexed by branch address that identifies indirect branches, records the
// compiler/linker ST/MT annotation bit, and (for the hybrid PPM predictor)
// holds the per-branch 2-bit correlation selection counter.
//
// The paper assumes an infinite BIU; Limit=0 reproduces that. A positive
// Limit bounds the number of live entries with FIFO eviction, enabling the
// finite-BIU sensitivity study the paper lists as future work.
//
// Entries live inline in a flat, open-addressed table indexed by a hash of
// the branch address, the way a simulator holds per-branch state: linear
// probing, a power-of-two length kept at most half full, growth by
// doubling, and deletion by backward shift (no tombstones). The home slot
// hash is keyed by a seed drawn per BIU: branch addresses can come from
// outside the program (uploaded traces, live sessions), and an unkeyed
// hash would let a client pick addresses that share one home slot, making
// every insertion probe past all the earlier ones.
type BIU struct {
	mode  counter.SelectionMode
	limit int
	seed  uint64
	slots []biuSlot
	n     int // live entries
	// order is the insertion order of live entries, oldest first from
	// head: the FIFO eviction queue when bounded (a ring of limit slots
	// once full, head then marking the oldest), and the deterministic
	// serialization order always.
	order []uint64
	head  int

	evictions uint64
}

// BIUEntry is the per-branch state held by the BIU. A pointer returned by
// Ensure or Lookup stays valid until the next insertion of a new branch,
// which may move entries (growth, or the backward shift after an
// eviction).
type BIUEntry struct {
	// MT records the multi-target annotation bit.
	MT bool
	// Sel is the correlation selection counter (Figure 5).
	Sel counter.Selection
}

// biuSlot is one table slot: the inline entry, whether the slot is live,
// and the branch address it holds. The entry comes first so handing out
// its address costs no offset, which keeps probe inside the inlining
// budget.
type biuSlot struct {
	e    BIUEntry
	used bool
	pc   uint64
}

// biuMinSlots is the table length a BIU starts with.
const biuMinSlots = 16

// NewBIU constructs a BIU whose selection counters follow the given Figure 5
// state machine. limit bounds the number of entries (0 = unbounded).
func NewBIU(mode counter.SelectionMode, limit int) *BIU {
	return &BIU{
		mode:  mode,
		limit: limit,
		seed:  maphash.String(maphash.MakeSeed(), ""),
		slots: make([]biuSlot, biuMinSlots),
	}
}

// home returns pc's home slot, unmasked: callers keep its low bits. It
// folds together the high and low halves of the 128-bit product of the
// seeded address and an odd constant (the multiply-and-fold step of
// wyhash), so every address bit reaches the low bits, and neither aligned
// code nor addresses crafted against a fixed multiplier pile onto one slot.
func (b *BIU) home(pc uint64) uint64 {
	hi, lo := bits.Mul64(pc^b.seed, 0x9E3779B97F4A7C15)
	return hi ^ lo
}

// Lookup returns the entry for pc, or nil if the branch has not been seen.
func (b *BIU) Lookup(pc uint64) *BIUEntry {
	if s := b.find(pc); s.used {
		return &s.e
	}
	return nil
}

// Ensure returns the entry for pc, inserting one (initialized to
// Strongly-PIB, per the paper) on first use. Steady state takes the
// home-slot hit; probing past the home slot and inserting run in the
// outlined ensureSlow.
//
//ppm:hotpath per-branch BIU probe on the lookup path
func (b *BIU) Ensure(pc uint64) *BIUEntry { return b.probe(pc, (*BIU).ensureSlow) }

// probe returns pc's entry when it sits in its home slot, the steady-state
// hit, and otherwise hands the lookup to miss (ensureSlow). The miss
// handler is a parameter because the compiler's inliner charges a call
// through a parameter far less than a direct call: that keeps probe, and
// Ensure around it, inlinable, so the hit costs the caller no call frame.
func (b *BIU) probe(pc uint64, miss func(*BIU, uint64) *BIUEntry) *BIUEntry {
	// The empty-table guard is dead (NewBIU allocates the table) but lets
	// the compiler prove the masked home index in-bounds.
	if len(b.slots) != 0 {
		if s := &b.slots[b.home(pc)&uint64(len(b.slots)-1)]; s.used && s.pc == pc {
			return &s.e
		}
	}
	return miss(b, pc)
}

// find returns the slot holding pc, or the free slot that ends its probe
// sequence. The table is kept at most half full, so the probe terminates.
func (b *BIU) find(pc uint64) *biuSlot {
	slots := b.slots
	if len(slots) == 0 {
		return nil // dead guard; see probe
	}
	mask := uint64(len(slots) - 1)
	for i := b.home(pc); ; i++ {
		if s := &slots[i&mask]; !s.used || s.pc == pc {
			return s
		}
	}
}

// ensureSlow is Ensure past the home slot: it probes for pc and, for an
// unseen branch, applies the FIFO eviction of a bounded BIU and inserts the
// new entry. Insertion reuses the table and the queue, so a finite BIU
// churning through more branches than it holds does not allocate.
//
//ppm:hotpath every eviction of a bounded BIU re-inserts here
func (b *BIU) ensureSlow(pc uint64) *BIUEntry {
	if s := b.find(pc); s.used {
		return &s.e
	}
	if b.limit == 0 || b.n < b.limit {
		b.order = append(b.order, pc) //lint:coldpath — the queue grows once per live entry, never past limit
		return b.insert(pc)
	}
	// The queue is a full ring of limit slots whose oldest entry sits at
	// head: evict it and reuse its slot for pc, the newest. The range
	// check is always true; it lets the compiler drop the bounds checks.
	order, head := b.order, b.head
	if uint(head) < uint(len(order)) {
		b.remove(order[head])
		order[head] = pc
		head++
	}
	if head == len(order) {
		head = 0
	}
	b.head = head
	b.evictions++
	return b.insert(pc)
}

// insert places a fresh entry for pc, which must not be present, growing
// the table first if the insertion would make it more than half full.
func (b *BIU) insert(pc uint64) *BIUEntry {
	if 2*(b.n+1) > len(b.slots) {
		b.grow() //lint:coldpath — doubling, amortized over the entries that filled the table
	}
	s := b.find(pc)
	*s = biuSlot{e: BIUEntry{Sel: counter.NewSelection(b.mode)}, used: true, pc: pc}
	b.n++
	return &s.e
}

// grow doubles the table and rehashes every live entry.
//
//ppm:coldpath table doubling runs once per power of two of live entries
func (b *BIU) grow() {
	old := b.slots
	b.slots = make([]biuSlot, 2*len(old))
	for i := range old {
		if old[i].used {
			*b.find(old[i].pc) = old[i]
		}
	}
}

// remove deletes pc, which must be present, by backward shift: each later
// entry of the probe run moves into the hole when the hole lies on its own
// probe path, so lookups never need tombstones.
func (b *BIU) remove(pc uint64) {
	slots := b.slots
	if len(slots) == 0 {
		return // dead guard; see probe
	}
	mask := uint64(len(slots) - 1)
	hole := b.home(pc)
	for !slots[hole&mask].used || slots[hole&mask].pc != pc {
		hole++
	}
	for j := hole + 1; slots[j&mask].used; j++ {
		// The entry at j may fill the hole iff the hole is no further from
		// the entry's home than j is (distances taken around the table).
		if (j-b.home(slots[j&mask].pc))&mask >= (j-hole)&mask {
			slots[hole&mask] = slots[j&mask]
			hole = j
		}
	}
	slots[hole&mask] = biuSlot{}
	b.n--
}

// Observe records the annotation bit carried by a committed branch record.
//
//ppm:hotpath per-branch BIU probe on the lookup path
func (b *BIU) Observe(r trace.Record) {
	if !r.Class.Indirect() {
		return
	}
	e := b.Ensure(r.PC)
	if r.MT {
		e.MT = true
	}
}

// Len returns the number of live entries.
func (b *BIU) Len() int { return b.n }

// Evictions returns how many entries a bounded BIU has displaced.
func (b *BIU) Evictions() uint64 { return b.evictions }

// Reset clears the BIU to power-up state, keeping its storage.
func (b *BIU) Reset() {
	clear(b.slots)
	b.n = 0
	b.order = b.order[:0]
	b.head = 0
	b.evictions = 0
}
