package eccregion

import (
	"errors"
	"fmt"

	"cop/internal/bitio"
	"cop/internal/ecc"
	"cop/internal/telemetry"
	"cop/internal/trace"
)

// PackedStore is an ECC region: fixed-size payload entries packed densely
// into 64-byte blocks (each prefixed by a valid bit), located through the
// paper's three-level valid-bit tree (Figure 7) with an MRU cursor,
// growing on demand. COP-ER stores 45-bit payloads in it, the chipkill
// extension 157-bit ones. It is not safe for concurrent use; the memory
// controller serializes access, as the hardware would.
type PackedStore struct {
	payloadBits     int // entry payload size (valid bit excluded)
	entryBits       int // payload + valid bit
	entriesPerBlock int

	entryBlocks [][]byte
	l3          [][]byte
	l2          [][]byte
	l1          []byte

	mruL3 int
	tel   telemetry.RegionCounters
	th    *trace.Handle
}

// AttachTracer shares the owning controller's execution-trace handle so
// entry alloc/free events join the access's flow (nil detaches).
func (r *PackedStore) AttachTracer(h *trace.Handle) { r.th = h }

// validBitCode protects the 501 valid bits of each tree block.
var validBitCode = ecc.New(512, ValidBitsPerBlock, ecc.Hsiao)

// ErrFull is returned when the 28-bit pointer space is exhausted.
var ErrFull = errors.New("eccregion: pointer space exhausted")

// ErrInvalidEntry is returned when reading or updating an entry that is not
// allocated.
var ErrInvalidEntry = errors.New("eccregion: entry not valid")

// NewPacked builds an empty store with the given payload size per entry.
// At least one entry must fit a 64-byte block.
func NewPacked(payloadBits int) *PackedStore {
	entryBits := payloadBits + 1
	if payloadBits <= 0 || entryBits > 8*BlockBytes {
		panic(fmt.Sprintf("eccregion: invalid payload size %d bits", payloadBits))
	}
	return &PackedStore{
		payloadBits:     payloadBits,
		entryBits:       entryBits,
		entriesPerBlock: 8 * BlockBytes / entryBits,
		l1:              make([]byte, BlockBytes),
	}
}

// PayloadBits returns the per-entry payload size.
func (r *PackedStore) PayloadBits() int { return r.payloadBits }

// PayloadBytes returns the byte length of payload slices.
func (r *PackedStore) PayloadBytes() int { return (r.payloadBits + 7) / 8 }

// EntriesPerBlockCount returns how many entries fit one 64-byte block.
func (r *PackedStore) EntriesPerBlockCount() int { return r.entriesPerBlock }

// Telemetry returns the region section of the unified snapshot tree,
// including the store's current block footprint.
func (r *PackedStore) Telemetry() telemetry.RegionStats {
	return r.tel.Snapshot(uint64(r.BlocksUsed()))
}

// BlocksUsed returns the total 64-byte blocks the store occupies: entry
// blocks plus all levels of the valid-bit tree.
func (r *PackedStore) BlocksUsed() int {
	return len(r.entryBlocks) + len(r.l3) + len(r.l2) + 1
}

func (r *PackedStore) split(ptr uint32) (blk, slot int) {
	return int(ptr) / r.entriesPerBlock, int(ptr) % r.entriesPerBlock
}

func (r *PackedStore) join(blk, slot int) uint32 {
	return uint32(blk*r.entriesPerBlock + slot)
}

func (r *PackedStore) valid(b, s int) bool {
	return bitio.Bit(r.entryBlocks[b], s*r.entryBits) == 1
}

// zeroPayload is the payload a freed entry is cleared to.
var zeroPayload [BlockBytes]byte

func (r *PackedStore) writePayload(b, s int, valid bool, payload []byte) {
	blk := r.entryBlocks[b]
	off := s * r.entryBits
	v := 0
	if valid {
		v = 1
	}
	bitio.SetBit(blk, off, v)
	bitio.DepositBits(blk, off+1, payload, r.payloadBits)
}

func (r *PackedStore) blockFull(b int) bool {
	for s := 0; s < r.entriesPerBlock; s++ {
		if !r.valid(b, s) {
			return false
		}
	}
	return true
}

// Tree-bit helpers. Valid bit i of a tree block occupies bit position i;
// the 11 parity bits live at positions 501..511 and are refreshed on every
// write (the hardware would do this in the same cycle).
func treeBit(blk []byte, i int) bool { return bitio.Bit(blk, i) == 1 }

func setTreeBit(blk []byte, i int, v bool) {
	b := 0
	if v {
		b = 1
	}
	bitio.SetBit(blk, i, b)
	refreshTreeParity(blk)
}

func refreshTreeParity(blk []byte) {
	var cw [BlockBytes]byte
	var check [2]byte
	validBitCode.EncodeInto(cw[:], blk)
	bitio.ExtractBitsInto(check[:], cw[:], ValidBitsPerBlock, TreeParityBits)
	bitio.DepositBits(blk, ValidBitsPerBlock, check[:], TreeParityBits)
}

// CheckTreeParity verifies (and, for single-bit errors, repairs) the valid
// bits of every tree block. It returns the number of corrected blocks and
// an error if any block was uncorrectable.
func (r *PackedStore) CheckTreeParity() (corrected int, err error) {
	check := func(blk []byte) error {
		cw := make([]byte, validBitCode.CodewordBytes())
		copy(cw, blk)
		res, _ := validBitCode.Decode(cw)
		switch res {
		case ecc.Corrected:
			copy(blk, cw[:BlockBytes])
			corrected++
		case ecc.Uncorrectable:
			return fmt.Errorf("eccregion: uncorrectable valid-bit block")
		}
		return nil
	}
	for _, blk := range r.l3 {
		if err := check(blk); err != nil {
			return corrected, err
		}
	}
	for _, blk := range r.l2 {
		if err := check(blk); err != nil {
			return corrected, err
		}
	}
	return corrected, check(r.l1)
}

// growEntryBlock appends a fresh entry block, extending the tree as needed.
func (r *PackedStore) growEntryBlock() (int, error) {
	idx := len(r.entryBlocks)
	if uint64(idx)*uint64(r.entriesPerBlock) >= MaxEntries {
		return 0, ErrFull
	}
	r.entryBlocks = append(r.entryBlocks, make([]byte, BlockBytes))
	l3blk := idx / ValidBitsPerBlock
	for len(r.l3) <= l3blk {
		nb := make([]byte, BlockBytes)
		refreshTreeParity(nb)
		r.l3 = append(r.l3, nb)
		l2blk := (len(r.l3) - 1) / ValidBitsPerBlock
		for len(r.l2) <= l2blk {
			nb2 := make([]byte, BlockBytes)
			refreshTreeParity(nb2)
			r.l2 = append(r.l2, nb2)
		}
	}
	r.tel.Writes.Inc() // zero-initialize the new entry block in memory
	return idx, nil
}

// findFreeSlot locates a free entry, preferring the MRU L3 block, walking
// the tree when it is full, and growing the store when everything is full.
func (r *PackedStore) findFreeSlot(accept func(ptr uint32) bool) (blk, slot int, err error) {
	if accept == nil {
		accept = func(uint32) bool { return true }
	}
	for pass := 0; pass < 2; pass++ {
		start := r.mruL3
		if pass == 1 {
			start = 0
		}
		for li := start; li < len(r.l3); li++ {
			r.tel.Reads.Inc() // read the L3 valid-bit block
			base := li * ValidBitsPerBlock
			for i := 0; i < ValidBitsPerBlock && base+i < len(r.entryBlocks); i++ {
				if treeBit(r.l3[li], i) {
					continue
				}
				r.tel.Reads.Inc() // read the candidate entry block
				for s := 0; s < r.entriesPerBlock; s++ {
					if r.valid(base+i, s) {
						continue
					}
					if accept(r.join(base+i, s)) {
						r.mruL3 = li
						return base + i, s, nil
					}
				}
			}
		}
		if r.mruL3 == 0 {
			break // pass 1 already covered everything
		}
	}
	// Grow: try each fresh slot against the predicate. The bound exists
	// only to turn a pathological predicate (every pointer aliases —
	// probabilistically impossible) into an error instead of unbounded
	// growth.
	for attempt := 0; attempt < 64; attempt++ {
		b, gerr := r.growEntryBlock()
		if gerr != nil {
			return 0, 0, gerr
		}
		for s := 0; s < r.entriesPerBlock; s++ {
			if accept(r.join(b, s)) {
				r.mruL3 = b / ValidBitsPerBlock
				return b, s, nil
			}
		}
	}
	return 0, 0, ErrFull
}

// Place stores payload as the entry of a block that is stored raw and
// returns the entry's pointer. prev is the block's current entry
// (NoPointer when it has none): it is rewritten in place when accept
// keeps it, the paper's reuse path for blocks that stay incompressible
// across writebacks; otherwise it is freed and a fresh entry that accept
// approves is allocated. accept lets the codec skip pointers that would
// leave the block's image an alias (§3.3).
func (r *PackedStore) Place(prev uint32, payload []byte, accept func(ptr uint32) bool) (uint32, error) {
	if prev != NoPointer && r.Valid(prev) {
		if accept(prev) {
			return prev, r.UpdatePayload(prev, payload)
		}
		r.Release(prev)
	}
	return r.AllocatePayload(payload, accept)
}

// Release frees prev's entry, if it is live: the paper's path for a
// block that becomes compressible again ("the original ECC entry is
// invalidated").
func (r *PackedStore) Release(prev uint32) {
	if prev != NoPointer && r.Valid(prev) {
		_ = r.Free(prev) // cannot fail: prev is a live entry
	}
}

// AllocatePayload claims a free entry and fills it, returning its pointer.
// The optional accept predicate lets callers skip pointer values (COP-ER's
// alias avoidance).
func (r *PackedStore) AllocatePayload(payload []byte, accept func(ptr uint32) bool) (uint32, error) {
	if len(payload) != r.PayloadBytes() {
		return 0, fmt.Errorf("eccregion: payload must be %d bytes", r.PayloadBytes())
	}
	b, s, err := r.findFreeSlot(accept)
	if err != nil {
		return 0, err
	}
	r.writePayload(b, s, true, payload)
	r.tel.Writes.Inc()
	r.tel.Allocs.Inc()
	r.tel.Live.Add(1)
	r.tel.HighWater.Observe(uint64(r.tel.Live.Load()))
	if r.blockFull(b) {
		r.setL3(b, true)
	}
	ptr := r.join(b, s)
	if r.th.Enabled() {
		r.th.Record(trace.KindRegionAlloc, 0, 0, 0, uint64(ptr), uint64(r.tel.Live.Load()), 0)
	}
	return ptr, nil
}

// setL3 updates entry block b's L3 bit and propagates fullness up the tree.
func (r *PackedStore) setL3(b int, v bool) {
	li, bi := b/ValidBitsPerBlock, b%ValidBitsPerBlock
	setTreeBit(r.l3[li], bi, v)
	r.tel.Writes.Inc()
	l2i, l2b := li/ValidBitsPerBlock, li%ValidBitsPerBlock
	if v {
		full := true
		for i := 0; i < ValidBitsPerBlock; i++ {
			if !treeBit(r.l3[li], i) {
				full = false
				break
			}
		}
		if full {
			setTreeBit(r.l2[l2i], l2b, true)
			r.tel.Writes.Inc()
			l2full := true
			for i := 0; i < ValidBitsPerBlock; i++ {
				if !treeBit(r.l2[l2i], i) {
					l2full = false
					break
				}
			}
			if l2full {
				setTreeBit(r.l1, l2i, true)
				r.tel.Writes.Inc()
			}
		}
	} else {
		if treeBit(r.l2[l2i], l2b) {
			setTreeBit(r.l2[l2i], l2b, false)
			r.tel.Writes.Inc()
		}
		if treeBit(r.l1, l2i) {
			setTreeBit(r.l1, l2i, false)
			r.tel.Writes.Inc()
		}
	}
}

// ReadPayload copies the payload at ptr into dst (PayloadBytes long, pad
// bits zeroed).
func (r *PackedStore) ReadPayload(dst []byte, ptr uint32) error {
	b, s := r.split(ptr)
	if b >= len(r.entryBlocks) {
		return ErrInvalidEntry
	}
	r.tel.Reads.Inc()
	if !r.valid(b, s) {
		return ErrInvalidEntry
	}
	bitio.ExtractBitsInto(dst, r.entryBlocks[b], s*r.entryBits+1, r.payloadBits)
	return nil
}

// UpdatePayload rewrites a live entry in place.
func (r *PackedStore) UpdatePayload(ptr uint32, payload []byte) error {
	if len(payload) != r.PayloadBytes() {
		return fmt.Errorf("eccregion: payload must be %d bytes", r.PayloadBytes())
	}
	b, s := r.split(ptr)
	if b >= len(r.entryBlocks) {
		return ErrInvalidEntry
	}
	r.tel.Reads.Inc()
	if !r.valid(b, s) {
		return ErrInvalidEntry
	}
	r.writePayload(b, s, true, payload)
	r.tel.Writes.Inc()
	return nil
}

// Free releases the entry at ptr, clearing tree bits so the slot is
// reusable.
func (r *PackedStore) Free(ptr uint32) error {
	b, s := r.split(ptr)
	if b >= len(r.entryBlocks) {
		return ErrInvalidEntry
	}
	r.tel.Reads.Inc()
	if !r.valid(b, s) {
		return ErrInvalidEntry
	}
	wasFull := r.blockFull(b)
	r.writePayload(b, s, false, zeroPayload[:])
	r.tel.Writes.Inc()
	r.tel.Frees.Inc()
	r.tel.Live.Add(-1)
	if r.th.Enabled() {
		r.th.Record(trace.KindRegionFree, 0, 0, 0, uint64(ptr), uint64(r.tel.Live.Load()), 0)
	}
	if wasFull {
		r.setL3(b, false)
	}
	return nil
}

// Valid reports whether ptr refers to a live entry.
func (r *PackedStore) Valid(ptr uint32) bool {
	b, s := r.split(ptr)
	return b < len(r.entryBlocks) && r.valid(b, s)
}

// FlipEntryBit flips one bit (0..entryBits-1) of the stored entry at ptr —
// the fault-injection hook for studies of region-resident soft errors.
// Bit 0 is the valid bit; the payload follows. It returns false when ptr
// is outside the store.
func (r *PackedStore) FlipEntryBit(ptr uint32, bit int) bool {
	b, s := r.split(ptr)
	if b >= len(r.entryBlocks) || bit < 0 || bit >= r.entryBits {
		return false
	}
	bitio.FlipBit(r.entryBlocks[b], s*r.entryBits+bit)
	return true
}
