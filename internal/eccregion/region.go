// Package eccregion implements COP-ER's dynamically grown ECC region
// (§3.3, Figures 6 and 7): densely packed 46-bit entries holding the data
// an incompressible block displaced to make room for its region pointer,
// plus the (523,512) check bits protecting that block, located through a
// three-level valid-bit tree that makes free-entry search O(tree depth)
// instead of an exhaustive scan.
//
// Layout reproduced from the paper:
//
//   - Each ECC entry is 46 bits: 1 valid bit, 34 bits of displaced data,
//     11 parity bits. 11 entries fit in one 64-byte block.
//   - Each L3 valid-bit block holds 501 valid bits (one per entry block;
//     set when all 11 entries are in use) plus 11 parity bits.
//   - Each L2 bit summarizes one L3 block (set when all its bits are set),
//     and the single L1 block summarizes the L2 blocks.
//
// The region grows on demand and records every block read and write so the
// memory controller can charge DRAM traffic, and BlocksUsed feeds the
// Figure 12 storage-overhead comparison.
//
// The generic engine (packed entries + valid-bit tree) is PackedStore;
// Region specializes it to the paper's 46-bit entry format, and the
// chipkill extension reuses PackedStore with wider entries.
package eccregion

import (
	"fmt"

	"cop/internal/bitio"
	"cop/internal/telemetry"
	"cop/internal/trace"
)

const (
	// BlockBytes is the DRAM block size.
	BlockBytes = 64
	// EntryBits is the size of one COP-ER ECC entry: valid + displaced +
	// parity.
	EntryBits = 1 + DisplacedBits + ParityBits
	// DisplacedBits is the data displaced from an incompressible block by
	// the pointer and its parity (28 + 6).
	DisplacedBits = 34
	// ParityBits is the width of the (523,512) check bits stored per entry.
	ParityBits = 11
	// TreeParityBits protects the valid bits of each tree block.
	TreeParityBits = 11
	// EntriesPerBlock is how many COP-ER entries fit in a 64-byte block.
	EntriesPerBlock = 8 * BlockBytes / EntryBits // 11
	// ValidBitsPerBlock is the fan-out of each level of the valid-bit
	// tree: 501 valid bits + 11 parity bits per 64-byte block.
	ValidBitsPerBlock = 501
	// PointerBits is the width of an entry pointer stored in an
	// incompressible block.
	PointerBits = 28
	// MaxEntries is the number of entries addressable by a pointer.
	MaxEntries = 1 << PointerBits
)

// Entry is the decoded form of one COP-ER ECC entry.
type Entry struct {
	// Displaced holds DisplacedBits bits, left-aligned in 5 bytes.
	Displaced []byte
	// Parity is the 11-bit (523,512) check-bit field.
	Parity uint16
}

// Region is a COP-ER ECC region. It is not safe for concurrent use; the
// memory controller serializes access, as the hardware would.
type Region struct {
	store *PackedStore
}

// New returns an empty region.
func New() *Region {
	return &Region{store: NewPacked(EntryBits - 1)}
}

// Telemetry returns the region section of the unified snapshot tree.
func (r *Region) Telemetry() telemetry.RegionStats { return r.store.Telemetry() }

// AttachTracer shares the owning controller's execution-trace handle with
// the backing store (nil detaches).
func (r *Region) AttachTracer(h *trace.Handle) { r.store.AttachTracer(h) }

// BlocksUsed returns the total 64-byte blocks the region occupies: entry
// blocks plus all levels of the valid-bit tree. This is COP-ER's storage
// footprint for Figure 12.
func (r *Region) BlocksUsed() int { return r.store.BlocksUsed() }

// CheckTreeParity verifies (and repairs single-bit damage in) the
// valid-bit tree.
func (r *Region) CheckTreeParity() (corrected int, err error) {
	return r.store.CheckTreeParity()
}

// encode packs an Entry into the payload layout [displaced:34][parity:11].
func encodeEntry(e Entry) ([]byte, error) {
	if len(e.Displaced) != (DisplacedBits+7)/8 {
		return nil, fmt.Errorf("eccregion: displaced data must be %d bytes", (DisplacedBits+7)/8)
	}
	payload := make([]byte, (EntryBits-1+7)/8)
	bitio.DepositBits(payload, 0, e.Displaced, DisplacedBits)
	var pb [2]byte
	pb[0] = byte(e.Parity >> 3)
	pb[1] = byte(e.Parity << 5)
	bitio.DepositBits(payload, DisplacedBits, pb[:], ParityBits)
	return payload, nil
}

func decodeEntry(payload []byte) Entry {
	var e Entry
	e.Displaced = bitio.ExtractBits(payload, 0, DisplacedBits)
	pb := bitio.ExtractBits(payload, DisplacedBits, ParityBits)
	e.Parity = uint16(pb[0])<<3 | uint16(pb[1])>>5
	return e
}

// Allocate claims a free entry and fills it, returning its pointer. The
// optional accept predicate lets COP-ER skip pointer values that would
// leave the incompressible block an alias (§3.3).
func (r *Region) Allocate(e Entry, accept func(ptr uint32) bool) (uint32, error) {
	payload, err := encodeEntry(e)
	if err != nil {
		return 0, err
	}
	return r.store.AllocatePayload(payload, accept)
}

// Read returns the entry at ptr.
func (r *Region) Read(ptr uint32) (Entry, error) {
	payload, err := r.store.ReadPayload(ptr)
	if err != nil {
		return Entry{}, err
	}
	return decodeEntry(payload), nil
}

// Update rewrites a live entry in place (the paper's reuse path for blocks
// that stay incompressible across writebacks).
func (r *Region) Update(ptr uint32, e Entry) error {
	payload, err := encodeEntry(e)
	if err != nil {
		return err
	}
	return r.store.UpdatePayload(ptr, payload)
}

// Free releases the entry at ptr (the paper's path for blocks that become
// compressible again), clearing tree bits so the slot is reusable.
func (r *Region) Free(ptr uint32) error { return r.store.Free(ptr) }

// Valid reports whether ptr refers to a live entry.
func (r *Region) Valid(ptr uint32) bool { return r.store.Valid(ptr) }

// FlipEntryBit flips one bit (0..EntryBits-1) of the stored entry at ptr —
// the fault-injection hook for studies of region-resident soft errors.
// Bit 0 is the valid bit; bits 1..34 the displaced data; 35..45 the
// parity. It returns false when ptr is outside the region.
func (r *Region) FlipEntryBit(ptr uint32, bit int) bool {
	return r.store.FlipEntryBit(ptr, bit)
}
