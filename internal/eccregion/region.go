// Package eccregion implements COP-ER's dynamically grown ECC region
// (§3.3, Figures 6 and 7): densely packed entries holding the data an
// incompressible block displaced to make room for its region pointer,
// plus the check bits protecting that block, located through a
// three-level valid-bit tree that makes free-entry search O(tree depth)
// instead of an exhaustive scan.
//
// Layout reproduced from the paper:
//
//   - Each COP-ER entry is 46 bits: 1 valid bit, 34 bits of displaced
//     data, 11 parity bits. 11 entries fit in one 64-byte block.
//   - Each L3 valid-bit block holds 501 valid bits (one per entry block;
//     set when all its entries are in use) plus 11 parity bits.
//   - Each L2 bit summarizes one L3 block (set when all its bits are set),
//     and the single L1 block summarizes the L2 blocks.
//
// The region grows on demand and records every block read and write so the
// memory controller can charge DRAM traffic, and BlocksUsed feeds the
// Figure 12 storage-overhead comparison.
//
// PackedStore is the region. It stores opaque fixed-width payloads, so
// each codec packs its own: COP-ER a 45-bit payload (34 displaced bits,
// then the 11 (523,512) check bits), the chipkill extension a 157-bit
// one. Both codecs write entries through PackedStore.Place and
// PackedStore.Release and protect the entry's pointer with the one
// pointer code, PutPointer and GetPointer.
package eccregion

import (
	"encoding/binary"

	"cop/internal/bitio"
	"cop/internal/ecc"
)

const (
	// BlockBytes is the DRAM block size.
	BlockBytes = 64
	// EntryBits is the size of one COP-ER ECC entry: valid + displaced +
	// parity.
	EntryBits = 1 + DisplacedBits + ParityBits
	// DisplacedBits is the data displaced from an incompressible block by
	// the pointer and its parity (28 + 6).
	DisplacedBits = PointerBits + 6
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

// NoPointer is the sentinel for "block has no ECC-region entry".
const NoPointer = ^uint32(0)

// PutPointer writes ptr's SEC(34,28) code word into the DisplacedBits
// image bits at pos, code word bit i at pos[i].
func PutPointer(image []byte, pos []int, ptr uint32) {
	lo, _ := ecc.SEC3428.EncodeWords(uint64(ptr)<<(64-PointerBits), 0)
	var cw [8]byte
	binary.BigEndian.PutUint64(cw[:], lo)
	bitio.Scatter(image, pos, cw[:])
}

// GetPointer gathers the pointer code word PutPointer wrote at pos and
// single-error-corrects it. ok is false when the word is uncorrectable.
func GetPointer(image []byte, pos []int) (ptr uint32, corrected, ok bool) {
	var cw [8]byte
	bitio.Gather(cw[:], image, pos)
	lo := binary.BigEndian.Uint64(cw[:])
	lo, _, res, _ := ecc.SEC3428.CorrectWords(lo, 0, ecc.SEC3428.SyndromeWords(lo, 0))
	if res == ecc.Uncorrectable {
		return 0, false, false
	}
	return uint32(lo >> (64 - PointerBits)), res == ecc.Corrected, true
}
