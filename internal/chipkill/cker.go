package chipkill

import (
	"errors"

	"cop/internal/bitio"
	"cop/internal/core"
	"cop/internal/ecc"
	"cop/internal/eccregion"
)

// ERCodec extends COP-CK the way COP-ER extends COP: incompressible blocks
// get chipkill protection too, via entries in COP-ER's packed region
// (its valid-bit-tree store, with wider entries).
//
// An incompressible block displaces 68 bits for *two* SEC(34,28)-protected
// copies of its region pointer — copy A lives on chips 0–3, copy B on
// chips 4–7, so any single chip failure leaves one copy fully intact. The
// entry holds the 68 displaced bits, the block's 8 per-beat chip-parity
// bytes, and a CRC-16 — 148 bits, wrapped in a (157,148) SECDED code word
// so single-bit faults inside the region correct too. Three entries pack
// into each 64-byte region block.
//
// Decoding a raw image recovers a pointer from either copy, fetches the
// entry, restores the displaced bits, and resolves chip failure as the
// inline path does: hypothesize each failed chip in chip order,
// reconstruct it from the (externally stored) parity, and accept the
// first hypothesis whose CRC validates. As inline, a wrong hypothesis
// whose CRC passes by chance decodes silently wrong.
//
// An ERCodec is not safe for concurrent use: it owns its region and the
// inline codec's scratch buffers.
type ERCodec struct {
	ck        *Codec
	sc        scratch // the inline codec's buffers
	region    *eccregion.PackedStore
	entryCode *ecc.Code // (157,148) SECDED over the entry payload
	displaced []int     // the 68 displaced bit positions: copy A's, then copy B's
	copyA     []int     // displaced[:34], on chips 0..3
	copyB     []int     // displaced[34:], on chips 4..7
}

const (
	ckDisplacedBits = 68  // two pointer copies
	ckEntryData     = 148 // displaced + 8B parity + CRC16
	ckEntryCW       = 157 // + 9 SECDED check bits
	ckEntryBytes    = (ckEntryCW + 7) / 8
)

// ERInfo describes a COP-CK-ER read.
type ERInfo struct {
	// Protected reports whether the block was stored compressed with
	// inline chipkill protection.
	Protected bool
	// RegionAccess reports whether an entry lookup was needed.
	RegionAccess bool
	// FailedChip is the reconstructed chip (-1 if none).
	FailedChip int
	// UsedCopyB is set when pointer copy A was unusable.
	UsedCopyB bool
	// CorrectedEntry is set when the entry's SECDED repaired a fault.
	CorrectedEntry bool
	// Ptr is the region pointer whose entry the read used
	// (eccregion.NoPointer for an inline block). A chip failure can decode
	// copy A to another live pointer while the block verifies through
	// copy B; Ptr is then copy B's pointer.
	Ptr uint32
}

// ErrUnrecoverable is returned when no pointer copy or failure hypothesis
// yields a validating block.
var ErrUnrecoverable = errors.New("chipkill: block unrecoverable")

// NewER builds a COP-CK-ER codec with a fresh region.
func NewER() *ERCodec {
	er := &ERCodec{
		ck:        New(),
		region:    eccregion.NewPacked(ckEntryCW),
		entryCode: ecc.New(ckEntryCW, ckEntryData, ecc.Hsiao),
	}
	// Copy A occupies the bit positions of bytes on chips 0..3 in beat
	// order (bytes 0,1,2,3 then 8,9,...), truncated to 34 bits; copy B
	// mirrors it on chips 4..7.
	fill := func(firstChip int) []int {
		var pos []int
		for beat := 0; beat < Beats && len(pos) < 34; beat++ {
			for c := firstChip; c < firstChip+4 && len(pos) < 34; c++ {
				for bit := 0; bit < 8 && len(pos) < 34; bit++ {
					pos = append(pos, 8*chipByte(c, beat)+bit)
				}
			}
		}
		return pos
	}
	er.displaced = append(fill(0), fill(4)...)
	er.copyA, er.copyB = er.displaced[:34], er.displaced[34:]
	return er
}

// Region returns the codec's ECC region (storage accounting, fault
// injection).
func (er *ERCodec) Region() *eccregion.PackedStore { return er.region }

// chipParity returns the 8 per-beat parity bytes over all chips.
func chipParity(block []byte) [Beats]byte {
	var p [Beats]byte
	for b := 0; b < Beats; b++ {
		for c := 0; c < Chips; c++ {
			p[b] ^= block[chipByte(c, b)]
		}
	}
	return p
}

// packEntry packs block's entry payload: its displaced bits, chip parity
// and CRC, wrapped in the entry's SECDED code word.
func (er *ERCodec) packEntry(entry *[ckEntryBytes]byte, block []byte) {
	var data [(ckEntryData + 7) / 8]byte
	bitio.Gather(data[:], block, er.displaced)
	parity := chipParity(block)
	bitio.DepositBits(data[:], ckDisplacedBits, parity[:], 8*Beats)
	crc := crc16(block)
	cb := [2]byte{byte(crc >> 8), byte(crc)}
	bitio.DepositBits(data[:], ckDisplacedBits+8*Beats, cb[:], 16)
	er.entryCode.EncodeInto(entry[:], data[:])
}

// withPointer writes block into dst with both pointer copies deposited.
func (er *ERCodec) withPointer(dst, block []byte, ptr uint32) {
	copy(dst, block)
	eccregion.PutPointer(dst, er.copyA, ptr)
	eccregion.PutPointer(dst, er.copyB, ptr)
}

// Write is WriteInto into a fresh image; inline reports StoredCompressed.
func (er *ERCodec) Write(block []byte, prevPtr uint32) (image []byte, ptr uint32, inline bool, err error) {
	image = make([]byte, BlockBytes)
	ptr, status, err := er.WriteInto(image, block, prevPtr)
	if err != nil {
		return nil, eccregion.NoPointer, false, err
	}
	return image, ptr, status == core.StoredCompressed, nil
}

// WriteInto encodes a block under COP-CK-ER into dst (BlockBytes long).
// prevPtr carries an existing region entry (eccregion.NoPointer
// otherwise); the region's reuse and free paths are applied. A block is
// never rejected: an incompressible one gets a pointer that keeps its
// image from reading as inline. On error dst is left as it was.
func (er *ERCodec) WriteInto(dst, block []byte, prevPtr uint32) (ptr uint32, status core.StoreStatus, err error) {
	if len(block) != BlockBytes || len(dst) != BlockBytes {
		panic("chipkill: ERCodec.WriteInto: dst and block must be 64 bytes")
	}
	if er.ck.compress(block, &er.sc) {
		er.region.Release(prevPtr)
		seal(dst, &er.sc.rec)
		return eccregion.NoPointer, core.StoredCompressed, nil
	}

	var entry [ckEntryBytes]byte
	er.packEntry(&entry, block)
	ptr, err = er.region.Place(prevPtr, entry[:], func(p uint32) bool {
		var img [BlockBytes]byte
		er.withPointer(img[:], block, p)
		return !looksProtected(img[:])
	})
	if err != nil {
		return eccregion.NoPointer, core.StoredRaw, err
	}
	er.withPointer(dst, block, ptr)
	return ptr, core.StoredRaw, nil
}

// Read is ReadInto into a fresh block (nil on error).
func (er *ERCodec) Read(image []byte) (block []byte, info ERInfo, err error) {
	block = make([]byte, BlockBytes)
	if info, err = er.ReadInto(block, image); err != nil {
		return nil, info, err
	}
	return block, info, nil
}

// ReadInto decodes a COP-CK-ER image into dst (BlockBytes long, not
// aliasing image), reconstructing a failed chip in either the inline
// (compressed) or region-backed (raw) representation. On error dst's
// contents are unspecified.
func (er *ERCodec) ReadInto(dst, image []byte) (info ERInfo, err error) {
	if len(image) != BlockBytes || len(dst) != BlockBytes {
		panic("chipkill: ERCodec.ReadInto: dst and image must be 64 bytes")
	}
	info.FailedChip = -1
	info.Ptr = eccregion.NoPointer
	// Inline path first: the compressed detector is unchanged.
	if ckInfo, derr := er.ck.decodeInto(dst, image, &er.sc); derr == nil && ckInfo.Protected {
		info.Protected = true
		info.FailedChip = ckInfo.FailedChip
		return info, nil
	}

	// Raw path: recover the pointer from either copy.
	info.RegionAccess = true
	ptrA, _, okA := eccregion.GetPointer(image, er.copyA)
	ptrB, _, okB := eccregion.GetPointer(image, er.copyB)
	if okA && er.readRaw(dst, image, ptrA, &info) {
		return info, nil
	}
	if okB && (!okA || ptrB != ptrA) && er.readRaw(dst, image, ptrB, &info) {
		info.UsedCopyB = true
		return info, nil
	}
	return info, ErrUnrecoverable
}

// readRaw recovers a raw image into dst through the entry at ptr: it
// restores the displaced bits, then tries the no-failure hypothesis and
// each failed chip, rebuilt from the entry's parity, in chip order. It
// reports whether a hypothesis validated, filling info's entry fields
// only then.
func (er *ERCodec) readRaw(dst, image []byte, ptr uint32, info *ERInfo) bool {
	var entry [ckEntryBytes]byte
	if er.region.ReadPayload(entry[:], ptr) != nil {
		return false
	}
	res, _ := er.entryCode.Decode(entry[:])
	if res == ecc.Uncorrectable {
		return false
	}
	var parity [Beats]byte
	var cb [2]byte
	bitio.ExtractBitsInto(parity[:], entry[:], ckDisplacedBits, 8*Beats)
	bitio.ExtractBitsInto(cb[:], entry[:], ckDisplacedBits+8*Beats, 16)
	crc := uint16(cb[0])<<8 | uint16(cb[1])

	copy(dst, image)
	bitio.Scatter(dst, er.displaced, entry[:])
	chip := -1
	if chipParity(dst) != parity || crc16(dst) != crc {
		var fixed [BlockBytes]byte
		for chip = 0; chip < Chips; chip++ {
			copy(fixed[:], dst)
			for b := 0; b < Beats; b++ {
				v := parity[b]
				for k := 0; k < Chips; k++ {
					if k != chip {
						v ^= fixed[chipByte(k, b)]
					}
				}
				fixed[chipByte(chip, b)] = v
			}
			if crc16(fixed[:]) == crc {
				break
			}
		}
		if chip == Chips {
			return false
		}
		copy(dst, fixed[:])
	}
	info.FailedChip = chip
	info.CorrectedEntry = res == ecc.Corrected
	info.Ptr = ptr
	return true
}
