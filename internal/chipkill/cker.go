package chipkill

import (
	"errors"
	"fmt"

	"cop/internal/bitio"
	"cop/internal/ecc"
	"cop/internal/eccregion"
)

// ERCodec extends COP-CK the way COP-ER extends COP: incompressible blocks
// get chipkill protection too, via entries in a packed region (reusing
// COP-ER's valid-bit-tree store with wider entries).
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
// entry, restores the displaced bits, and resolves chip failure exactly as
// the inline path does: hypothesize each failed chip, reconstruct it from
// the (externally stored) parity, and accept the unique hypothesis whose
// CRC validates.
type ERCodec struct {
	ck        *Codec
	store     *eccregion.PackedStore
	entryCode *ecc.Code // (157,148) SECDED over the entry payload
	ptrCode   *ecc.Code // SEC(34,28) pointer code
	copyA     []int     // 34 bit positions on chips 0..3
	copyB     []int     // 34 bit positions on chips 4..7
}

const (
	ckDisplacedBits = 68  // two pointer copies
	ckEntryData     = 148 // displaced + 8B parity + CRC16
	ckEntryCW       = 157 // + 9 SECDED check bits
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
	// Ptr is the region pointer whose entry the read used (NoPointer for
	// an inline block). A chip failure can decode copy A to another live
	// pointer while the block verifies through copy B; Ptr is then copy
	// B's pointer.
	Ptr uint32
}

// ErrUnrecoverable is returned when no pointer copy or failure hypothesis
// yields a validating block.
var ErrUnrecoverable = errors.New("chipkill: block unrecoverable")

// NewER builds a COP-CK-ER codec with a fresh region.
func NewER() *ERCodec {
	er := &ERCodec{
		ck:        New(),
		store:     eccregion.NewPacked(ckEntryCW),
		entryCode: ecc.New(ckEntryCW, ckEntryData, ecc.Hsiao),
		ptrCode:   ecc.SEC3428,
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
	er.copyA = fill(0)
	er.copyB = fill(4)
	return er
}

// Store exposes the region store (storage accounting, fault injection).
func (er *ERCodec) Store() *eccregion.PackedStore { return er.store }

// NoPointer is the sentinel for "no region entry".
const NoPointer = ^uint32(0)

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

// buildEntry packs displaced bits, parity, and CRC into a SECDED-protected
// payload.
func (er *ERCodec) buildEntry(block []byte) []byte {
	data := make([]byte, (ckEntryData+7)/8)
	displaced := er.extractDisplaced(block)
	bitio.DepositBits(data, 0, displaced, ckDisplacedBits)
	parity := chipParity(block)
	bitio.DepositBits(data, ckDisplacedBits, parity[:], 64)
	crc := crc16(block)
	bitio.DepositBits(data, ckDisplacedBits+64, []byte{byte(crc >> 8), byte(crc)}, 16)
	return er.entryCode.Encode(data)
}

// parseEntry unpacks a (corrected) entry payload.
func (er *ERCodec) parseEntry(payload []byte) (displaced []byte, parity [Beats]byte, crc uint16, corrected bool, err error) {
	cw := make([]byte, er.entryCode.CodewordBytes())
	copy(cw, payload)
	res, _ := er.entryCode.Decode(cw)
	if res == ecc.Uncorrectable {
		return nil, parity, 0, false, fmt.Errorf("%w: region entry uncorrectable", ErrUnrecoverable)
	}
	data := er.entryCode.Data(cw)
	displaced = bitio.ExtractBits(data, 0, ckDisplacedBits)
	pb := bitio.ExtractBits(data, ckDisplacedBits, 64)
	copy(parity[:], pb)
	cb := bitio.ExtractBits(data, ckDisplacedBits+64, 16)
	crc = uint16(cb[0])<<8 | uint16(cb[1])
	return displaced, parity, crc, res == ecc.Corrected, nil
}

// extractDisplaced pulls the 68 displaced-position bits (copy A then copy
// B positions carry original data before the pointers are deposited).
func (er *ERCodec) extractDisplaced(block []byte) []byte {
	out := make([]byte, (ckDisplacedBits+7)/8)
	i := 0
	for _, p := range er.copyA {
		bitio.SetBit(out, i, bitio.Bit(block, p))
		i++
	}
	for _, p := range er.copyB {
		bitio.SetBit(out, i, bitio.Bit(block, p))
		i++
	}
	return out
}

// depositDisplaced restores the 68 original bits into a block.
func (er *ERCodec) depositDisplaced(block, bits []byte) {
	i := 0
	for _, p := range er.copyA {
		bitio.SetBit(block, p, bitio.Bit(bits, i))
		i++
	}
	for _, p := range er.copyB {
		bitio.SetBit(block, p, bitio.Bit(bits, i))
		i++
	}
}

// ptrCodeword encodes ptr as a 34-bit SEC word.
func (er *ERCodec) ptrCodeword(ptr uint32) []byte {
	data := []byte{byte(ptr >> 20), byte(ptr >> 12), byte(ptr >> 4), byte(ptr << 4)}
	return er.ptrCode.Encode(data)
}

// imageWithPointer deposits both pointer copies into a block copy.
func (er *ERCodec) imageWithPointer(block []byte, ptr uint32) []byte {
	cw := er.ptrCodeword(ptr)
	img := make([]byte, BlockBytes)
	copy(img, block)
	for i, p := range er.copyA {
		bitio.SetBit(img, p, bitio.Bit(cw, i))
	}
	for i, p := range er.copyB {
		bitio.SetBit(img, p, bitio.Bit(cw, i))
	}
	return img
}

// decodePtr extracts and SEC-corrects one pointer copy.
func (er *ERCodec) decodePtr(image []byte, positions []int) (uint32, bool) {
	cw := make([]byte, er.ptrCode.CodewordBytes())
	for i, p := range positions {
		bitio.SetBit(cw, i, bitio.Bit(image, p))
	}
	if res, _ := er.ptrCode.Decode(cw); res == ecc.Uncorrectable {
		return 0, false
	}
	pd := er.ptrCode.Data(cw)
	return uint32(pd[0])<<20 | uint32(pd[1])<<12 | uint32(pd[2])<<4 | uint32(pd[3])>>4, true
}

// Write encodes a block under COP-CK-ER. prevPtr carries an existing
// region entry (NoPointer otherwise).
func (er *ERCodec) Write(block []byte, prevPtr uint32) (image []byte, ptr uint32, inline bool, err error) {
	if len(block) != BlockBytes {
		panic("chipkill: ERCodec.Write: block must be 64 bytes")
	}
	if img, status := er.ck.Encode(block); status == StoredProtected {
		if prevPtr != NoPointer && er.store.Valid(prevPtr) {
			if ferr := er.store.Free(prevPtr); ferr != nil {
				return nil, NoPointer, false, ferr
			}
		}
		return img, NoPointer, true, nil
	}

	entry := er.buildEntry(block)
	notAlias := func(p uint32) bool {
		return !er.ck.looksProtected(er.imageWithPointer(block, p))
	}
	if prevPtr != NoPointer && er.store.Valid(prevPtr) {
		if notAlias(prevPtr) {
			if uerr := er.store.UpdatePayload(prevPtr, entry); uerr != nil {
				return nil, NoPointer, false, uerr
			}
			return er.imageWithPointer(block, prevPtr), prevPtr, false, nil
		}
		if ferr := er.store.Free(prevPtr); ferr != nil {
			return nil, NoPointer, false, ferr
		}
	}
	p, aerr := er.store.AllocatePayload(entry, notAlias)
	if aerr != nil {
		return nil, NoPointer, false, aerr
	}
	return er.imageWithPointer(block, p), p, false, nil
}

// Read decodes a COP-CK-ER image, reconstructing a failed chip in either
// the inline (compressed) or region-backed (raw) representation.
func (er *ERCodec) Read(image []byte) (block []byte, info ERInfo, err error) {
	if len(image) != BlockBytes {
		panic("chipkill: ERCodec.Read: image must be 64 bytes")
	}
	info.FailedChip = -1
	info.Ptr = NoPointer
	// Inline path first: the compressed detector is unchanged.
	if er.ck.looksProtected(image) {
		b, ckInfo, derr := er.ck.Decode(image)
		if derr == nil && ckInfo.Protected {
			info.Protected = true
			info.FailedChip = ckInfo.FailedChip
			return b, info, nil
		}
	}

	// Raw path: recover the pointer from either copy.
	info.RegionAccess = true
	type cand struct {
		ptr   uint32
		copyB bool
	}
	var candidates []cand
	if p, ok := er.decodePtr(image, er.copyA); ok {
		candidates = append(candidates, cand{p, false})
	}
	if p, ok := er.decodePtr(image, er.copyB); ok {
		if len(candidates) == 0 || candidates[0].ptr != p {
			candidates = append(candidates, cand{p, true})
		}
	}
	for _, c := range candidates {
		payload, rerr := er.store.ReadPayload(c.ptr)
		if rerr != nil {
			continue
		}
		displaced, parity, crc, corrected, perr := er.parseEntry(payload)
		if perr != nil {
			continue
		}
		original := make([]byte, BlockBytes)
		copy(original, image)
		er.depositDisplaced(original, displaced)
		// Hypothesis: no chip failed.
		if chipParity(original) == parity && crc16(original) == crc {
			info.UsedCopyB = c.copyB
			info.CorrectedEntry = corrected
			info.Ptr = c.ptr
			return original, info, nil
		}
		// Hypothesize each failed chip and reconstruct it from parity.
		for chip := 0; chip < Chips; chip++ {
			fixed := make([]byte, BlockBytes)
			copy(fixed, original)
			for b := 0; b < Beats; b++ {
				v := parity[b]
				for k := 0; k < Chips; k++ {
					if k != chip {
						v ^= fixed[chipByte(k, b)]
					}
				}
				fixed[chipByte(chip, b)] = v
			}
			if crc16(fixed) == crc {
				info.FailedChip = chip
				info.UsedCopyB = c.copyB
				info.CorrectedEntry = corrected
				info.Ptr = c.ptr
				return fixed, info, nil
			}
		}
	}
	return nil, info, ErrUnrecoverable
}
