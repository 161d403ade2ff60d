package core

import (
	"errors"
	"fmt"

	"cop/internal/bitio"
	"cop/internal/ecc"
	"cop/internal/eccregion"
)

// ERCodec implements COP-ER (§3.3): COP plus exhaustive protection of
// incompressible blocks. An incompressible block has 34 bits displaced —
// a 28-bit ECC-region pointer protected by 6 SEC parity bits takes their
// place — and the displaced bits plus 11 (523,512) check bits covering the
// whole original block are stored in a densely packed region entry.
//
// The displaced bit positions are spread across all code-word segments so
// that, as the paper observes, entry allocation can simply skip pointer
// values that would leave the stored image an alias: with the pointer
// overlapping every code word, some nearby free entry always breaks the
// coincidence.
//
// An ERCodec is not safe for concurrent use: it owns its region and the
// codec's scratch buffers.
type ERCodec struct {
	codec  *Codec
	sc     *CodecScratch // the codec's buffers; an ERCodec is single-threaded, like its region
	region *eccregion.PackedStore
	ptrPos []int // the 34 displaced bit positions
}

// ERReadInfo describes a COP-ER read.
type ERReadInfo struct {
	// Compressed reports whether the block was stored in compressed form.
	Compressed bool
	// RegionAccess reports whether the read required an ECC-region
	// lookup (incompressible blocks only).
	RegionAccess bool
	// CorrectedPointer is set when the SEC(34,28) code repaired a bit in
	// the embedded pointer.
	CorrectedPointer bool
	// CorrectedBlock is set when the (523,512) code repaired a bit in an
	// incompressible block, or the per-segment SECDED repaired a
	// compressed one.
	CorrectedBlock bool
	// ValidCodewords is the decoder's code word count.
	ValidCodewords int
	// Ptr is the ECC-region pointer whose entry the read used (NoPointer
	// for a compressed block, or when the pointer word is uncorrectable).
	Ptr uint32
}

// ErrRegion wraps ECC-region failures surfaced during reads.
var ErrRegion = errors.New("core: ECC region lookup failed")

// erPayloadBytes is the byte length of a COP-ER entry payload: the 34
// displaced bits, then the block's 11 (523,512) check bits.
const erPayloadBytes = (eccregion.EntryBits - 1 + 7) / 8

// NewERCodec builds a COP-ER codec over a fresh ECC region.
func NewERCodec(cfg Config) *ERCodec {
	codec := NewCodec(cfg)
	er := &ERCodec{
		codec:  codec,
		sc:     codec.NewScratch(),
		region: eccregion.NewPacked(eccregion.EntryBits - 1),
	}
	// Distribute the 34 displaced bits across segments, front of each:
	// 9+9+8+8 for COP-4, 5+5+4+4+4+4+4+4 for COP-8.
	segBits := 8 * BlockBytes / cfg.Segments
	per := eccregion.DisplacedBits / cfg.Segments
	extra := eccregion.DisplacedBits % cfg.Segments
	for s := 0; s < cfg.Segments; s++ {
		n := per
		if s < extra {
			n++
		}
		for i := 0; i < n; i++ {
			er.ptrPos = append(er.ptrPos, s*segBits+i)
		}
	}
	if len(er.ptrPos) != eccregion.DisplacedBits {
		panic("core: displaced-bit layout error")
	}
	return er
}

// Codec returns the underlying COP codec.
func (er *ERCodec) Codec() *Codec { return er.codec }

// Region returns the codec's ECC region (storage accounting, fault
// injection).
func (er *ERCodec) Region() *eccregion.PackedStore { return er.region }

// NoPointer is the sentinel for "block has no ECC-region entry".
const NoPointer = eccregion.NoPointer

// withPointer writes block into dst with the encoded pointer word
// occupying the displaced positions.
func (er *ERCodec) withPointer(dst, block []byte, ptr uint32) {
	copy(dst, block)
	eccregion.PutPointer(dst, er.ptrPos, ptr)
}

// Write is WriteInto into a fresh image; compressed reports
// StoredCompressed.
func (er *ERCodec) Write(block []byte, prevPtr uint32) (image []byte, ptr uint32, compressed bool, err error) {
	image = make([]byte, BlockBytes)
	ptr, status, err := er.WriteInto(image, block, prevPtr)
	if err != nil {
		return nil, NoPointer, false, err
	}
	return image, ptr, status == StoredCompressed, nil
}

// WriteInto encodes a block for DRAM under COP-ER into dst (BlockBytes
// long).
//
// prevPtr carries the block's existing ECC-region pointer when the LLC's
// "was uncompressed" bit was set (NoPointer otherwise); the region's reuse
// and free paths are applied. The returned ptr is NoPointer for compressed
// blocks and the live entry pointer for incompressible ones. COP-ER never
// rejects a block: an incompressible one gets a pointer that keeps its
// image alias-free. On error dst is left as it was.
func (er *ERCodec) WriteInto(dst, block []byte, prevPtr uint32) (ptr uint32, status StoreStatus, err error) {
	if len(block) != BlockBytes || len(dst) != BlockBytes {
		panic("core: ERCodec.WriteInto: dst and block must be 64 bytes")
	}
	if er.codec.compress(block, er.sc) {
		er.region.Release(prevPtr)
		er.codec.seal(dst, er.sc)
		return NoPointer, StoredCompressed, nil
	}

	var payload [erPayloadBytes]byte
	var cw [BlockBytes + 2]byte // the block's (523,512) code word
	bitio.Gather(payload[:], block, er.ptrPos)
	ecc.SECDED523512.EncodeInto(cw[:], block)
	bitio.DepositBits(payload[:], eccregion.DisplacedBits, cw[BlockBytes:], eccregion.ParityBits)
	ptr, err = er.region.Place(prevPtr, payload[:], func(p uint32) bool {
		var img [BlockBytes]byte
		er.withPointer(img[:], block, p)
		return !er.codec.IsAlias(img[:])
	})
	if err != nil {
		return NoPointer, StoredRaw, err
	}
	er.withPointer(dst, block, ptr)
	return ptr, StoredRaw, nil
}

// Read is ReadInto into a fresh block.
func (er *ERCodec) Read(image []byte) (block []byte, info ERReadInfo, err error) {
	block = make([]byte, BlockBytes)
	if info, err = er.ReadInto(block, image); err != nil {
		return nil, info, err
	}
	return block, info, nil
}

// ReadInto decodes a COP-ER DRAM image into dst (BlockBytes long, not
// aliasing image). On error dst's contents are unspecified.
func (er *ERCodec) ReadInto(dst, image []byte) (info ERReadInfo, err error) {
	if len(image) != BlockBytes || len(dst) != BlockBytes {
		panic("core: ERCodec.ReadInto: dst and image must be 64 bytes")
	}
	info.Ptr = NoPointer
	dinfo, derr := er.codec.DecodeInto(dst, image, er.sc)
	info.ValidCodewords = dinfo.ValidCodewords
	if dinfo.Compressed {
		info.Compressed = true
		info.CorrectedBlock = len(dinfo.CorrectedSegments) > 0
		return info, derr
	}

	// Incompressible: recover the pointer, fetch the entry, reassemble,
	// and check the whole block.
	info.RegionAccess = true
	ptr, corrected, ok := eccregion.GetPointer(image, er.ptrPos)
	if !ok {
		return info, fmt.Errorf("%w: pointer uncorrectable", ErrRegion)
	}
	info.CorrectedPointer = corrected
	var payload [erPayloadBytes]byte
	if rerr := er.region.ReadPayload(payload[:], ptr); rerr != nil {
		return info, fmt.Errorf("%w: %v", ErrRegion, rerr)
	}
	info.Ptr = ptr

	// The block's code word: the image with its displaced bits restored,
	// then the entry's check bits.
	var cw [BlockBytes + 2]byte
	var check [2]byte
	copy(cw[:], image)
	bitio.Scatter(cw[:], er.ptrPos, payload[:])
	bitio.ExtractBitsInto(check[:], payload[:], eccregion.DisplacedBits, eccregion.ParityBits)
	bitio.DepositBits(cw[:], 8*BlockBytes, check[:], eccregion.ParityBits)
	switch res, _ := ecc.SECDED523512.Decode(cw[:]); res {
	case ecc.Corrected:
		info.CorrectedBlock = true
	case ecc.Uncorrectable:
		return info, ErrUncorrectable
	}
	// A corrected bit may have been one of the displaced positions whose
	// DRAM copy held the pointer — the data copy in the entry is
	// authoritative either way, and the corrected code word reflects it.
	copy(dst, cw[:BlockBytes])
	return info, nil
}
