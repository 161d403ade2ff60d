// Package chipkill implements the extension the paper's conclusion leaves
// to future work: "the proposed approach can be naturally extended to
// provide even greater resilience (e.g. chipkill support)".
//
// On a ×8 non-ECC DIMM a 64-byte block is striped across the rank's eight
// chips — chip c supplies the bytes at offsets c, c+8, …, c+56 (one byte
// per burst beat). A whole-chip failure therefore corrupts one byte in
// every beat: eight scattered bytes that no per-word SECDED can repair.
//
// COP-CK keeps COP's central moves — compress a little, protect inline,
// detect with no metadata — but swaps the SECDED words for erasure coding
// across chips:
//
//   - The block is compressed by 10 bytes (a 15.6% target, still met by
//     most pointer/integer/float blocks): 54 bytes of payload.
//   - 2 bytes hold a CRC-16 of the payload (validation).
//   - 8 bytes hold chip parity: parity byte for beat b is the XOR of the
//     seven data-chip bytes in that beat, and the parity bytes are laid
//     out so they all reside on chip 7.
//
// Decoding tries the no-failure interpretation first (parity consistent in
// every beat and CRC valid). Otherwise it hypothesizes each chip failed in
// turn, in chip order, reconstructs that chip's bytes from parity, and
// accepts the first hypothesis whose CRC validates — correcting a whole
// dead chip, and, as a special case, any error burst confined to one chip
// (including single-bit flips). A later hypothesis that would also
// validate is not tried, so a wrong hypothesis whose CRC passes by chance
// decodes silently wrong (ROADMAP.md, "COP-CK-ER: no silent decode under a
// single-chip failure"). Raw (incompressible) blocks alias with
// probability ≈ 9×2⁻¹⁶ per block; as in COP, aliases are detected at
// write time and pinned in the LLC.
package chipkill

import (
	"fmt"
	"sync"

	"cop/internal/bitio"
	"cop/internal/compress"
	"cop/internal/core"
)

const (
	// BlockBytes is the DRAM block size.
	BlockBytes = 64
	// Chips is the number of ×8 chips striping a block.
	Chips = 8
	// Beats is the number of burst beats (bytes per chip per block).
	Beats = BlockBytes / Chips
	// PayloadBytes is the compressed-data capacity.
	PayloadBytes = BlockBytes - Beats - crcBytes // 54
	crcBytes     = 2
	recordBytes  = PayloadBytes + crcBytes
)

// Layout inside the 64-byte image:
//
//	bytes  0..53: compressed payload (with the combined scheme's selector)
//	bytes 54..55: CRC-16 of bytes 0..53
//	bytes 56..63: per-beat parity — but images are stored *transposed* so
//	              that byte i sits on chip i%8; the parity region's bytes
//	              all land on chip 7 (see seal/extractRecord below).
//
// To keep every parity byte on chip 7 we permute: logical byte L of the
// protected record maps to physical byte phys(L) such that the 8 parity
// bytes occupy offsets 7, 15, …, 63 (chip 7) and payload+CRC fill the
// remaining 56 offsets in order.

// physOffsets returns the physical offset of each of the 56 data-record
// bytes (payload+CRC), skipping chip 7's column.
var physOffsets = func() [recordBytes]int {
	var out [recordBytes]int
	i := 0
	for off := 0; off < BlockBytes; off++ {
		if off%Chips == Chips-1 {
			continue // chip 7: parity column
		}
		out[i] = off
		i++
	}
	return out
}()

// Info describes a decode.
type Info struct {
	// Protected reports whether the image decoded as a COP-CK record.
	Protected bool
	// FailedChip is the chip whose data was reconstructed (-1 if none).
	FailedChip int
}

// Codec compresses blocks and protects them against whole-chip failures.
// Safe for concurrent use.
type Codec struct {
	scheme compress.Scheme
	pool   sync.Pool // *scratch for EncodeInto and DecodeInto
}

// scratch holds the buffers one encode or decode works in.
type scratch struct {
	w   bitio.Writer
	rd  bitio.Reader
	rec [recordBytes]byte // payload + CRC
}

// New returns a COP-CK codec using MSB+RLE compression. TXT is excluded
// for the same reason it misses the 8-byte configuration: its fixed
// 448-bit output exceeds the 54-byte (432-bit) payload budget.
func New() *Codec {
	c := &Codec{scheme: compress.NewCombinedOf(compress.MSB{Shifted: true}, compress.RLE{})}
	c.pool.New = func() any { return new(scratch) }
	return c
}

// crc16 is CRC-16/CCITT-FALSE — implemented locally; the model needs a
// fixed, well-understood validator, not a configurable one.
func crc16(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// chipByte returns physical offset of beat b on chip c.
func chipByte(c, b int) int { return b*Chips + c }

// compress compresses block into sc's record and appends the payload's
// CRC, reporting whether the block fits the payload budget. It writes no
// image, so a caller can finish every step that may fail before it seals
// one.
func (c *Codec) compress(block []byte, sc *scratch) bool {
	sc.w.Reset(8 * PayloadBytes)
	nbits, ok := compress.CompressToWriter(c.scheme, &sc.w, block, 8*PayloadBytes)
	if !ok {
		return false
	}
	n := copy(sc.rec[:], sc.w.Bytes()[:(nbits+7)/8])
	clear(sc.rec[n:PayloadBytes])
	crc := crc16(sc.rec[:PayloadBytes])
	sc.rec[PayloadBytes] = byte(crc >> 8)
	sc.rec[PayloadBytes+1] = byte(crc)
	return true
}

// seal writes the 64-byte image of rec into dst: record bytes go to the
// non-parity offsets, then parity is computed per beat into chip 7's
// column.
func seal(dst []byte, rec *[recordBytes]byte) {
	for i, off := range physOffsets {
		dst[off] = rec[i]
	}
	for b := 0; b < Beats; b++ {
		var p byte
		for c := 0; c < Chips-1; c++ {
			p ^= dst[chipByte(c, b)]
		}
		dst[chipByte(Chips-1, b)] = p
	}
}

// extractRecord copies img's 56 record bytes into rec, rebuilding chip
// failed's bytes from the other chips' parity (failed < 0: none; chip 7
// holds no record bytes).
func extractRecord(rec *[recordBytes]byte, img []byte, failed int) {
	for i, off := range physOffsets {
		rec[i] = img[off]
	}
	if failed < 0 || failed == Chips-1 {
		return
	}
	for b := 0; b < Beats; b++ {
		var p byte
		for c := 0; c < Chips; c++ {
			if c != failed {
				p ^= img[chipByte(c, b)]
			}
		}
		rec[b*(Chips-1)+failed] = p
	}
}

// parityConsistent reports whether every beat's parity checks out.
func parityConsistent(img []byte) bool {
	for b := 0; b < Beats; b++ {
		var p byte
		for c := 0; c < Chips; c++ {
			p ^= img[chipByte(c, b)]
		}
		if p != 0 {
			return false
		}
	}
	return true
}

// recordValid checks the CRC over a candidate record.
func recordValid(rec *[recordBytes]byte) bool {
	want := uint16(rec[PayloadBytes])<<8 | uint16(rec[PayloadBytes+1])
	return crc16(rec[:PayloadBytes]) == want
}

// validRecord finds the first interpretation of img whose record
// validates — intact when every beat's parity is consistent, else each
// chip in turn rebuilt from the other chips' parity — and leaves that
// record in rec. It returns the rebuilt chip (-1 for none) and ok=false
// when no interpretation validates. With consistent parity a rebuilt chip
// equals the stored one, so only the intact record is checked.
func validRecord(rec *[recordBytes]byte, img []byte) (chip int, ok bool) {
	if parityConsistent(img) {
		extractRecord(rec, img, -1)
		return -1, recordValid(rec)
	}
	for chip := 0; chip < Chips; chip++ {
		extractRecord(rec, img, chip)
		if recordValid(rec) {
			return chip, true
		}
	}
	return -1, false
}

// looksProtected reports whether an image has any valid COP-CK
// interpretation (the alias test).
func looksProtected(img []byte) bool {
	var rec [recordBytes]byte
	_, ok := validRecord(&rec, img)
	return ok
}

// Encode is EncodeInto into a fresh image (nil on RejectedAlias).
func (c *Codec) Encode(block []byte) (image []byte, status core.StoreStatus) {
	image = make([]byte, BlockBytes)
	if status = c.EncodeInto(image, block); status == core.RejectedAlias {
		return nil, status
	}
	return image, status
}

// EncodeInto converts a plaintext block into its DRAM image in dst
// (BlockBytes long): StoredCompressed for a protected record, StoredRaw
// for the block itself, RejectedAlias (dst left as it was) for a raw
// block that would read as protected.
func (c *Codec) EncodeInto(dst, block []byte) core.StoreStatus {
	if len(block) != BlockBytes || len(dst) != BlockBytes {
		panic("chipkill: EncodeInto: dst and block must be 64 bytes")
	}
	sc := c.pool.Get().(*scratch)
	defer c.pool.Put(sc)
	if c.compress(block, sc) {
		seal(dst, &sc.rec)
		return core.StoredCompressed
	}
	if looksProtected(block) {
		return core.RejectedAlias
	}
	copy(dst, block)
	return core.StoredRaw
}

// Decode is DecodeInto into a fresh block (nil on error).
func (c *Codec) Decode(image []byte) (block []byte, info Info, err error) {
	block = make([]byte, BlockBytes)
	if info, err = c.DecodeInto(block, image); err != nil {
		return nil, info, err
	}
	return block, info, nil
}

// DecodeInto converts a DRAM image back to plaintext in dst (BlockBytes
// long), correcting a whole-chip failure (or any corruption confined to
// one chip) in protected blocks. On error dst's contents are unspecified.
func (c *Codec) DecodeInto(dst, image []byte) (Info, error) {
	sc := c.pool.Get().(*scratch)
	defer c.pool.Put(sc)
	return c.decodeInto(dst, image, sc)
}

func (c *Codec) decodeInto(dst, image []byte, sc *scratch) (info Info, err error) {
	if len(image) != BlockBytes || len(dst) != BlockBytes {
		panic("chipkill: DecodeInto: dst and image must be 64 bytes")
	}
	info.FailedChip, info.Protected = validRecord(&sc.rec, image)
	if !info.Protected {
		// No interpretation validates. Either this is a raw block (parity
		// over random data is essentially never consistent — so raw
		// blocks normally land here) or a protected block with
		// multi-chip damage. Telling them apart needs the raw-block
		// heuristic: raw blocks were stored verbatim, so hand the data
		// back; genuinely protected blocks were validated at write time,
		// so a multi-chip hit surfaces as garbage — the same silent-
		// corruption corner COP accepts for <threshold code words.
		copy(dst, image)
		return info, nil
	}
	sc.rd.Reset(sc.rec[:PayloadBytes])
	if err := compress.DecompressIntoBlock(c.scheme, dst, &sc.rd, 8*PayloadBytes, 8*PayloadBytes); err != nil {
		return info, fmt.Errorf("chipkill: validated record failed to decompress: %w", err)
	}
	return info, nil
}

// IsAlias reports whether a block's raw form would be misread as
// protected.
func (c *Codec) IsAlias(block []byte) bool { return looksProtected(block) }

// FailChip corrupts every byte chip c contributes to the image, simulating
// a whole-chip (hard or peripheral) failure. The corruption pattern is
// deterministic from pattern.
func FailChip(image []byte, c int, pattern byte) {
	for b := 0; b < Beats; b++ {
		image[chipByte(c, b)] ^= pattern | 1 // never a no-op
	}
}
