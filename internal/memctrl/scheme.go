package memctrl

import (
	"fmt"

	"cop/internal/bitio"
	"cop/internal/chipkill"
	"cop/internal/core"
	"cop/internal/ecc"
)

// scheme is one protection scheme: its mode plus the machinery that
// encodes and decodes its DRAM images and the side tables holding its
// check bits. The controller holds the current scheme and, while a live
// migration is in flight, the retiring one; every path that decodes a
// block picks the scheme that wrote its image.
type scheme struct {
	mode     Mode
	codec    *core.Codec        // COP
	sc       *core.CodecScratch // COP codec scratch; controllers are single-threaded
	er       *core.ERCodec      // COP-ER
	adaptive *core.AdaptiveCodec
	ck       *chipkill.ERCodec
	dimmECC  map[uint64][]byte // ECCDIMM: 8 check bytes per block
	regECC   map[uint64]uint16 // ECCRegion: 11-bit parity per block (2-byte entry)
}

// newScheme builds mode's machinery. copCfg parameterizes COP and COP-ER;
// the zero value means core.NewConfig4().
func newScheme(mode Mode, copCfg core.Config) *scheme {
	if copCfg.Code == nil {
		copCfg = core.NewConfig4()
	}
	s := &scheme{mode: mode}
	switch mode {
	case COP:
		s.codec = core.NewCodec(copCfg)
		s.sc = s.codec.NewScratch()
	case COPER:
		s.er = core.NewERCodec(copCfg)
	case ECCDIMM:
		s.dimmECC = map[uint64][]byte{}
	case ECCRegion:
		s.regECC = map[uint64]uint16{}
	case COPAdaptive:
		s.adaptive = core.NewAdaptiveCodec()
	case COPChipkill:
		s.ck = chipkill.NewER()
	}
	return s
}

// decode decodes image, the DRAM image of the block at addr, into dst
// (BlockBytes long) and returns the decoder's verdict. ptr is the region
// pointer whose entry verified a raw COP-ER or chipkill image — the one
// the hardware latches during the fill — and core.NoPointer otherwise. A
// chip failure can turn one pointer copy into another block's live
// pointer, so ptr comes from the read that verified the block, never from
// a second decode of the image. segMask folds a COP-family decode's
// corrected code-word segments into a bitmask for the decode trace
// record. decode touches no telemetry: the fill, scrub and migration
// paths count for themselves.
func (s *scheme) decode(dst []byte, addr uint64, image []byte) (rinfo ReadInfo, ptr uint32, segMask uint64, err error) {
	rinfo.FromDRAM = true
	ptr = core.NoPointer
	switch s.mode {
	case Unprotected:
		copy(dst, image)
	case COP:
		// CorrectedSegments aliases the scratch, so only its length and
		// mask are taken here.
		info, derr := s.codec.DecodeInto(dst, image, s.sc)
		rinfo.DecodedCompressed = info.Compressed
		rinfo.ValidCodewords = info.ValidCodewords
		rinfo.Corrected = len(info.CorrectedSegments)
		segMask = segmentMask(info.CorrectedSegments)
		if derr != nil {
			err = fmt.Errorf("%w: %v", ErrUncorrectable, derr)
		}
	case COPER:
		block, info, derr := s.er.Read(image)
		rinfo.DecodedCompressed = info.Compressed
		rinfo.ValidCodewords = info.ValidCodewords
		rinfo.CorrectedPointer = info.CorrectedPointer
		rinfo.RegionAccess = info.RegionAccess
		if info.CorrectedBlock {
			rinfo.Corrected = 1
		}
		if derr != nil {
			return rinfo, ptr, 0, fmt.Errorf("%w: %v", ErrUncorrectable, derr)
		}
		copy(dst, block)
		ptr = info.Ptr
	case COPChipkill:
		block, info, derr := s.ck.Read(image)
		rinfo.DecodedCompressed = !info.RegionAccess
		rinfo.RegionAccess = info.RegionAccess
		if info.FailedChip >= 0 || info.CorrectedEntry {
			rinfo.Corrected = 1
		}
		if derr != nil {
			return rinfo, ptr, 0, fmt.Errorf("%w: %v", ErrUncorrectable, derr)
		}
		copy(dst, block)
		ptr = info.Ptr
	case COPAdaptive:
		block, _, info, derr := s.adaptive.Decode(image)
		rinfo.DecodedCompressed = info.Compressed
		rinfo.ValidCodewords = info.ValidCodewords
		rinfo.Corrected = len(info.CorrectedSegments)
		segMask = segmentMask(info.CorrectedSegments)
		if derr != nil {
			return rinfo, ptr, segMask, fmt.Errorf("%w: %v", ErrUncorrectable, derr)
		}
		copy(dst, block)
	case ECCRegion:
		rinfo.RegionAccess = true
		var corrected bool
		corrected, err = check523(dst, image, s.regECC[addr])
		if corrected {
			rinfo.Corrected = 1
		}
	case ECCDIMM:
		rinfo.Corrected, err = dimmDecode(dst, image, s.dimmECC[addr])
	default:
		err = fmt.Errorf("memctrl: cannot decode scheme %v", s.mode)
	}
	return rinfo, ptr, segMask, err
}

// wouldReject reports whether data is an incompressible alias the scheme
// cannot store in DRAM, so the line must stay pinned in the LLC (§3.1).
// Only COP and COP-adaptive pin aliases: COP-ER de-aliases every block via
// the region pointer, and the remaining schemes have no alias concept.
func (s *scheme) wouldReject(data []byte) bool {
	switch s.mode {
	case COP:
		return s.codec.WouldReject(data)
	case COPAdaptive:
		return s.adaptive.WouldReject(data)
	}
	return false
}

// dropEntry discards the scheme's side-table entries for a block whose
// image has been re-encoded (or superseded) under another scheme.
func (s *scheme) dropEntry(addr uint64) {
	delete(s.dimmECC, addr)
	delete(s.regECC, addr)
}

// segmentMask folds the corrected code-word indices into a bitmask for the
// decode trace record (segments beyond 63 saturate into bit 63).
func segmentMask(segs []int) uint64 {
	var m uint64
	for _, s := range segs {
		if s > 63 {
			s = 63
		}
		m |= 1 << uint(s)
	}
	return m
}

// blockParity523 computes the ECC-region baseline's per-block check bits.
func blockParity523(block []byte) uint16 {
	cw := ecc.SECDED523512.Encode(block)
	pb := bitio.ExtractBits(cw, 512, 11)
	return uint16(pb[0])<<3 | uint16(pb[1])>>5
}

// check523 verifies/corrects a raw block against its 11-bit parity,
// writing the corrected block to dst.
func check523(dst, block []byte, parity uint16) (corrected bool, err error) {
	cw := make([]byte, ecc.SECDED523512.CodewordBytes())
	copy(cw, block)
	var pb [2]byte
	pb[0] = byte(parity >> 3)
	pb[1] = byte(parity << 5)
	bitio.DepositBits(cw, 512, pb[:], 11)
	res, _ := ecc.SECDED523512.Decode(cw)
	switch res {
	case ecc.Corrected:
		copy(dst, ecc.SECDED523512.Data(cw))
		return true, nil
	case ecc.Uncorrectable:
		return false, ErrUncorrectable
	default:
		copy(dst, block)
		return false, nil
	}
}

// dimmCheckBytes computes the ninth-chip contents for one block: one
// (72,64) check byte per 8-byte word.
func dimmCheckBytes(block []byte) []byte {
	out := make([]byte, 8)
	for w := 0; w < 8; w++ {
		cw := ecc.SECDED7264.Encode(block[8*w : 8*w+8])
		out[w] = cw[8]
	}
	return out
}

// dimmDecode verifies/corrects each word of a block, writing the corrected
// words to dst.
func dimmDecode(dst, block, check []byte) (corrected int, err error) {
	cw := make([]byte, 9)
	for w := 0; w < 8; w++ {
		copy(cw, block[8*w:8*w+8])
		cw[8] = check[w]
		res, _ := ecc.SECDED7264.Decode(cw)
		switch res {
		case ecc.Corrected:
			corrected++
		case ecc.Uncorrectable:
			return corrected, ErrUncorrectable
		}
		copy(dst[8*w:], cw[:8])
	}
	return corrected, nil
}
