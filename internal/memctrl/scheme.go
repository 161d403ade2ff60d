package memctrl

import (
	"encoding/binary"
	"fmt"

	"cop/internal/chipkill"
	"cop/internal/core"
	"cop/internal/ecc"
	"cop/internal/eccregion"
)

// Image lengths of the schemes that keep check bits beside the data. An
// ECC DIMM image is the block followed by its ninth chip: one (72,64)
// check byte per 8-byte word. An ECC-region image is the block followed
// by its 2-byte direct-mapped entry, the 11 check bits of the block's
// (523,512) code word — so the image is that code word.
const (
	dimmImageBytes   = BlockBytes + BlockBytes/8
	regionImageBytes = BlockBytes + 2
)

// scheme is one protection scheme: its mode plus the codecs that encode
// and decode its DRAM images. Every check bit a scheme keeps rides in the
// image itself, so a scheme holds no per-block state. The controller
// holds the current scheme and, while a live migration is in flight, the
// retiring one; every path that decodes a block picks the scheme that
// wrote its image.
type scheme struct {
	mode     Mode
	codec    *core.Codec        // COP
	sc       *core.CodecScratch // COP and COP-adaptive scratch; controllers are single-threaded
	er       *core.ERCodec      // COP-ER
	adaptive *core.AdaptiveCodec
	ck       *chipkill.ERCodec
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
	case COPAdaptive:
		s.adaptive = core.NewAdaptiveCodec()
		s.sc = s.adaptive.Standard().NewScratch()
	case COPChipkill:
		s.ck = chipkill.NewER()
	}
	return s
}

// region returns the scheme's ECC region: COP-ER's and COP-CK-ER's entry
// store, nil for the schemes that keep none.
func (s *scheme) region() *eccregion.PackedStore {
	switch {
	case s.er != nil:
		return s.er.Region()
	case s.ck != nil:
		return s.ck.Region()
	}
	return nil
}

// imageLen is the length of the scheme's DRAM images.
func (s *scheme) imageLen() int {
	switch s.mode {
	case ECCRegion:
		return regionImageBytes
	case ECCDIMM:
		return dimmImageBytes
	}
	return BlockBytes
}

// encode writes data's DRAM image into dst (imageLen long) and returns
// how the block was stored. prev is the region pointer a COP-ER or
// chipkill line latched (core.NoPointer otherwise). Every encoder decides
// RejectedAlias, and finishes every region step that can fail, before it
// writes dst, so a rejected or failed store leaves the old image intact.
// An ECC DIMM image counts as compressed: protected, inline.
func (s *scheme) encode(dst, data []byte, prev uint32) (status core.StoreStatus, err error) {
	switch s.mode {
	case Unprotected:
		copy(dst, data)
		return core.StoredRaw, nil
	case COP:
		return s.codec.EncodeInto(dst, data, s.sc), nil
	case COPER:
		_, status, err = s.er.WriteInto(dst, data, prev)
		return status, err
	case COPChipkill:
		_, status, err = s.ck.WriteInto(dst, data, prev)
		return status, err
	case COPAdaptive:
		_, status = s.adaptive.EncodeInto(dst, data, s.sc)
		return status, nil
	case ECCRegion:
		ecc.SECDED523512.EncodeInto(dst, data)
		return core.StoredRaw, nil
	case ECCDIMM:
		dimmEncode(dst, data)
		return core.StoredCompressed, nil
	}
	return 0, fmt.Errorf("memctrl: cannot encode scheme %v", s.mode)
}

// decode decodes image, a DRAM image the scheme wrote, into dst
// (BlockBytes long) and returns the decoder's verdict. ptr is the region
// pointer whose entry verified a raw COP-ER or chipkill image — the one
// the hardware latches during the fill — and core.NoPointer otherwise. A
// chip failure can turn one pointer copy into another block's live
// pointer, so ptr comes from the read that verified the block, never from
// a second decode of the image. segMask folds a COP-family decode's
// corrected code-word segments into a bitmask for the decode trace
// record. decode touches no telemetry: the fill, scrub and migration
// paths count for themselves.
func (s *scheme) decode(dst, image []byte) (rinfo ReadInfo, ptr uint32, segMask uint64, err error) {
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
		info, derr := s.er.ReadInto(dst, image)
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
		ptr = info.Ptr
	case COPChipkill:
		info, derr := s.ck.ReadInto(dst, image)
		rinfo.DecodedCompressed = !info.RegionAccess
		rinfo.RegionAccess = info.RegionAccess
		if info.FailedChip >= 0 || info.CorrectedEntry {
			rinfo.Corrected = 1
		}
		if derr != nil {
			return rinfo, ptr, 0, fmt.Errorf("%w: %v", ErrUncorrectable, derr)
		}
		ptr = info.Ptr
	case COPAdaptive:
		_, info, derr := s.adaptive.DecodeInto(dst, image, s.sc)
		rinfo.DecodedCompressed = info.Compressed
		rinfo.ValidCodewords = info.ValidCodewords
		rinfo.Corrected = len(info.CorrectedSegments)
		segMask = segmentMask(info.CorrectedSegments)
		if derr != nil {
			return rinfo, ptr, segMask, fmt.Errorf("%w: %v", ErrUncorrectable, derr)
		}
	case ECCRegion:
		rinfo.RegionAccess = true
		var corrected bool
		corrected, err = regionDecode(dst, image)
		if corrected {
			rinfo.Corrected = 1
		}
	case ECCDIMM:
		rinfo.Corrected, err = dimmDecode(dst, image)
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

// regionDecode verifies/corrects an ECC-region image — the block's
// (523,512) code word — writing the corrected block to dst. The image
// itself is left as it is: a demand read corrects its copy.
func regionDecode(dst, image []byte) (corrected bool, err error) {
	var cw [regionImageBytes]byte
	copy(cw[:], image)
	switch res, _ := ecc.SECDED523512.Decode(cw[:]); res {
	case ecc.Uncorrectable:
		return false, ErrUncorrectable
	case ecc.Corrected:
		corrected = true
	}
	copy(dst, cw[:BlockBytes])
	return corrected, nil
}

// dimmEncode writes block and its ninth-chip check bytes into image.
func dimmEncode(image, block []byte) {
	copy(image, block)
	for w := 0; w < 8; w++ {
		_, hi := ecc.SECDED7264.EncodeWords(binary.BigEndian.Uint64(block[8*w:]), 0)
		image[BlockBytes+w] = byte(hi >> 56)
	}
}

// dimmDecode verifies/corrects each word of an ECC DIMM image against its
// check byte, writing the corrected words to dst.
func dimmDecode(dst, image []byte) (corrected int, err error) {
	for w := 0; w < 8; w++ {
		lo, hi := binary.BigEndian.Uint64(image[8*w:]), uint64(image[BlockBytes+w])<<56
		lo, _, res, _ := ecc.SECDED7264.CorrectWords(lo, hi, ecc.SECDED7264.SyndromeWords(lo, hi))
		switch res {
		case ecc.Corrected:
			corrected++
		case ecc.Uncorrectable:
			return corrected, ErrUncorrectable
		}
		binary.BigEndian.PutUint64(dst[8*w:], lo)
	}
	return corrected, nil
}
