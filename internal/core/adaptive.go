package core

// AdaptiveCodec implements an option §3.1 mentions and sets aside: "it is
// theoretically possible to use stronger codes for more compressible data
// blocks". Blocks that compress far enough for the 8-byte configuration
// are stored as eight (64,56) code words — surviving up to three
// scattered single-bit errors (5-of-8 threshold) instead of one; blocks
// that only meet the 4-byte target fall back to four (128,120) words; the
// rest behave as plain COP.
//
// Crucially the scheme stays metadata-free: the decoder first counts
// (64,56) code words (≥5 ⇒ strong format), then (128,120) code words
// (≥3 ⇒ standard format), then treats the block as raw. Cross-aliasing is
// no worse than COP's own: a block in one format looks like random data
// to the other format's checker, and the paper's probability analysis
// applies unchanged to each test.
type AdaptiveCodec struct {
	strong   *Codec // COP-8 geometry
	standard *Codec // COP-4 geometry
}

// AdaptiveFormat identifies how a block was stored.
type AdaptiveFormat int

// Formats, strongest first.
const (
	// FormatStrong: eight (64,56) words, threshold 5.
	FormatStrong AdaptiveFormat = iota
	// FormatStandard: four (128,120) words, threshold 3.
	FormatStandard
	// FormatRaw: incompressible, unprotected.
	FormatRaw
)

// NewAdaptiveCodec builds the two-tier codec from the paper's two
// configurations.
func NewAdaptiveCodec() *AdaptiveCodec {
	return &AdaptiveCodec{
		strong:   NewCodec(NewConfig8()),
		standard: NewCodec(NewConfig4()),
	}
}

// Encode is EncodeInto into a fresh image (nil on RejectedAlias).
func (a *AdaptiveCodec) Encode(block []byte) (image []byte, format AdaptiveFormat, status StoreStatus) {
	sc := a.standard.pool.Get().(*CodecScratch)
	image = make([]byte, BlockBytes)
	format, status = a.EncodeInto(image, block, sc)
	a.standard.pool.Put(sc)
	if status == RejectedAlias {
		return nil, format, status
	}
	return image, format, status
}

// EncodeInto stores the block in the strongest format it fits, writing
// the image into dst (BlockBytes long) with sc's buffers. On
// RejectedAlias dst is left as it was.
func (a *AdaptiveCodec) EncodeInto(dst, block []byte, sc *CodecScratch) (AdaptiveFormat, StoreStatus) {
	if len(block) != BlockBytes || len(dst) != BlockBytes {
		panic("core: AdaptiveCodec.EncodeInto: dst and block must be 64 bytes")
	}
	var img [BlockBytes]byte
	if a.strong.compress(block, sc) {
		a.strong.seal(img[:], sc)
		// Guard against cross-format aliasing: the strong image must not
		// read as a standard-format block (astronomically unlikely, but
		// the check is cheap and makes the decode order sound).
		if !a.standard.meetsThreshold(img[:]) {
			copy(dst, img[:])
			return FormatStrong, StoredCompressed
		}
	}
	if a.standard.compress(block, sc) {
		a.standard.seal(img[:], sc)
		if !a.strong.meetsThreshold(img[:]) {
			copy(dst, img[:])
			return FormatStandard, StoredCompressed
		}
		// The standard image aliases as strong-format: fall through to
		// raw handling (equivalent to an incompressible block).
	}
	// Raw blocks must not alias in either format.
	if a.standard.meetsThreshold(block) || a.strong.meetsThreshold(block) {
		return FormatRaw, RejectedAlias
	}
	copy(dst, block)
	return FormatRaw, StoredRaw
}

// WouldReject reports whether Encode would return RejectedAlias, without
// building any image. Every RejectedAlias path in Encode requires the raw
// block to alias at least one tier's format, so the cheap valid-code-word
// counts screen out the overwhelming majority of blocks before any
// compression runs; only the rare screened-in blocks pay for the full
// Encode decision.
func (a *AdaptiveCodec) WouldReject(block []byte) bool {
	if a.strong.CountValidCodewords(block) < a.strong.cfg.Threshold &&
		a.standard.CountValidCodewords(block) < a.standard.cfg.Threshold {
		return false
	}
	_, _, status := a.Encode(block)
	return status == RejectedAlias
}

// Decode is DecodeInto into a fresh block (nil on error).
func (a *AdaptiveCodec) Decode(image []byte) (block []byte, format AdaptiveFormat, info DecodeInfo, err error) {
	sc := a.standard.pool.Get().(*CodecScratch)
	block = make([]byte, BlockBytes)
	format, info, err = a.DecodeInto(block, image, sc)
	if len(info.CorrectedSegments) > 0 {
		info.CorrectedSegments = append([]int(nil), info.CorrectedSegments...)
	}
	a.standard.pool.Put(sc)
	if err != nil {
		return nil, format, info, err
	}
	return block, format, info, nil
}

// DecodeInto detects the format (strong first) and recovers the block
// into dst (BlockBytes long) with sc's buffers. On error dst's contents
// are unspecified; info.CorrectedSegments aliases sc, as in
// Codec.DecodeInto.
func (a *AdaptiveCodec) DecodeInto(dst, image []byte, sc *CodecScratch) (AdaptiveFormat, DecodeInfo, error) {
	if a.strong.meetsThreshold(image) {
		info, err := a.strong.DecodeInto(dst, image, sc)
		return FormatStrong, info, err
	}
	info, err := a.standard.DecodeInto(dst, image, sc)
	if info.Compressed {
		return FormatStandard, info, err
	}
	return FormatRaw, info, err
}

// Strong and Standard expose the underlying codecs (for analysis).
func (a *AdaptiveCodec) Strong() *Codec { return a.strong }

// Standard returns the COP-4 tier codec.
func (a *AdaptiveCodec) Standard() *Codec { return a.standard }
