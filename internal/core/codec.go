// Package core implements the paper's primary contribution: the COP
// encoder/decoder pair that stores each compressible 64-byte block in DRAM
// as compressed data plus inline SECDED check bits, and — without any
// compression-tracking metadata — recognizes protected blocks on the way
// back by counting valid (zero-syndrome) code words.
//
// Two configurations from the paper are provided: COP-4 frees 4 bytes and
// splits the block into four (128,120) code words with a 3-of-4 validity
// threshold; COP-8 frees 8 bytes and uses eight (64,56) code words with a
// 5-of-8 threshold. A static per-segment hash is XORed into protected
// blocks so that blocks of repeated application data cannot masquerade as
// a pile of identical valid code words (§3.1).
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"cop/internal/bitio"
	"cop/internal/compress"
	"cop/internal/ecc"
)

// BlockBytes is the DRAM block size COP operates on.
const BlockBytes = compress.BlockBytes

// Config describes one COP operating point.
type Config struct {
	// Code is the per-segment SECDED code.
	Code *ecc.Code
	// Segments is how many code words a protected block holds.
	Segments int
	// Threshold is the minimum count of valid code words for a block to
	// be treated as compressed/protected.
	Threshold int
	// Scheme compresses blocks into the data capacity.
	Scheme compress.Scheme
	// DisableHash turns off the static hash (for the ablation that shows
	// why it exists). Production COP always hashes.
	DisableHash bool
}

// Validate checks the internal consistency of the configuration.
func (c Config) Validate() error {
	if c.Code == nil || c.Scheme == nil {
		return errors.New("core: Config needs a Code and a Scheme")
	}
	if c.Segments*c.Code.N() != 8*BlockBytes {
		return fmt.Errorf("core: %d segments of %d bits do not tile a %d-bit block",
			c.Segments, c.Code.N(), 8*BlockBytes)
	}
	if c.Threshold < 1 || c.Threshold > c.Segments {
		return fmt.Errorf("core: threshold %d out of range 1..%d", c.Threshold, c.Segments)
	}
	return nil
}

// DataCapacityBits is the number of compressed payload bits a protected
// block can carry (Segments × data bits per code word).
func (c Config) DataCapacityBits() int { return c.Segments * c.Code.K() }

// NewConfig4 returns the paper's preferred configuration: 4 bytes of ECC,
// four (128,120) code words, threshold 3, TXT+MSB+RLE combined compression.
func NewConfig4() Config {
	return Config{
		Code:      ecc.SECDED128120,
		Segments:  4,
		Threshold: 3,
		Scheme:    compress.NewCombined(),
	}
}

// NewConfig8 returns the 8-byte-ECC configuration: eight (64,56) code
// words, threshold 5, MSB+RLE combined compression (TXT cannot meet the
// budget).
func NewConfig8() Config {
	return Config{
		Code:      ecc.SECDED6456,
		Segments:  8,
		Threshold: 5,
		Scheme:    compress.NewCombinedOf(compress.MSB{Shifted: true}, compress.RLE{}),
	}
}

// StoreStatus reports how Encode disposed of a block.
type StoreStatus int

const (
	// StoredCompressed: the block was compressed and written with inline ECC.
	StoredCompressed StoreStatus = iota
	// StoredRaw: the block was incompressible (and not an alias) and was
	// written to DRAM unprotected, byte for byte.
	StoredRaw
	// RejectedAlias: the block is incompressible and its raw form would
	// decode as ≥ threshold valid code words. It must not be written to
	// DRAM; the LLC keeps it with the alias bit set (§3.1).
	RejectedAlias
)

func (s StoreStatus) String() string {
	switch s {
	case StoredCompressed:
		return "compressed"
	case StoredRaw:
		return "raw"
	case RejectedAlias:
		return "alias-rejected"
	default:
		return fmt.Sprintf("StoreStatus(%d)", int(s))
	}
}

// DecodeInfo describes what the decoder saw and did for one block.
type DecodeInfo struct {
	// Compressed reports whether the block was treated as protected
	// (≥ threshold valid code words).
	Compressed bool
	// ValidCodewords is the number of zero-syndrome code words observed.
	ValidCodewords int
	// CorrectedSegments lists segment indices where a single-bit error
	// was corrected.
	CorrectedSegments []int
	// Uncorrectable is set when a protected block contained a code word
	// with a detected-uncorrectable (double) error. The returned data is
	// unreliable.
	Uncorrectable bool
}

// ErrUncorrectable is returned by Decode when ECC detects an error it
// cannot repair (a double-bit error within one code word).
var ErrUncorrectable = errors.New("core: detected uncorrectable error in protected block")

// ErrCorrupt is returned when a protected block decodes to an
// ill-formed compressed payload — possible only after data corruption that
// slipped past (or overwhelmed) the ECC.
var ErrCorrupt = errors.New("core: protected block payload failed to decompress")

// Codec encodes and decodes DRAM block images for one Config. It is
// stateless apart from precomputed tables and safe for concurrent use.
type Codec struct {
	cfg      Config
	hash     *ecc.HashMasks
	cwLen    int // code word length in bytes
	kBits    int // data bits per code word
	capBits  int // DataCapacityBits()
	capBytes int // ceil(capBits/8)
	segOff   []int

	// Word-parallel datapath, used when code words are exactly one or two
	// uint64 lanes wide (the COP-4 and COP-8 geometries). Each segment's
	// hash mask is prefolded into lanes; kMaskLo/kMaskHi select the k data
	// bits of a corrected code word.
	wordOK           bool
	kMaskLo, kMaskHi uint64
	hashLo, hashHi   []uint64

	pool sync.Pool // *CodecScratch for the allocating compatibility APIs
}

// NewCodec builds a Codec, panicking on an invalid Config (configs are
// compile-time constants in practice).
func NewCodec(cfg Config) *Codec {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Codec{
		cfg:      cfg,
		hash:     ecc.NewHashMasks(cfg.Segments, cfg.Code.CodewordBytes()),
		cwLen:    cfg.Code.CodewordBytes(),
		kBits:    cfg.Code.K(),
		capBits:  cfg.DataCapacityBits(),
		capBytes: (cfg.DataCapacityBits() + 7) / 8,
	}
	c.segOff = make([]int, cfg.Segments)
	for i := range c.segOff {
		c.segOff[i] = i * c.cwLen
	}
	c.wordOK = cfg.Code.WordParallel() && (c.cwLen == 8 || c.cwLen == 16)
	if c.wordOK {
		if c.kBits <= 64 {
			c.kMaskLo = ^uint64(0) << uint(64-c.kBits)
		} else {
			c.kMaskLo = ^uint64(0)
			c.kMaskHi = ^uint64(0) << uint(128-c.kBits)
		}
		c.hashLo = make([]uint64, cfg.Segments)
		c.hashHi = make([]uint64, cfg.Segments)
		if !cfg.DisableHash {
			for s := 0; s < cfg.Segments; s++ {
				c.hashLo[s], c.hashHi[s] = c.hash.Words(s)
			}
		}
	}
	c.pool.New = func() any { return c.NewScratch() }
	return c
}

// Config returns the codec's configuration.
func (c *Codec) Config() Config { return c.cfg }

// CodecScratch holds every buffer the zero-allocation entry points need.
// One scratch serves one codec at a time; it is not safe for concurrent
// use, but may be reused across calls and across codecs indefinitely.
type CodecScratch struct {
	w       bitio.Writer
	rd      bitio.Reader
	payload []byte // BlockBytes long; capBytes of it carry payload, rest stays zero
	corr    []int  // corrected-segment indices, capacity Segments
	data    []byte // generic (non-word) path: one segment's data bits
	cw      []byte // generic (non-word) path: one code word
}

// NewScratch allocates a scratch sized for this codec's geometry. Callers
// on the hot path hold one per worker; the allocating wrappers draw from an
// internal pool.
func (c *Codec) NewScratch() *CodecScratch {
	sc := &CodecScratch{
		payload: make([]byte, BlockBytes),
		corr:    make([]int, 0, c.cfg.Segments),
		data:    make([]byte, (c.kBits+7)/8),
		cw:      make([]byte, c.cwLen),
	}
	sc.w.Reset(c.capBits)
	return sc
}

// fit regrows the per-segment buffers when a scratch built for a smaller
// geometry is handed to this codec (payload is always BlockBytes).
func (c *Codec) fit(sc *CodecScratch) {
	if cap(sc.corr) < c.cfg.Segments {
		sc.corr = make([]int, 0, c.cfg.Segments)
	}
	if len(sc.data) < (c.kBits+7)/8 {
		sc.data = make([]byte, (c.kBits+7)/8)
	}
	if len(sc.cw) < c.cwLen {
		sc.cw = make([]byte, c.cwLen)
	}
}

// Encode converts a 64-byte plaintext block into its DRAM image.
//
// For compressible blocks the image holds Segments hash-masked code words
// (compressed data + check bits) and status is StoredCompressed. For
// incompressible, non-aliasing blocks the image is the plaintext itself
// and status is StoredRaw. For incompressible aliases no image is produced
// (status RejectedAlias): the caller must keep the block in the LLC.
func (c *Codec) Encode(block []byte) (image []byte, status StoreStatus) {
	sc := c.pool.Get().(*CodecScratch)
	image = make([]byte, BlockBytes)
	status = c.EncodeInto(image, block, sc)
	c.pool.Put(sc)
	if status == RejectedAlias {
		return nil, status
	}
	return image, status
}

// EncodeInto is the zero-allocation Encode: the DRAM image is written into
// dst (BlockBytes long) using only sc's buffers. On RejectedAlias dst is
// left as it was. The image bytes are identical to Encode's.
func (c *Codec) EncodeInto(dst, block []byte, sc *CodecScratch) StoreStatus {
	if len(block) != BlockBytes || len(dst) != BlockBytes {
		panic("core: EncodeInto: dst and block must be 64 bytes")
	}
	if c.compress(block, sc) {
		c.seal(dst, sc)
		return StoredCompressed
	}
	if c.meetsThreshold(block) {
		return RejectedAlias
	}
	copy(dst, block)
	return StoredRaw
}

// compress compresses block into sc's payload, zero-padded to the full
// data capacity, and reports whether it fit. It writes no image, so a
// caller can finish every step that may fail before it seals dst.
func (c *Codec) compress(block []byte, sc *CodecScratch) bool {
	c.fit(sc)
	sc.w.Reset(c.capBits)
	nbits, ok := compress.CompressToWriter(c.cfg.Scheme, &sc.w, block, c.capBits)
	if !ok {
		return false
	}
	padded := sc.payload[:BlockBytes]
	n := copy(padded, sc.w.Bytes()[:(nbits+7)/8])
	clear(padded[n:])
	return true
}

// seal writes the protected image of the payload compress left in sc into
// dst: the payload cut into Segments chunks of K bits, each encoded and
// hash-masked.
func (c *Codec) seal(dst []byte, sc *CodecScratch) {
	padded := sc.payload[:BlockBytes]
	if c.wordOK {
		var pw [9]uint64
		for i := 0; i < 8; i++ {
			pw[i] = binary.BigEndian.Uint64(padded[8*i:])
		}
		for s := 0; s < c.cfg.Segments; s++ {
			o := s * c.kBits
			dataLo := get64(&pw, o) & c.kMaskLo
			var dataHi uint64
			if c.kBits > 64 {
				dataHi = get64(&pw, o+64) & c.kMaskHi
			}
			lo, hi := c.cfg.Code.EncodeWords(dataLo, dataHi)
			binary.BigEndian.PutUint64(dst[c.segOff[s]:], lo^c.hashLo[s])
			if c.cwLen == 16 {
				binary.BigEndian.PutUint64(dst[c.segOff[s]+8:], hi^c.hashHi[s])
			}
		}
		return
	}

	data := sc.data[:(c.kBits+7)/8]
	for s := 0; s < c.cfg.Segments; s++ {
		extractBitsInto(data, padded, s*c.kBits, c.kBits)
		cw := dst[c.segOff[s] : c.segOff[s]+c.cwLen]
		c.cfg.Code.EncodeInto(cw, data)
		if !c.cfg.DisableHash {
			c.hash.Apply(s, cw)
		}
	}
}

// Decode converts a DRAM image back into the plaintext block, applying the
// paper's detection rule: hash, syndrome-check all segments, and treat the
// block as protected when at least Threshold code words are valid.
//
// The returned error is non-nil only for protected blocks whose ECC
// reported an uncorrectable error or whose payload failed to decompress;
// info is always populated.
func (c *Codec) Decode(image []byte) (block []byte, info DecodeInfo, err error) {
	sc := c.pool.Get().(*CodecScratch)
	block = make([]byte, BlockBytes)
	info, err = c.DecodeInto(block, image, sc)
	// info.CorrectedSegments aliases sc; copy it before the scratch is
	// reused (keeping nil when no corrections happened).
	if len(info.CorrectedSegments) > 0 {
		info.CorrectedSegments = append([]int(nil), info.CorrectedSegments...)
	}
	c.pool.Put(sc)
	if err != nil {
		return nil, info, err
	}
	return block, info, nil
}

// DecodeInto is the zero-allocation Decode: the plaintext block is written
// into dst (BlockBytes long) using only sc's buffers. On error dst's
// contents are unspecified. info.CorrectedSegments, when non-empty, aliases
// sc and is valid only until sc's next use.
func (c *Codec) DecodeInto(dst, image []byte, sc *CodecScratch) (info DecodeInfo, err error) {
	if len(image) != BlockBytes || len(dst) != BlockBytes {
		panic("core: DecodeInto: dst and image must be 64 bytes")
	}
	c.fit(sc)
	if c.wordOK {
		return c.decodeWords(dst, image, sc)
	}

	valid := 0
	for s := 0; s < c.cfg.Segments; s++ {
		cw := sc.cw[:c.cwLen]
		copy(cw, image[c.segOff[s]:c.segOff[s]+c.cwLen])
		if !c.cfg.DisableHash {
			c.hash.Apply(s, cw)
		}
		if c.cfg.Code.Valid(cw) {
			valid++
		}
	}
	info.ValidCodewords = valid
	if valid < c.cfg.Threshold {
		// Unprotected raw data: pass through unmodified.
		copy(dst, image)
		return info, nil
	}

	info.Compressed = true
	padded := sc.payload[:c.capBytes]
	for i := range padded {
		padded[i] = 0
	}
	for s := 0; s < c.cfg.Segments; s++ {
		cw := sc.cw[:c.cwLen]
		copy(cw, image[c.segOff[s]:c.segOff[s]+c.cwLen])
		if !c.cfg.DisableHash {
			c.hash.Apply(s, cw)
		}
		res, _ := c.cfg.Code.Decode(cw)
		switch res {
		case ecc.Corrected:
			if info.CorrectedSegments == nil {
				info.CorrectedSegments = sc.corr[:0]
			}
			info.CorrectedSegments = append(info.CorrectedSegments, s)
		case ecc.Uncorrectable:
			info.Uncorrectable = true
		}
		depositBits(padded, s*c.kBits, cw, c.kBits)
	}
	if info.Uncorrectable {
		return info, ErrUncorrectable
	}
	return info, c.decompressPayload(dst, sc)
}

// decodeWords is DecodeInto's hot path: each code word lives in one or two
// uint64 lanes, the hash unmask is a lane XOR, syndromes are wide parity
// folds, and the corrected data bits move into the payload with
// shift-and-mask word deposits — no per-bit loops anywhere.
func (c *Codec) decodeWords(dst, image []byte, sc *CodecScratch) (info DecodeInfo, err error) {
	var los, his [8]uint64
	var syn [8]uint16
	valid := 0
	for s := 0; s < c.cfg.Segments; s++ {
		lo := binary.BigEndian.Uint64(image[c.segOff[s]:]) ^ c.hashLo[s]
		var hi uint64
		if c.cwLen == 16 {
			hi = binary.BigEndian.Uint64(image[c.segOff[s]+8:]) ^ c.hashHi[s]
		}
		los[s], his[s] = lo, hi
		syn[s] = c.cfg.Code.SyndromeWords(lo, hi)
		if syn[s] == 0 {
			valid++
		}
	}
	info.ValidCodewords = valid
	if valid < c.cfg.Threshold {
		copy(dst, image)
		return info, nil
	}

	info.Compressed = true
	var pw [9]uint64
	for s := 0; s < c.cfg.Segments; s++ {
		lo, hi, res, _ := c.cfg.Code.CorrectWords(los[s], his[s], syn[s])
		switch res {
		case ecc.Corrected:
			if info.CorrectedSegments == nil {
				info.CorrectedSegments = sc.corr[:0]
			}
			info.CorrectedSegments = append(info.CorrectedSegments, s)
		case ecc.Uncorrectable:
			info.Uncorrectable = true
		}
		o := s * c.kBits
		put64(&pw, o, lo&c.kMaskLo)
		if c.kBits > 64 {
			put64(&pw, o+64, hi&c.kMaskHi)
		}
	}
	if info.Uncorrectable {
		return info, ErrUncorrectable
	}
	for i := 0; i < 8; i++ {
		binary.BigEndian.PutUint64(sc.payload[8*i:], pw[i])
	}
	return info, c.decompressPayload(dst, sc)
}

// decompressPayload inverts the compression over sc.payload into dst.
func (c *Codec) decompressPayload(dst []byte, sc *CodecScratch) error {
	sc.rd.Reset(sc.payload[:c.capBytes])
	if compress.DecompressIntoBlock(c.cfg.Scheme, dst, &sc.rd, c.capBits, c.capBits) != nil {
		return ErrCorrupt
	}
	return nil
}

// Classify reports how Encode would dispose of a block without building
// the DRAM image (the proactive LLC alias-bit check from §3.1).
func (c *Codec) Classify(block []byte) StoreStatus {
	if len(block) != BlockBytes {
		panic("core: Classify: block must be 64 bytes")
	}
	sc := c.pool.Get().(*CodecScratch)
	sc.w.Reset(c.capBits)
	_, ok := compress.CompressToWriter(c.cfg.Scheme, &sc.w, block, c.capBits)
	c.pool.Put(sc)
	if ok {
		return StoredCompressed
	}
	if c.meetsThreshold(block) {
		return RejectedAlias
	}
	return StoredRaw
}

// WouldReject reports whether Encode would return RejectedAlias — the only
// bit the LLC's proactive alias check actually needs. Unlike Classify it
// runs the cheap valid-code-word count first and compresses only on the
// rare blocks that alias in raw form (~one in tens of thousands for random
// data), so callers that previously ran a full Classify (or worse, a full
// Encode) before every real Encode no longer compress each block twice.
func (c *Codec) WouldReject(block []byte) bool {
	if !c.meetsThreshold(block) {
		return false
	}
	sc := c.pool.Get().(*CodecScratch)
	sc.w.Reset(c.capBits)
	_, ok := compress.CompressToWriter(c.cfg.Scheme, &sc.w, block, c.capBits)
	c.pool.Put(sc)
	return !ok
}

// meetsThreshold reports CountValidCodewords(block) >= Threshold, bailing
// out of the syndrome scan as soon as either outcome is decided. Random
// (incompressible) data fails code word after code word, so the alias
// check on the write path usually stops once the threshold has become
// unreachable instead of always paying for all Segments syndromes.
func (c *Codec) meetsThreshold(block []byte) bool {
	t := c.cfg.Threshold
	if t <= 0 {
		return true
	}
	if !c.wordOK {
		return c.CountValidCodewords(block) >= t
	}
	n := c.cfg.Segments
	valid := 0
	for s := 0; s < n; s++ {
		lo := binary.BigEndian.Uint64(block[c.segOff[s]:]) ^ c.hashLo[s]
		var hi uint64
		if c.cwLen == 16 {
			hi = binary.BigEndian.Uint64(block[c.segOff[s]+8:]) ^ c.hashHi[s]
		}
		if c.cfg.Code.SyndromeWords(lo, hi) == 0 {
			valid++
			if valid >= t {
				return true
			}
		} else if valid+(n-1-s) < t {
			return false
		}
	}
	return false
}

// CountValidCodewords counts how many of the block's segments would look
// like valid code words to the decoder (hash applied first). A raw block
// with at least Threshold valid code words is an alias (§3.1).
func (c *Codec) CountValidCodewords(block []byte) int {
	if len(block) != BlockBytes {
		panic("core: CountValidCodewords: block must be 64 bytes")
	}
	valid := 0
	if c.wordOK {
		for s := 0; s < c.cfg.Segments; s++ {
			lo := binary.BigEndian.Uint64(block[c.segOff[s]:]) ^ c.hashLo[s]
			var hi uint64
			if c.cwLen == 16 {
				hi = binary.BigEndian.Uint64(block[c.segOff[s]+8:]) ^ c.hashHi[s]
			}
			if c.cfg.Code.SyndromeWords(lo, hi) == 0 {
				valid++
			}
		}
		return valid
	}
	var buf [64]byte
	cw := buf[:c.cwLen]
	for s := 0; s < c.cfg.Segments; s++ {
		copy(cw, block[c.segOff[s]:c.segOff[s]+c.cwLen])
		if !c.cfg.DisableHash {
			c.hash.Apply(s, cw)
		}
		if c.cfg.Code.Valid(cw) {
			valid++
		}
	}
	return valid
}

// IsAlias reports whether a block in its raw form would be mistaken for a
// protected block.
func (c *Codec) IsAlias(block []byte) bool {
	return c.meetsThreshold(block)
}

// get64 reads the 64 bits at bit offset o from a block held as eight
// big-endian uint64 words (plus a zero guard word for the shifted reads
// near the end). This is the shift-and-mask replacement for the per-bit
// extract loop on the 120-bit and 56-bit segment strides.
func get64(w *[9]uint64, o int) uint64 {
	i, sh := o>>6, uint(o&63)
	v := w[i] << sh
	if sh != 0 {
		v |= w[i+1] >> (64 - sh)
	}
	return v
}

// put64 ORs the 64 bits of v into the block at bit offset o (the deposit
// dual of get64; callers pre-mask v so untouched bits are zero).
func put64(w *[9]uint64, o int, v uint64) {
	i, sh := o>>6, uint(o&63)
	w[i] |= v >> sh
	if sh != 0 {
		w[i+1] |= v << (64 - sh)
	}
}

// extractBitsInto copies n bits of src starting at bit off into dst
// (left-aligned), zeroing dst first. dst must hold ceil(n/8) bytes.
func extractBitsInto(dst, src []byte, off, n int) {
	for i := range dst {
		dst[i] = 0
	}
	if off%8 == 0 && n%8 == 0 {
		copy(dst, src[off/8:off/8+n/8])
		return
	}
	for i := 0; i < n; i++ {
		if src[(off+i)>>3]>>(7-uint((off+i)&7))&1 != 0 {
			dst[i>>3] |= 1 << (7 - uint(i&7))
		}
	}
}

// depositBits copies the first n bits of src into dst at bit offset off.
func depositBits(dst []byte, off int, src []byte, n int) {
	if off%8 == 0 && n%8 == 0 {
		copy(dst[off/8:], src[:n/8])
		return
	}
	for i := 0; i < n; i++ {
		if src[i>>3]>>(7-uint(i&7))&1 != 0 {
			dst[(off+i)>>3] |= 1 << (7 - uint((off+i)&7))
		}
	}
}
