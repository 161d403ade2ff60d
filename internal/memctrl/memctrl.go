// Package memctrl assembles the paper's systems into a functional memory
// hierarchy: a last-level cache in front of a DRAM image store, with the
// write path encoding blocks (COP / COP-ER / ECC-region baseline / ECC
// DIMM / unprotected) and the read path decoding and correcting them. It
// is the substrate for the fault-injection experiments and examples — data
// really round-trips through the encoded DRAM images, and injected bit
// flips really exercise the correction machinery.
package memctrl

import (
	"errors"
	"fmt"

	"cop/internal/bitio"
	"cop/internal/cache"
	"cop/internal/chipkill"
	"cop/internal/core"
	"cop/internal/eccregion"
	"cop/internal/telemetry"
	"cop/internal/trace"
)

// BlockBytes is the access granularity.
const BlockBytes = core.BlockBytes

// Mode selects the protection scheme.
type Mode int

// Protection modes, mirroring the paper's evaluated configurations.
const (
	// Unprotected stores raw blocks (the paper's baseline non-ECC DIMM).
	Unprotected Mode = iota
	// COP compresses blocks to fit inline ECC; incompressible blocks are
	// stored raw (unprotected) and incompressible aliases stay in the LLC.
	COP
	// COPER is COP plus the ECC region protecting incompressible blocks.
	COPER
	// ECCRegion is the Virtualized-ECC-like baseline: every block raw in
	// DRAM, an 11-bit (523,512) code word per block in a dedicated
	// region with a 2-byte entry per block.
	ECCRegion
	// ECCDIMM models a conventional ECC DIMM: (72,64) SECDED per 8-byte
	// word in a ninth chip.
	ECCDIMM
	// COPAdaptive uses the two-tier adaptive codec (§3.1's stronger-
	// codes-for-more-compressible-blocks option): 8-byte ECC when the
	// block frees 8 bytes, 4-byte ECC when it frees 4, raw otherwise.
	COPAdaptive
	// COPChipkill uses COP-CK-ER (the §5 future-work extension): every
	// block — compressible or not — survives a whole-chip failure.
	COPChipkill
)

func (m Mode) String() string {
	switch m {
	case Unprotected:
		return "unprotected"
	case COP:
		return "cop"
	case COPER:
		return "cop-er"
	case ECCRegion:
		return "ecc-region"
	case ECCDIMM:
		return "ecc-dimm"
	case COPAdaptive:
		return "cop-adaptive"
	case COPChipkill:
		return "cop-chipkill"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ErrUncorrectable is surfaced when ECC detects an unrepairable error.
var ErrUncorrectable = errors.New("memctrl: uncorrectable memory error")

// StoredKind is the ground-truth form of a block's DRAM image, recorded in
// the block's store slot at writeback time. Fault-injection classifiers
// compare it against the decoder's verdict on a corrupted image to
// recognize false aliases (raw read as compressed, or a compressed block
// knocked below the detection threshold).
type StoredKind uint8

// Stored-image kinds.
const (
	// StoredNone: the block has no DRAM image (never written back, or an
	// alias pinned in the LLC).
	StoredNone StoredKind = iota
	// StoredKindRaw: the image is the plaintext block (unprotected, or
	// with the ECC region's or ECC DIMM's check bits beside it).
	StoredKindRaw
	// StoredKindCompressed: the image holds compressed data with inline
	// check bits.
	StoredKindCompressed
)

// ReadInfo reports what the controller observed servicing one read — the
// decoder verdicts that fault-injection classification needs, which the
// plain Read path only folds into the aggregate telemetry counters.
type ReadInfo struct {
	// LLCHit: the read was served from the cache; no DRAM image decoded.
	LLCHit bool
	// FromDRAM: an existing DRAM image was decoded (false for LLC hits
	// and for never-written blocks that fill as zeros).
	FromDRAM bool
	// DecodedCompressed is the decoder's verdict that the image was
	// protected (COP-family modes: ≥ threshold valid code words, or a
	// validated inline chipkill block).
	DecodedCompressed bool
	// ValidCodewords is the observed zero-syndrome code-word count
	// (COP-family modes).
	ValidCodewords int
	// Corrected counts corrected code words / entries / chip
	// reconstructions on this fill.
	Corrected int
	// CorrectedPointer: a COP-ER region pointer was repaired.
	CorrectedPointer bool
	// RegionAccess: the fill consulted an ECC-region entry.
	RegionAccess bool
}

func (i ReadInfo) corrected() bool { return i.Corrected > 0 || i.CorrectedPointer }

// Controller is a functional protected-memory model. Not safe for
// concurrent use. Everything it knows about a block outside the LLC — the
// DRAM image with its check bits, the image's stored kind, the ever-raw
// bit — sits in the block's one store slot.
type Controller struct {
	cur *scheme    // the scheme every writeback encodes with
	old *oldScheme // non-nil while a live scheme migration is in flight
	llc *cache.Cache

	store      *imageStore  // the per-block table, block-aligned address → slot
	aliasSpill []cache.Line // alias lines parked during Flush
	freeBlk    [][]byte     // recycled line buffers (see getBlock)
	tel        telemetry.ControllerCounters
	th         *trace.Handle // nil until AttachTracer; nil-safe
}

// Config parameterizes the controller.
type Config struct {
	Mode Mode
	// COPConfig is the codec configuration for COP/COP-ER modes; zero
	// value means core.NewConfig4().
	COPConfig core.Config
	// LLCBytes/LLCWays describe the last-level cache (defaults: 4 MB,
	// 16-way — Table 1). When this Config rides inside shard.Config,
	// LLCBytes is the TOTAL capacity across all shards — that rule, and
	// its validation, live in one place: shard.Config.Normalize.
	LLCBytes, LLCWays int
	// Tracer attaches an execution-trace flight recorder (ring 0; sharded
	// front-ends re-attach per-shard handles). Until the tracer is
	// started, the hot path pays one nil check plus one atomic load and
	// never allocates.
	Tracer *trace.Tracer
}

// New builds a controller.
func New(cfg Config) *Controller {
	if cfg.LLCBytes == 0 {
		cfg.LLCBytes = 4 << 20
	}
	if cfg.LLCWays == 0 {
		cfg.LLCWays = 16
	}
	c := &Controller{
		cur:   newScheme(cfg.Mode, cfg.COPConfig),
		llc:   cache.New(cfg.LLCBytes, cfg.LLCWays, BlockBytes),
		store: newImageStore(),
	}
	// Clean drops (evictions, flushes) surrender their buffers back to
	// the free list; line buffers are exclusively owned by their cache
	// entry in every mode (fills and misses always allocate or recycle a
	// private buffer, and no encoder keeps the buffer it encodes).
	c.llc.SetOnDrop(func(l cache.Line) { c.putBlock(l.Data) })
	if cfg.Tracer != nil {
		c.AttachTracer(cfg.Tracer.Handle(0))
	}
	return c
}

// AttachTracer binds an execution-trace handle to the controller and every
// layer it owns (LLC, ECC-region store), so the whole access lifecycle
// shares one flow id per operation. Pass nil to detach. The handle's flow
// state is mutated on the accessing goroutine, so attach before traffic or
// under the same lock that serializes the controller.
func (c *Controller) AttachTracer(h *trace.Handle) {
	c.th = h
	c.llc.SetTracer(h)
	if r := c.cur.region(); r != nil {
		r.AttachTracer(h)
	}
}

// Tracer returns the attached trace handle (nil when tracing is unwired).
func (c *Controller) Tracer() *trace.Handle { return c.th }

// Mode returns the protection mode.
func (c *Controller) Mode() Mode { return c.cur.mode }

// Snapshot returns the controller's unified telemetry tree: its own
// counters, the LLC section, and (in region-backed modes) the ECC-region
// section, with derived rates computed. Safe to call at any time; the
// counters are atomics, so a snapshot never stalls traffic.
func (c *Controller) Snapshot() telemetry.Snapshot {
	s := telemetry.Snapshot{
		Scheme:     c.cur.mode.String(),
		Controller: c.tel.Snapshot(),
		Cache:      c.llc.Telemetry(),
	}
	if r := c.cur.region(); r != nil {
		rt := r.Telemetry()
		s.Region = &rt
	}
	s.Finalize()
	return s
}

// LLC exposes the cache (diagnostics and tests).
func (c *Controller) LLC() *cache.Cache { return c.llc }

// Region exposes the ECC region in COP-ER and COP-CK-ER modes (nil
// otherwise): storage accounting and fault injection.
func (c *Controller) Region() *eccregion.PackedStore { return c.cur.region() }

func align(addr uint64) uint64 { return addr &^ (BlockBytes - 1) }

// maxFreeBlocks caps the line-buffer free list (64 B each, 256 KB at the
// cap). The LLC's working set cycles buffers between fills and evictions;
// the free list closes that loop so the steady-state datapath stops
// feeding the GC one dead 64-byte buffer per miss.
const maxFreeBlocks = 4096

// getBlock returns a BlockBytes buffer with unspecified contents,
// recycling the free list before allocating.
func (c *Controller) getBlock() []byte {
	if n := len(c.freeBlk); n > 0 {
		b := c.freeBlk[n-1]
		c.freeBlk[n-1] = nil
		c.freeBlk = c.freeBlk[:n-1]
		return b
	}
	return make([]byte, BlockBytes)
}

// getZeroBlock is getBlock with the contents cleared (fresh-page reads).
func (c *Controller) getZeroBlock() []byte {
	b := c.getBlock()
	clear(b)
	return b
}

// putBlock returns a dead line buffer to the free list. Callers must own
// the buffer exclusively: nothing in the LLC, the DRAM store, or a result
// still in flight may alias it.
func (c *Controller) putBlock(b []byte) {
	if len(b) != BlockBytes || len(c.freeBlk) >= maxFreeBlocks {
		return
	}
	c.freeBlk = append(c.freeBlk, b)
}

// Write stores a full 64-byte block at addr (allocating in the LLC; DRAM
// is updated when the line is eventually evicted or flushed).
func (c *Controller) Write(addr uint64, data []byte) error {
	if len(data) != BlockBytes {
		return fmt.Errorf("memctrl: Write needs %d bytes", BlockBytes)
	}
	addr = align(addr)
	c.tel.Stores.Inc()
	if c.th.Enabled() {
		c.th.Begin()
		c.th.Record(trace.KindStore, addr, 0, trace.FlagWrite, 0, 0, 0)
	}

	if line, victim, wb, hit := c.llc.Lookup(addr); hit {
		// Refresh the resident buffer in place: fills and misses always
		// give lines their own buffers (DRAM images are never re-entered
		// into the cache), so nothing else aliases it and the steady-state
		// store path allocates nothing.
		if line.Data == nil {
			line.Data = c.getBlock()
		}
		copy(line.Data, data)
		line.Dirty = true
		c.setAliasBit(line)
		// The lookup may have promoted a spilled overflow line, evicting a
		// dirty victim that must reach DRAM. (line must not be used after
		// writeback: it can reshuffle the set.)
		if wb {
			return c.writeback(victim)
		}
		return nil
	}
	buf := c.getBlock()
	copy(buf, data)
	line := cache.Line{Addr: addr, Dirty: true, Data: buf}
	// A full-block store that misses starts with no region pointer: the
	// "was uncompressed" state is captured only by a fill. So when this
	// line is written back over a raw COP-ER or COP-CK-ER image, the
	// codec allocates a fresh region entry and the old one is never
	// freed — the entry leak ROADMAP.md's "Exact ECC-region accounting"
	// item closes.
	c.setAliasBit(&line)
	return c.insert(line)
}

// setAliasBit implements the proactive LLC alias check (§3.1): dirty lines
// that are incompressible aliases are pinned. WouldReject runs the cheap
// valid-code-word count first and compresses only the rare aliasing blocks,
// so this check no longer doubles every store's compression work.
func (c *Controller) setAliasBit(line *cache.Line) {
	line.Alias = c.cur.wouldReject(line.Data)
	if c.th.Enabled() && (c.cur.mode == COP || c.cur.mode == COPAdaptive) {
		compressible := uint32(1)
		var f trace.Flags
		if line.Alias {
			compressible = 0
			f = trace.FlagAlias
		}
		c.th.Record(trace.KindClassify, line.Addr, compressible, f, 0, uint64(c.cur.mode), 0)
	}
}

// insert places a line in the LLC and performs any resulting writeback.
func (c *Controller) insert(line cache.Line) error {
	victim, wb := c.llc.Insert(line)
	if !wb {
		return nil
	}
	return c.writeback(victim)
}

// writeback encodes a dirty line that is not resident in the LLC (an
// evicted victim, or a scrub's freshly decoded block) into its DRAM image.
// No encoder keeps the line's buffer, so once the encode is done with it
// the buffer joins the block free list.
func (c *Controller) writeback(victim cache.Line) error {
	c.tel.Writebacks.Inc()
	addr := victim.Addr
	status, err := c.encodeImage(addr, victim.Data, victim.Ptr, victim.WasUncompressed)
	if err != nil {
		return err
	}
	if status == core.RejectedAlias {
		// Must stay in the LLC: re-insert with the alias bit set.
		// cache.Insert pins alias lines, so this cannot recurse into
		// another rejected writeback of the same line.
		c.tel.AliasRetained.Inc()
		c.traceAliasRetained(addr)
		victim.Alias = true
		return c.insert(victim)
	}
	c.putBlock(victim.Data)
	if c.th.Enabled() {
		kind := c.store.get(addr).kind
		f := trace.FlagWrite
		if kind == StoredKindCompressed {
			f |= trace.FlagCompressed
		}
		c.th.Record(trace.KindEncode, addr, uint32(kind), f, 0, uint64(c.cur.mode), 0)
		// The functional store has no device-time model (that lives in
		// internal/dram for the simulator), so the image write is recorded
		// with zero bus cycles; the exporter falls back to wall time.
		c.th.Record(trace.KindDRAMWrite, addr, uint32(kind), f, 0, 0, 0)
	}
	return nil
}

// encodeImage encodes data as addr's DRAM image under the current scheme
// and records the image, its stored kind and the ever-raw bit with one
// store write, counting the stored/ever-raw totals. It is the only code
// that writes a DRAM image or records its kind, and every scheme encodes
// in place, into the block's current image when it has the scheme's
// length. A core.RejectedAlias status (COP-family incompressible alias)
// or an encode error leaves DRAM untouched; the caller decides whether to
// pin the line. data stays the caller's: no scheme keeps it.
// prevPtr/hasPrev carry a COP-ER / chipkill line's existing region-entry
// association.
func (c *Controller) encodeImage(addr uint64, data []byte, prevPtr uint32, hasPrev bool) (core.StoreStatus, error) {
	s := c.cur
	prev := core.NoPointer
	if hasPrev {
		prev = prevPtr
	}
	image := c.imageBuf(addr, s.imageLen())
	status, err := s.encode(image, data, prev)
	if err != nil || status == core.RejectedAlias {
		return status, err
	}
	kind, raw := StoredKindRaw, false
	switch s.mode {
	case ECCRegion:
		c.tel.RegionReads.Inc() // entry write
	case ECCDIMM:
		c.tel.DIMMCheckBytesWritten.Add(dimmImageBytes - BlockBytes)
	case COP, COPER, COPChipkill, COPAdaptive:
		// A COP-family raw image is an incompressible block (Fig. 12); a
		// COP-ER or chipkill one also writes its region entry.
		raw = status == core.StoredRaw
		if !raw {
			kind = StoredKindCompressed
		} else if s.mode == COPER || s.mode == COPChipkill {
			c.tel.RegionReads.Inc()
		}
	}
	if status == core.StoredCompressed {
		c.tel.StoredCompressed.Inc()
	} else {
		c.tel.StoredRaw.Inc()
	}
	if c.store.set(addr, image, kind, raw) {
		c.tel.EverIncompressible.Inc()
	}
	if c.old != nil {
		// The image now carries the current scheme; the block no longer
		// needs migration.
		delete(c.old.pending, addr)
	}
	return status, nil
}

// imageBuf returns the buffer addr's next n-byte image is encoded into:
// the block's current image when it has that length — re-encoded in
// place, so the steady-state write path allocates nothing — else a fresh
// one. An image of another length was written by another scheme (a
// migration's retiring one) and cannot be reused.
func (c *Controller) imageBuf(addr uint64, n int) []byte {
	if img := c.store.get(addr).img; len(img) == n {
		return img
	}
	if n == BlockBytes {
		return c.getBlock()
	}
	return make([]byte, n)
}

// traceAliasRetained records a writeback rejected by the alias check and
// feeds the tracer's alias-burst anomaly trigger.
func (c *Controller) traceAliasRetained(addr uint64) {
	if c.th.Enabled() {
		c.th.Record(trace.KindAliasRetained, addr, 0, trace.FlagAlias|trace.FlagWrite, 0, uint64(c.cur.mode), 0)
	}
}

// Read loads the 64-byte block at addr.
func (c *Controller) Read(addr uint64) ([]byte, error) {
	out, _, err := c.ReadWithInfo(addr)
	return out, err
}

// ReadWithInfo is Read plus the decoder observations for the access — the
// hook fault-injection classifiers use to see the verdicts (compressed?
// corrected? region consulted?) instead of inferring them from counter
// deltas.
func (c *Controller) ReadWithInfo(addr uint64) ([]byte, ReadInfo, error) {
	out := make([]byte, BlockBytes)
	info, err := c.ReadInto(out, addr)
	if err != nil {
		return nil, info, err
	}
	return out, info, nil
}

// ReadInto reads the block holding addr into dst (at least BlockBytes
// long), allocating nothing on the steady-state LLC-hit path. It is the
// zero-copy core of Read/ReadWithInfo.
func (c *Controller) ReadInto(dst []byte, addr uint64) (ReadInfo, error) {
	if len(dst) < BlockBytes {
		return ReadInfo{}, fmt.Errorf("memctrl: ReadInto needs %d bytes", BlockBytes)
	}
	addr = align(addr)
	c.tel.Loads.Inc()
	if c.th.Enabled() {
		c.th.Begin()
		c.th.Record(trace.KindLoad, addr, 0, 0, 0, 0, 0)
	}
	if line, victim, wb, hit := c.llc.Lookup(addr); hit {
		copy(dst, line.Data)
		// An overflow promotion during the lookup may have evicted a dirty
		// line; its writeback must not be dropped.
		if wb {
			if err := c.writeback(victim); err != nil {
				return ReadInfo{}, err
			}
		}
		return ReadInfo{LLCHit: true}, nil
	}
	c.tel.Fills.Inc()
	line, info, err := c.fill(addr)
	if err != nil {
		if c.th.Enabled() {
			c.th.Record(trace.KindUncorrectable, addr, uint32(info.ValidCodewords), 0,
				uint64(info.Corrected), uint64(c.cur.mode), 0)
		}
		return info, err
	}
	copy(dst, line.Data)
	if ierr := c.insert(line); ierr != nil {
		return info, ierr
	}
	return info, nil
}

// fill decodes the DRAM image at addr into a cache line, with the scheme
// that wrote it: the retiring one while the block is migration-pending,
// else the current one. The counters follow the returned ReadInfo and
// error alone: a region consultation counts whether or not the decode
// succeeded, then exactly one of corrected or uncorrectable (or neither).
func (c *Controller) fill(addr uint64) (cache.Line, ReadInfo, error) {
	image := c.store.get(addr).img
	if image == nil {
		// Untouched memory reads as zeros (fresh pages).
		return cache.Line{Addr: addr, Data: c.getZeroBlock()}, ReadInfo{}, nil
	}
	s := c.schemeOf(addr)
	line := cache.Line{Addr: addr, Data: c.getBlock()}
	rinfo, ptr, segMask, err := s.decode(line.Data, image)
	if rinfo.RegionAccess {
		c.tel.RegionReads.Inc()
	}
	if err != nil {
		c.tel.UncorrectableErrors.Inc()
		c.putBlock(line.Data)
		return cache.Line{}, rinfo, err
	}
	if rinfo.corrected() {
		c.tel.CorrectedErrors.Inc()
	}
	if rinfo.ValidCodewords > 0 {
		// COP-family decode verdict: how many of the nine code words had a
		// zero syndrome (the paper's compressed-vs-raw discriminator).
		c.tel.ValidCodewords.Observe(uint64(rinfo.ValidCodewords))
	}
	if ptr != core.NoPointer {
		// The hardware latches a raw image's region pointer during the
		// fill, so the eventual writeback can reuse the entry.
		line.WasUncompressed = true
		line.Ptr = ptr
	}
	if c.th.Enabled() {
		var f trace.Flags
		if rinfo.DecodedCompressed {
			f |= trace.FlagCompressed
		}
		// Image fetch precedes decode; zero bus cycles (no device-time
		// model on the functional path — the exporter uses wall time).
		c.th.Record(trace.KindDRAMRead, addr, uint32(len(image)), f, 0, 0, 0)
		c.th.Record(trace.KindDecode, addr, uint32(rinfo.ValidCodewords), f,
			uint64(rinfo.Corrected), uint64(s.mode), segMask)
	}
	c.setAliasBit(&line)
	return line, rinfo, nil
}

// Flush drains every dirty LLC line to DRAM (used by experiments to settle
// state before fault injection). An error does not abort the drain: every
// line is still written back (or re-seated, for aliases) and the first
// error is returned — an early return would silently drop the remaining
// dirty lines, whose cache entries FlushAll has already invalidated.
func (c *Controller) Flush() error {
	// Maintenance work: don't attribute the drain to the last access's flow.
	c.th.ResetFlow()
	var ferr error
	c.llc.FlushAll(func(l cache.Line) {
		if !l.Dirty {
			c.putBlock(l.Data)
			return
		}
		if l.Alias {
			// Alias lines cannot leave the cache+overflow structure
			// in real hardware; a flush API must either spill them
			// via the overflow region or fall back (§3.1). The model
			// keeps them in a side list: re-inserting would fight the
			// flush (FlushAll invalidates the set entry after this
			// callback, dropping the line), so record as retained.
			c.tel.AliasRetained.Inc()
			c.traceAliasRetained(l.Addr)
			c.aliasSpill = append(c.aliasSpill, l)
			return
		}
		if err := c.writeback(l); err != nil && ferr == nil {
			ferr = err
		}
	})
	// Re-seat spilled alias lines unconditionally — insert places the line
	// even when the displaced victim's writeback errors, so clearing the
	// spill list cannot lose parked aliases.
	for _, l := range c.aliasSpill {
		if err := c.insert(l); err != nil && ferr == nil {
			ferr = err
		}
	}
	c.aliasSpill = nil
	return ferr
}

// Quiesced reports whether the controller holds no dirty non-alias LLC
// lines — i.e. whether DRAM (plus the alias lines pinned by design) is a
// complete image of memory. True immediately after a successful Flush.
func (c *Controller) Quiesced() bool { return c.llc.DirtyLines(true) == 0 }

// InjectBitFlip flips one bit of the DRAM image holding addr, returning
// false when the block is not resident in DRAM (e.g. still dirty in the
// LLC or never written). bit is 0..511: the block's 64 bytes, never the
// check bits an ECC region or ECC DIMM image keeps beside them.
func (c *Controller) InjectBitFlip(addr uint64, bit int) bool {
	image := c.store.get(align(addr)).img
	if image == nil || bit < 0 || bit >= 8*BlockBytes {
		return false
	}
	bitio.FlipBit(image, bit)
	return true
}

// InDRAM reports whether addr has a DRAM image.
func (c *Controller) InDRAM(addr uint64) bool {
	return c.store.get(align(addr)).img != nil
}

// StoredKind returns the ground-truth form of addr's DRAM image as of its
// last writeback (StoredNone when the block has no image).
func (c *Controller) StoredKind(addr uint64) StoredKind {
	return c.store.get(align(addr)).kind
}

// Settle forces the block holding addr out of the LLC: a dirty line is
// written back (an alias line is re-seated, as it must never reach DRAM),
// a clean line is dropped. After Settle, a Read of a non-alias block is
// guaranteed to decode its DRAM image — the fault-injection hook that
// makes an injected corruption observable on the very next access.
func (c *Controller) Settle(addr uint64) error {
	line, dirty, found := c.llc.Evict(align(addr))
	if !found {
		return nil
	}
	if !dirty {
		c.putBlock(line.Data)
		return nil
	}
	return c.writeback(line)
}

// --- helpers -----------------------------------------------------------

func copyBlock(b []byte) []byte {
	out := make([]byte, BlockBytes)
	copy(out, b)
	return out
}

// ReadBytes reads an arbitrary byte range (crossing block boundaries as
// needed) through the protected hierarchy. It allocates only the result;
// use ReadBytesInto for the allocation-free form.
func (c *Controller) ReadBytes(addr uint64, n int) ([]byte, error) {
	out := make([]byte, n)
	if err := c.ReadBytesInto(out, addr); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadBytesInto fills dst with len(dst) bytes starting at addr, crossing
// block boundaries as needed. The per-call scratch block lives on the
// stack, so a read over LLC-resident blocks performs no allocations.
func (c *Controller) ReadBytesInto(dst []byte, addr uint64) error {
	var scratch [BlockBytes]byte
	for len(dst) > 0 {
		base := align(addr)
		off := int(addr - base)
		take := BlockBytes - off
		if take > len(dst) {
			take = len(dst)
		}
		if _, err := c.ReadInto(scratch[:], base); err != nil {
			return err
		}
		copy(dst[:take], scratch[off:off+take])
		addr += uint64(take)
		dst = dst[take:]
	}
	return nil
}

// WriteBytes writes an arbitrary byte range, performing read-modify-write
// on partially covered blocks. The RMW scratch block lives on the stack,
// so writes over LLC-resident blocks perform no allocations.
func (c *Controller) WriteBytes(addr uint64, data []byte) error {
	var scratch [BlockBytes]byte
	for len(data) > 0 {
		base := align(addr)
		off := int(addr - base)
		take := BlockBytes - off
		if take > len(data) {
			take = len(data)
		}
		block := data[:take]
		if off != 0 || take != BlockBytes {
			if _, err := c.ReadInto(scratch[:], base); err != nil {
				return err
			}
			copy(scratch[off:off+take], data[:take])
			block = scratch[:]
		}
		if err := c.Write(base, block[:BlockBytes]); err != nil {
			return err
		}
		addr += uint64(take)
		data = data[take:]
	}
	return nil
}

// InjectChipFailure corrupts every byte chip contributes to the DRAM image
// holding addr (a whole-chip failure on a ×8 rank), returning false when
// the block is not resident in DRAM. The eight data chips are the ones
// that fail; an ECC DIMM's ninth chip stays intact. Only COPChipkill mode
// can recover from it; the other modes demonstrate why chipkill needs more
// than SECDED.
func (c *Controller) InjectChipFailure(addr uint64, chip int, pattern byte) bool {
	image := c.store.get(align(addr)).img
	if image == nil || chip < 0 || chip >= chipkill.Chips {
		return false
	}
	chipkill.FailChip(image, chip, pattern)
	return true
}
