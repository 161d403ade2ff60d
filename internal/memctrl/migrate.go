package memctrl

import (
	"fmt"
	"sort"

	"cop/internal/cache"
	"cop/internal/core"
	"cop/internal/trace"
)

// This file is the controller half of live scheme migration (ROADMAP item
// 3): switching a populated memory between protection schemes without
// losing or quiescing its contents. BeginMigration swaps the encode/decode
// machinery and remembers the retiring scheme; every resident DRAM image
// stays readable under the scheme that wrote it until it is re-encoded —
// eagerly, in bounded MigrateChunk steps, or for free when a writeback
// stores the block under the new scheme. The scrubber (ScrubBlock) and the
// resharding block mover (DecodeResident) share the same per-block
// machinery selection.

// oldScheme is the retiring scheme's decode machinery plus the set of DRAM
// images still encoded under it. COP-ER and chipkill machinery never
// appears here — see migratable.
type oldScheme struct {
	mode     Mode
	codec    *core.Codec
	sc       *core.CodecScratch
	adaptive *core.AdaptiveCodec
	dimmECC  map[uint64][]byte
	regECC   map[uint64]uint16

	pending map[uint64]struct{} // images still old-encoded
	queue   []uint64            // ascending conversion order
	qpos    int
}

// decode decodes an old-encoded image with the retiring scheme's
// machinery, with no telemetry side effects — callers attribute the scan
// to the read path or the scrub path.
func (o *oldScheme) decode(addr uint64, image []byte) ([]byte, ReadInfo, error) {
	rinfo := ReadInfo{FromDRAM: true}
	switch o.mode {
	case Unprotected:
		return copyBlock(image), rinfo, nil
	case COP:
		block := make([]byte, BlockBytes)
		info, err := o.codec.DecodeInto(block, image, o.sc)
		rinfo.DecodedCompressed = info.Compressed
		rinfo.ValidCodewords = info.ValidCodewords
		rinfo.Corrected = len(info.CorrectedSegments)
		if err != nil {
			return nil, rinfo, fmt.Errorf("%w: %v", ErrUncorrectable, err)
		}
		return block, rinfo, nil
	case COPAdaptive:
		block, _, info, err := o.adaptive.Decode(image)
		rinfo.DecodedCompressed = info.Compressed
		rinfo.ValidCodewords = info.ValidCodewords
		rinfo.Corrected = len(info.CorrectedSegments)
		if err != nil {
			return nil, rinfo, fmt.Errorf("%w: %v", ErrUncorrectable, err)
		}
		return block, rinfo, nil
	case ECCRegion:
		rinfo.RegionAccess = true
		block, corrected, err := check523(image, o.regECC[addr])
		if err != nil {
			return nil, rinfo, err
		}
		if corrected {
			rinfo.Corrected = 1
		}
		return block, rinfo, nil
	case ECCDIMM:
		block, corrected, err := dimmDecode(image, o.dimmECC[addr])
		rinfo.Corrected = corrected
		if err != nil {
			return nil, rinfo, err
		}
		return block, rinfo, nil
	}
	return nil, rinfo, fmt.Errorf("memctrl: cannot decode retiring scheme %v", o.mode)
}

// dropEntry discards the retiring scheme's side-table entries for a block
// whose image has been re-encoded (or superseded) under the new scheme.
func (o *oldScheme) dropEntry(addr uint64) {
	if o.dimmECC != nil {
		delete(o.dimmECC, addr)
	}
	if o.regECC != nil {
		delete(o.regECC, addr)
	}
}

// migratable reports whether a scheme can be an endpoint of a live
// migration. COP-ER and COP-CK are excluded: their raw images own live
// ECC-region entries whose allocation order is not reproducible across an
// online re-encode, so the offline-equivalence guarantee cannot hold.
func migratable(m Mode) bool {
	switch m {
	case Unprotected, COP, COPAdaptive, ECCRegion, ECCDIMM:
		return true
	}
	return false
}

// Migrating reports whether a scheme migration is in flight.
func (c *Controller) Migrating() bool { return c.old != nil }

// MigrationPending returns how many resident DRAM images still carry the
// retiring scheme's encoding.
func (c *Controller) MigrationPending() int {
	if c.old == nil {
		return 0
	}
	return len(c.old.pending)
}

// BeginMigration switches the controller to a new protection scheme while
// keeping every resident block decodable: images encoded under the
// retiring scheme are tracked and decoded with its machinery until they
// are re-encoded by MigrateChunk or by an ordinary writeback. copCfg
// parameterizes COP-family targets (zero value means core.NewConfig4()).
// The caller serializes this with traffic exactly like any other access;
// the sharded front-ends drain the shard first so pauses stay bounded.
func (c *Controller) BeginMigration(to Mode, copCfg core.Config) error {
	if c.old != nil {
		return fmt.Errorf("memctrl: migration already in progress (%d blocks pending)",
			len(c.old.pending))
	}
	if !migratable(c.mode) || !migratable(to) {
		return fmt.Errorf("memctrl: cannot migrate %v -> %v", c.mode, to)
	}
	o := &oldScheme{
		mode:     c.mode,
		codec:    c.codec,
		sc:       c.sc,
		adaptive: c.adaptive,
		dimmECC:  c.dimmECC,
		regECC:   c.regECC,
		pending:  make(map[uint64]struct{}, c.store.len()),
		queue:    make([]uint64, 0, c.store.len()),
	}
	for _, addr := range c.store.keys(nil) {
		o.pending[addr] = struct{}{}
		o.queue = append(o.queue, addr)
	}
	sort.Slice(o.queue, func(i, j int) bool { return o.queue[i] < o.queue[j] })

	c.mode = to
	c.codec, c.sc, c.adaptive = nil, nil, nil
	c.dimmECC, c.regECC = nil, nil
	if copCfg.Code == nil {
		copCfg = core.NewConfig4()
	}
	switch to {
	case COP:
		c.codec = core.NewCodec(copCfg)
		c.sc = c.codec.NewScratch()
	case COPAdaptive:
		c.adaptive = core.NewAdaptiveCodec()
	case ECCRegion:
		c.regECC = map[uint64]uint16{}
	case ECCDIMM:
		c.dimmECC = map[uint64][]byte{}
	}
	c.old = o

	// Re-classify resident lines: alias pinning is a property of the
	// target encoder, not of the data. A line pinned under the retiring
	// COP codec may store fine under the new scheme (and vice versa).
	c.llc.ForEachLine(func(l *cache.Line) {
		if l.Data != nil {
			c.setAliasBit(l)
		}
	})
	if len(o.pending) == 0 {
		c.old = nil
	}
	return nil
}

// MigrateChunk re-encodes up to n old-encoded blocks (ascending address
// order) under the current scheme and returns how many remain. When the
// count reaches zero the migration is complete. A block whose old image
// is uncorrectable halts the chunk with an error; the migration stays
// resumable (the block remains pending).
func (c *Controller) MigrateChunk(n int) (remaining int, err error) {
	o := c.old
	if o == nil {
		return 0, nil
	}
	for n > 0 && o.qpos < len(o.queue) {
		addr := o.queue[o.qpos]
		if _, pend := o.pending[addr]; !pend {
			// Already re-encoded by an ordinary writeback.
			o.qpos++
			continue
		}
		if err := c.convertOne(addr); err != nil {
			return len(o.pending), fmt.Errorf("memctrl: migrating block %#x: %w", addr, err)
		}
		o.qpos++
		n--
	}
	if len(o.pending) == 0 {
		c.old = nil
		return 0, nil
	}
	return len(o.pending), nil
}

// convertOne re-encodes one old-encoded block under the current scheme.
// Decoding counts as a scrub scan (corrections found here are
// corrected-on-scrub, not corrected-on-read).
func (c *Controller) convertOne(addr uint64) error {
	o := c.old
	delete(o.pending, addr)
	if line, ok := c.llc.Peek(addr); ok && line.Dirty {
		// The LLC holds newer data; the stale image need not be
		// converted — the eventual writeback re-encodes the block under
		// the current scheme. Drop the old image so nothing ever decodes
		// it again.
		c.store.del(addr)
		delete(c.kinds, addr)
		o.dropEntry(addr)
		c.tel.MigratedBlocks.Inc()
		return nil
	}
	image, ok := c.store.get(addr)
	if !ok {
		o.dropEntry(addr)
		return nil
	}
	c.tel.ScrubScans.Inc()
	data, rinfo, err := o.decode(addr, image)
	if err != nil {
		c.tel.UncorrectableErrors.Inc()
		c.tel.ScrubUncorrectable.Inc()
		o.pending[addr] = struct{}{} // stays pending; migration halts here
		return err
	}
	if rinfo.corrected() {
		c.tel.ScrubCorrected.Inc()
	}
	if (c.mode == COP && c.codec.WouldReject(data)) ||
		(c.mode == COPAdaptive && c.adaptive.WouldReject(data)) {
		// Incompressible alias under the new scheme: the block cannot
		// live in DRAM, so pin it in the LLC (mirroring the writeback
		// RejectedAlias path) and drop the old image.
		c.store.del(addr)
		delete(c.kinds, addr)
		o.dropEntry(addr)
		c.tel.AliasRetained.Inc()
		c.traceAliasRetained(addr)
		if line, ok := c.llc.Peek(addr); ok {
			line.Dirty = true
			line.Alias = true
		} else if err := c.insert(cache.Line{Addr: addr, Data: data, Dirty: true, Alias: true}); err != nil {
			return err
		}
		c.tel.MigratedBlocks.Inc()
		return nil
	}
	if _, err := c.encodeImage(addr, data, 0, false); err != nil {
		return err
	}
	c.tel.MigratedBlocks.Inc()
	return nil
}

// ScrubBlock examines the DRAM image holding addr, correcting and
// rewriting it if a latent fault is found. It returns scanned=false when
// there is nothing to scrub (no image, or the image is stale under a dirty
// LLC line). Corrections found here count as corrected-on-scrub
// (ScrubCorrected), never as corrected-on-read; an undecodable image
// counts ScrubUncorrectable and returns the error. During a migration a
// pending block is scrubbed by converting it — scrubbing and migrating are
// the same walk.
func (c *Controller) ScrubBlock(addr uint64) (scanned bool, err error) {
	addr = align(addr)
	if o := c.old; o != nil {
		if _, pend := o.pending[addr]; pend {
			return true, c.convertOne(addr)
		}
	}
	image, ok := c.store.get(addr)
	if !ok {
		return false, nil
	}
	if line, ok := c.llc.Peek(addr); ok && line.Dirty {
		return false, nil // stale image; the writeback will rewrite it
	}
	c.tel.ScrubScans.Inc()
	data, rinfo, err := c.decodeCurrent(addr, image)
	if err != nil {
		c.tel.ScrubUncorrectable.Inc()
		return true, err
	}
	if !rinfo.corrected() {
		return true, nil
	}
	c.tel.ScrubCorrected.Inc()
	if err := c.scrubBlock(addr, data); err != nil {
		return true, err
	}
	c.tel.Scrubs.Inc()
	if c.th.Enabled() {
		c.th.Record(trace.KindScrub, addr, 0, trace.FlagWrite, 0, uint64(c.mode), 0)
	}
	return true, nil
}

// decodeCurrent decodes a DRAM image with the current scheme's machinery,
// with no controller-level telemetry side effects — the scrub and
// resharding paths account for their own scans.
func (c *Controller) decodeCurrent(addr uint64, image []byte) ([]byte, ReadInfo, error) {
	rinfo := ReadInfo{FromDRAM: true}
	switch c.mode {
	case Unprotected:
		return copyBlock(image), rinfo, nil
	case COP:
		block := make([]byte, BlockBytes)
		info, err := c.codec.DecodeInto(block, image, c.sc)
		rinfo.DecodedCompressed = info.Compressed
		rinfo.ValidCodewords = info.ValidCodewords
		rinfo.Corrected = len(info.CorrectedSegments)
		if err != nil {
			return nil, rinfo, fmt.Errorf("%w: %v", ErrUncorrectable, err)
		}
		return block, rinfo, nil
	case COPER:
		block, info, err := c.er.Read(image)
		rinfo.DecodedCompressed = info.Compressed
		rinfo.ValidCodewords = info.ValidCodewords
		rinfo.CorrectedPointer = info.CorrectedPointer
		rinfo.RegionAccess = info.RegionAccess
		if info.CorrectedBlock {
			rinfo.Corrected = 1
		}
		if err != nil {
			return nil, rinfo, fmt.Errorf("%w: %v", ErrUncorrectable, err)
		}
		return block, rinfo, nil
	case COPChipkill:
		block, info, err := c.ck.Read(image)
		rinfo.DecodedCompressed = !info.RegionAccess
		rinfo.RegionAccess = info.RegionAccess
		if info.FailedChip >= 0 || info.CorrectedEntry {
			rinfo.Corrected = 1
		}
		if err != nil {
			return nil, rinfo, fmt.Errorf("%w: %v", ErrUncorrectable, err)
		}
		return block, rinfo, nil
	case COPAdaptive:
		block, _, info, err := c.adaptive.Decode(image)
		rinfo.DecodedCompressed = info.Compressed
		rinfo.ValidCodewords = info.ValidCodewords
		rinfo.Corrected = len(info.CorrectedSegments)
		if err != nil {
			return nil, rinfo, fmt.Errorf("%w: %v", ErrUncorrectable, err)
		}
		return block, rinfo, nil
	case ECCRegion:
		rinfo.RegionAccess = true
		block, corrected, err := check523(image, c.regECC[addr])
		if err != nil {
			return nil, rinfo, err
		}
		if corrected {
			rinfo.Corrected = 1
		}
		return block, rinfo, nil
	case ECCDIMM:
		block, corrected, err := dimmDecode(image, c.dimmECC[addr])
		rinfo.Corrected = corrected
		if err != nil {
			return nil, rinfo, err
		}
		return block, rinfo, nil
	}
	return nil, rinfo, fmt.Errorf("memctrl: cannot decode scheme %v", c.mode)
}

// fillOld decodes a not-yet-migrated DRAM image with the retiring
// scheme's machinery, applying the read path's usual counters. The line
// is classified (alias bit) under the current scheme; COP-ER-style region
// hints are never carried over — they would point into the retiring
// scheme's tables.
func (c *Controller) fillOld(addr uint64, image []byte) (cache.Line, ReadInfo, error) {
	o := c.old
	data, rinfo, err := o.decode(addr, image)
	if rinfo.RegionAccess {
		c.tel.RegionReads.Inc()
	}
	if err != nil {
		c.tel.UncorrectableErrors.Inc()
		return cache.Line{}, rinfo, err
	}
	if rinfo.corrected() {
		c.tel.CorrectedErrors.Inc()
	}
	if rinfo.ValidCodewords > 0 {
		c.tel.ValidCodewords.Observe(uint64(rinfo.ValidCodewords))
	}
	if c.th.Enabled() {
		var f trace.Flags
		if rinfo.DecodedCompressed {
			f |= trace.FlagCompressed
		}
		c.th.Record(trace.KindDecode, addr, uint32(rinfo.ValidCodewords), f,
			uint64(rinfo.Corrected), uint64(o.mode), 0)
	}
	line := cache.Line{Addr: addr, Data: data}
	c.setAliasBit(&line)
	return line, rinfo, nil
}

// AppendDRAMAddrs appends the block address of every resident DRAM image
// to dst (unordered) — the scrubber's walk list.
func (c *Controller) AppendDRAMAddrs(dst []uint64) []uint64 {
	return c.store.keys(dst)
}

// AppendResidentAddrs appends the address of every block the controller
// holds anywhere — DRAM images plus LLC-only dirty lines (pinned aliases,
// unwritten-back stores) — deduplicated. Resharding uses it as the move
// list; clean zero-fill lines without an image are skipped because they
// represent never-written memory.
func (c *Controller) AppendResidentAddrs(dst []uint64) []uint64 {
	seen := make(map[uint64]struct{}, c.store.len())
	c.store.foreach(func(addr uint64, _ []byte) bool {
		seen[addr] = struct{}{}
		dst = append(dst, addr)
		return true
	})
	c.llc.ForEachLine(func(l *cache.Line) {
		if !l.Dirty || l.Data == nil {
			return
		}
		if _, ok := seen[l.Addr]; !ok {
			seen[l.Addr] = struct{}{}
			dst = append(dst, l.Addr)
		}
	})
	return dst
}

// DecodeResident returns the current contents of the block holding addr —
// LLC data when resident (the freshest copy, including pinned aliases),
// otherwise the decoded DRAM image — without perturbing cache state or
// read/fill telemetry. Resharding uses it to move blocks between stripes.
// ok is false when the block exists nowhere.
func (c *Controller) DecodeResident(addr uint64) (data []byte, ok bool, err error) {
	addr = align(addr)
	if line, found := c.llc.Peek(addr); found && line.Data != nil {
		return copyBlock(line.Data), true, nil
	}
	image, found := c.store.get(addr)
	if !found {
		return nil, false, nil
	}
	if o := c.old; o != nil {
		if _, pend := o.pending[addr]; pend {
			data, _, err := o.decode(addr, image)
			return data, true, err
		}
	}
	data, _, err = c.decodeCurrent(addr, image)
	return data, true, err
}

// DumpDRAM returns a copy of every resident DRAM image keyed by block
// address — the raw encoded bytes, for byte-identity assertions in
// migration and resharding tests.
func (c *Controller) DumpDRAM() map[uint64][]byte {
	out := make(map[uint64][]byte, c.store.len())
	c.store.foreach(func(addr uint64, image []byte) bool {
		out[addr] = append([]byte(nil), image...)
		return true
	})
	return out
}
