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
// losing or quiescing its contents. BeginMigration builds the new scheme
// and keeps the retiring one; every resident DRAM image stays readable
// under the scheme that wrote it until it is re-encoded — eagerly, in
// bounded MigrateChunk steps, or for free when a writeback stores the
// block under the new scheme. The fill, the scrubber (ScrubBlock), the
// conversion walk and the resharding block mover (DecodeResident) all
// decode a block with the one decode of the scheme that wrote it.

// oldScheme is the retiring scheme plus the set of DRAM images still
// encoded under it. It is never COP-ER or chipkill — see migratable.
type oldScheme struct {
	*scheme

	pending map[uint64]struct{} // images still old-encoded
	queue   []uint64            // ascending conversion order
	qpos    int
}

// schemeOf returns the scheme that encoded addr's DRAM image: the retiring
// one while the block is migration-pending, else the current one.
func (c *Controller) schemeOf(addr uint64) *scheme {
	if c.isPending(addr) {
		return c.old.scheme
	}
	return c.cur
}

// isPending reports whether addr's DRAM image still carries the retiring
// scheme's encoding.
func (c *Controller) isPending(addr uint64) bool {
	if c.old == nil {
		return false
	}
	_, pend := c.old.pending[addr]
	return pend
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
// retiring scheme are tracked and decoded with it until they are
// re-encoded by MigrateChunk or by an ordinary writeback. copCfg
// parameterizes COP-family targets (zero value means core.NewConfig4()).
// The caller serializes this with traffic exactly like any other access;
// the sharded front-ends drain the shard first so pauses stay bounded.
func (c *Controller) BeginMigration(to Mode, copCfg core.Config) error {
	if c.old != nil {
		return fmt.Errorf("memctrl: migration already in progress (%d blocks pending)",
			len(c.old.pending))
	}
	if !migratable(c.cur.mode) || !migratable(to) {
		return fmt.Errorf("memctrl: cannot migrate %v -> %v", c.cur.mode, to)
	}
	o := &oldScheme{
		scheme:  c.cur,
		pending: make(map[uint64]struct{}, c.store.len()),
		queue:   make([]uint64, 0, c.store.len()),
	}
	for _, addr := range c.store.keys(nil) {
		o.pending[addr] = struct{}{}
		o.queue = append(o.queue, addr)
	}
	sort.Slice(o.queue, func(i, j int) bool { return o.queue[i] < o.queue[j] })

	c.cur = newScheme(to, copCfg)
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
		c.tel.MigratedBlocks.Inc()
		return nil
	}
	image := c.store.get(addr).img
	if image == nil {
		return nil
	}
	c.tel.ScrubScans.Inc()
	data := make([]byte, BlockBytes)
	rinfo, _, _, err := o.decode(data, image)
	if err != nil {
		c.tel.UncorrectableErrors.Inc()
		c.tel.ScrubUncorrectable.Inc()
		o.pending[addr] = struct{}{} // stays pending; migration halts here
		return err
	}
	if rinfo.corrected() {
		c.tel.ScrubCorrected.Inc()
	}
	if c.cur.wouldReject(data) {
		// Incompressible alias under the new scheme: the block cannot
		// live in DRAM, so pin it in the LLC (mirroring the writeback
		// RejectedAlias path) and drop the old image.
		c.store.del(addr)
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
// counts ScrubUncorrectable and returns the error. A corrected image is
// rewritten through writeback, so it counts like any other image write.
// During a migration a pending block is scrubbed by converting it —
// scrubbing and migrating are the same walk.
func (c *Controller) ScrubBlock(addr uint64) (scanned bool, err error) {
	addr = align(addr)
	if c.isPending(addr) {
		return true, c.convertOne(addr)
	}
	image := c.store.get(addr).img
	if image == nil {
		return false, nil
	}
	if line, ok := c.llc.Peek(addr); ok && line.Dirty {
		return false, nil // stale image; the writeback will rewrite it
	}
	c.tel.ScrubScans.Inc()
	data := c.getBlock()
	rinfo, ptr, _, err := c.cur.decode(data, image)
	if err != nil {
		c.putBlock(data)
		c.tel.ScrubUncorrectable.Inc()
		return true, err
	}
	if !rinfo.corrected() {
		c.putBlock(data)
		return true, nil
	}
	c.tel.ScrubCorrected.Inc()
	// The rewrite reuses a raw image's region entry through the pointer
	// the decode latched, exactly as a fill's eventual writeback does.
	line := cache.Line{Addr: addr, Data: data, Dirty: true}
	if ptr != core.NoPointer {
		line.WasUncompressed = true
		line.Ptr = ptr
	}
	if err := c.writeback(line); err != nil {
		return true, err
	}
	c.tel.Scrubs.Inc()
	if c.th.Enabled() {
		c.th.Record(trace.KindScrub, addr, 0, trace.FlagWrite, 0, uint64(c.cur.mode), 0)
	}
	return true, nil
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
	image := c.store.get(addr).img
	if image == nil {
		return nil, false, nil
	}
	data = make([]byte, BlockBytes)
	if _, _, _, err := c.schemeOf(addr).decode(data, image); err != nil {
		return nil, true, err
	}
	return data, true, nil
}

// DumpDRAM returns a copy of every resident DRAM image keyed by block
// address — the raw encoded bytes, check bits included, for byte-identity
// assertions in migration and resharding tests.
func (c *Controller) DumpDRAM() map[uint64][]byte {
	out := make(map[uint64][]byte, c.store.len())
	c.store.foreach(func(addr uint64, image []byte) bool {
		out[addr] = append([]byte(nil), image...)
		return true
	})
	return out
}
