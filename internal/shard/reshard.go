package shard

// Online reconfiguration for the batched front-end: elastic resharding
// (grow or shrink the stripe count under live traffic) plus the hooks the
// migrate package drives a live protection-scheme migration through
// (Reconfigure, WithShard, CommitScheme).
//
// Resharding works family by family. With counts oldN and newN (both
// powers of two), every stripe index is congruent to some f modulo
// min(oldN, newN); the stripes of one congruence class f form a family,
// and — because striping is set-index compatible — a family's blocks on
// the old shards map exactly onto a disjoint set of new shards. The
// resharder therefore quiesces only the family being moved: it publishes
// a transitional route table (per-entry logN, so stripes owned by shards
// built for different counts coexist), drains the family's source shards,
// copies their resident blocks into the family's target shards, cuts the
// family's stripes over with one atomic topology publish, and retires the
// sources. Stripes outside the family keep serving the whole time.
//
// A failed reshard (an uncorrectable block hit during a move) re-enables
// the family's sources and returns, leaving a consistent, fully
// serviceable mixed topology; calling Reshard again retries from wherever
// the previous attempt stopped. Block content is always preserved; DRAM
// images equal an offline replay's byte for byte under the
// history-independent encodings (Unprotected, COP, COP-adaptive,
// ECC-region, ECC-DIMM — pinned by TestReshardEquivalence), while COP-ER
// and chipkill re-derive their region pointers on re-encode.

import (
	"fmt"
	"sort"

	"cop/internal/core"
	"cop/internal/memctrl"
)

// Reshard changes the stripe count to newN (a power of two within the
// same limits as Config.Shards) while the front-end keeps serving. See
// the file comment for the protocol and failure semantics.
func (b *Batched) Reshard(newN int) error {
	b.reconfMu.Lock()
	defer b.reconfMu.Unlock()
	if b.closed {
		return ErrClosed
	}
	return b.reshardLocked(newN)
}

func (b *Batched) reshardLocked(newN int) error {
	topo := b.topo.Load()
	oldN := topo.n
	if newN == oldN {
		return nil
	}
	// Normalize treats a non-positive count as "pick a default", which a
	// deliberate reshard must never do — reject explicitly.
	if newN < 1 || newN&(newN-1) != 0 {
		return fmt.Errorf("shard: reshard to %d stripes: count must be a power of two >= 1", newN)
	}
	scfg := b.cfg.Shard
	scfg.Shards = newN
	scfg, err := scfg.Normalize()
	if err != nil {
		return err
	}
	minN, maxN := oldN, newN
	if newN < oldN {
		minN, maxN = newN, oldN
	}
	b.migTel.Active.Add(1)
	defer b.migTel.Active.Add(-1)

	// Build every target shard up front: fresh controllers sized for the
	// new stripe count, Enabled. They serve nothing until their family's
	// cutover routes stripes at them, and an aborted reshard simply drops
	// the ones that were never routed. Handle index reuse with a
	// still-live old shard is benign: the old shard is quiesced (recording
	// nothing) before its replacement sees traffic.
	newShards := b.buildShards(scfg)
	newLogN := log2(newN)
	newMask := uint64(newN - 1)

	// Transitional route table: size maxN, every stripe still owned by
	// its current shard (for a grow, entry j aliases old entry j&oldMask —
	// routing-identical to the old table).
	entries := make([]routeEntry, maxN)
	for j := range entries {
		entries[j] = topo.entries[uint64(j)&topo.mask]
	}
	cur := &topology{
		mask:    uint64(maxN - 1),
		entries: entries,
		bshards: topo.bshards,
		n:       oldN,
		scheme:  topo.scheme,
	}
	b.topo.Store(cur)

	for f := 0; f < minN; f++ {
		var srcs []*batchShard
		for j := f; j < maxN; j += minN {
			src := cur.entries[j].bs
			dup := false
			for _, s := range srcs {
				if s == src {
					dup = true
					break
				}
			}
			if !dup {
				srcs = append(srcs, src)
			}
		}
		abort := func(stage string, err error) error {
			for _, s := range srcs {
				b.setMode(s, ModeEnabled)
			}
			return fmt.Errorf("shard: reshard %s (family %d): %w", stage, f, err)
		}
		for _, src := range srcs {
			if err := b.quiesceShard(src); err != nil {
				return abort("quiesce", err)
			}
		}
		for _, src := range srcs {
			if err := b.moveBlocks(src, newShards, newLogN, newMask); err != nil {
				return abort("move", err)
			}
		}
		next := make([]routeEntry, maxN)
		copy(next, cur.entries)
		for j := f; j < maxN; j += minN {
			next[j] = routeEntry{newShards[uint64(j)&newMask], newLogN}
		}
		cur = &topology{
			mask:    uint64(maxN - 1),
			entries: next,
			bshards: distinctShards(next),
			n:       oldN,
			scheme:  topo.scheme,
		}
		b.topo.Store(cur)
		for _, src := range srcs {
			b.retireShard(src)
		}
	}

	// Final topology: compact table at the new size (routing-identical to
	// the last transitional table).
	b.topo.Store(&topology{
		mask:    newMask,
		entries: compactRoutes(newShards),
		bshards: newShards,
		n:       newN,
		scheme:  topo.scheme,
	})
	b.cfg.Shard = scfg
	b.migTel.Reshards.Inc()
	return nil
}

// distinctShards lists each shard referenced by a route table once, in
// first-stripe order. Every live shard owns at least one stripe, so this
// is the topology's iteration set.
func distinctShards(entries []routeEntry) []*batchShard {
	seen := make(map[*batchShard]bool, len(entries))
	out := make([]*batchShard, 0, len(entries))
	for _, e := range entries {
		if !seen[e.bs] {
			seen[e.bs] = true
			out = append(out, e.bs)
		}
	}
	return out
}

// quiesceShard fences one shard: flip it to Draining, then take its slot
// lock and flush it (memctrl.Drain). Synchronous calls and window holds
// check the mode under that same lock, so each either ran before the
// flush or observes the flip and waits; on return the shard cannot
// execute another operation until re-enabled. Drain, DrainShard and
// Reshard all fence through here.
func (b *Batched) quiesceShard(bs *batchShard) error {
	b.setMode(bs, ModeDraining)
	s := bs.slot
	s.mu.Lock()
	err := s.ctrl.Drain()
	s.mu.Unlock()
	bs.tel.Drains.Inc()
	return err
}

// retireShard moves a quiesced, already-unrouted shard to its terminal
// state, wakes callers waiting on it so they re-resolve the topology,
// and folds its final counters into the retired accumulators.
func (b *Batched) retireShard(bs *batchShard) {
	bs.terminate(modeRetired)
	b.retiredOps.Add(bs.slot.ops.Load())
	snap := bs.slot.ctrl.Snapshot()
	b.retiredMu.Lock()
	if !b.haveRetired {
		b.retiredTel = snap
		b.haveRetired = true
	} else {
		b.retiredTel.Merge(snap)
	}
	b.retiredBatch.Merge(bs.tel.Snapshot())
	b.retiredMu.Unlock()
}

// moveBlocks copies every resident block of a quiesced src into its owner
// among the target shards: decode with src's machinery, write the
// plaintext into the target, which re-encodes under its own scheme on
// writeback. The writes go through the targets' controllers directly —
// not the shard slots' per-block sequences — so they count as no
// operations (Ops equivalence with an offline replay) and need only the
// targets' slot locks. Blocks with neither a DRAM image nor a dirty LLC
// line are untouched zero-fill and are deliberately not moved
// (materializing images for never-written blocks would diverge from a
// replay).
func (b *Batched) moveBlocks(src *batchShard, targets []*batchShard, tlogN uint, tmask uint64) error {
	s := src.slot
	s.mu.Lock()
	addrs := s.ctrl.AppendResidentAddrs(nil)
	s.mu.Unlock()
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	var moved uint64
	for _, inner := range addrs {
		s.mu.Lock()
		data, ok, err := s.ctrl.DecodeResident(inner)
		s.mu.Unlock()
		if err != nil {
			b.migTel.BlocksMoved.Add(moved)
			return fmt.Errorf("block %#x: %w", inner, err)
		}
		if !ok {
			continue
		}
		outerIdx := (inner/BlockBytes)<<src.logN | uint64(src.idx)
		t := targets[outerIdx&tmask]
		tInner := (outerIdx >> tlogN) * BlockBytes
		t.slot.mu.Lock()
		werr := t.slot.ctrl.Write(tInner, data)
		t.slot.mu.Unlock()
		if werr != nil {
			b.migTel.BlocksMoved.Add(moved)
			return fmt.Errorf("block %#x: %w", inner, werr)
		}
		moved++
	}
	b.migTel.BlocksMoved.Add(moved)
	return nil
}

// --- live-migration hooks (consumed by internal/migrate) ----------------

// Reconfigure runs fn with reconfiguration serialized — no reshard,
// tracer swap, or Close can interleave — and the Migration Active gauge
// raised. It is the critical section a live scheme migration runs in.
func (b *Batched) Reconfigure(fn func() error) error {
	b.reconfMu.Lock()
	defer b.reconfMu.Unlock()
	if b.closed {
		return ErrClosed
	}
	b.migTel.Active.Add(1)
	defer b.migTel.Active.Add(-1)
	return fn()
}

// WithShard runs fn on shard i's controller under the shard lock,
// serialized against every other operation on the shard. The index
// resolves against the topology current at call time.
func (b *Batched) WithShard(i int, fn func(*memctrl.Controller) error) error {
	topo := b.topo.Load()
	if i < 0 || i >= len(topo.bshards) {
		return fmt.Errorf("shard: no shard %d", i)
	}
	bs := topo.bshards[i]
	bs.slot.mu.Lock()
	defer bs.slot.mu.Unlock()
	return fn(bs.slot.ctrl)
}

// CommitScheme records the protection scheme and codec configuration a
// live migration is converting the memory to: Mode reports it and shards
// built by later reshards use it. Must be called from within a
// Reconfigure critical section (it assumes reconfiguration is serialized
// and the topology compact).
func (b *Batched) CommitScheme(m memctrl.Mode, copCfg core.Config) {
	b.cfg.Shard.Mem.Mode = m
	b.cfg.Shard.Mem.COPConfig = copCfg
	next := *b.topo.Load()
	next.scheme = m
	b.topo.Store(&next)
}

// DumpDRAM returns a copy of every resident DRAM image keyed by outer
// block address (the addresses callers use). Intended for drained,
// quiescent instances; under concurrent traffic the result is a
// per-shard-consistent sample, not a global instant.
func (b *Batched) DumpDRAM() map[uint64][]byte {
	out := map[uint64][]byte{}
	for _, bs := range b.topo.Load().bshards {
		bs.slot.mu.Lock()
		d := bs.slot.ctrl.DumpDRAM()
		bs.slot.mu.Unlock()
		for inner, img := range d {
			outerIdx := (inner/BlockBytes)<<bs.logN | uint64(bs.idx)
			out[outerIdx*BlockBytes] = img
		}
	}
	return out
}
