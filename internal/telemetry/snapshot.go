package telemetry

import (
	"bytes"
	"encoding/json"
)

// This file defines the Snapshot tree: one frozen, mergeable section per
// hierarchy layer, plus the live atomic counter sets the layers embed.
// Section fields are monotonic sums unless noted; Merge is commutative and
// associative, so per-shard snapshots of a single-threaded run merge to
// exactly the unsharded run's snapshot.

// ControllerStats is the memory-controller section (one per memctrl
// controller, merged across shards).
type ControllerStats struct {
	Loads      uint64 `json:"loads"`
	Stores     uint64 `json:"stores"`
	Fills      uint64 `json:"fills"`
	Writebacks uint64 `json:"writebacks"`
	// StoredCompressed / StoredRaw classify completed writebacks by the
	// stored image form; AliasRetained counts writebacks rejected because
	// the block is an incompressible alias pinned in the LLC.
	StoredCompressed uint64 `json:"stored_compressed"`
	StoredRaw        uint64 `json:"stored_raw"`
	AliasRetained    uint64 `json:"alias_retained"`
	// CorrectedErrors / UncorrectableErrors are the decoder verdicts the
	// paper's coverage argument is about.
	CorrectedErrors     uint64 `json:"corrected_errors"`
	UncorrectableErrors uint64 `json:"uncorrectable_errors"`
	// RegionReads counts COP-ER / ECC-region metadata block accesses.
	RegionReads uint64 `json:"region_reads"`
	Scrubs      uint64 `json:"scrubs"`
	// ScrubScans / ScrubCorrected / ScrubUncorrectable account background
	// examinations of resident DRAM images (scrubber sweeps and migration
	// re-encodes) — corrections found there, not on a demand read, land in
	// ScrubCorrected while demand-read corrections stay in CorrectedErrors.
	ScrubScans         uint64 `json:"scrub_scans"`
	ScrubCorrected     uint64 `json:"scrub_corrected"`
	ScrubUncorrectable uint64 `json:"scrub_uncorrectable"`
	// MigratedBlocks counts DRAM images re-encoded by live scheme migration.
	MigratedBlocks uint64 `json:"migrated_blocks"`
	// EverIncompressible counts distinct blocks ever written raw (Fig 12).
	EverIncompressible    uint64 `json:"ever_incompressible"`
	DIMMCheckBytesWritten uint64 `json:"dimm_check_bytes_written"`
	// ValidCodewords is the distribution of zero-syndrome code-word counts
	// the decoder observed per DRAM fill (COP-family modes).
	ValidCodewords HistogramSnapshot `json:"valid_codewords"`
}

// Merge accumulates o into s.
func (s *ControllerStats) Merge(o ControllerStats) {
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.Fills += o.Fills
	s.Writebacks += o.Writebacks
	s.StoredCompressed += o.StoredCompressed
	s.StoredRaw += o.StoredRaw
	s.AliasRetained += o.AliasRetained
	s.CorrectedErrors += o.CorrectedErrors
	s.UncorrectableErrors += o.UncorrectableErrors
	s.RegionReads += o.RegionReads
	s.Scrubs += o.Scrubs
	s.ScrubScans += o.ScrubScans
	s.ScrubCorrected += o.ScrubCorrected
	s.ScrubUncorrectable += o.ScrubUncorrectable
	s.MigratedBlocks += o.MigratedBlocks
	s.EverIncompressible += o.EverIncompressible
	s.DIMMCheckBytesWritten += o.DIMMCheckBytesWritten
	s.ValidCodewords.Merge(o.ValidCodewords)
}

// ControllerCounters is the live atomic counter set behind ControllerStats.
type ControllerCounters struct {
	Loads, Stores, Fills, Writebacks           Counter
	StoredCompressed, StoredRaw, AliasRetained Counter
	CorrectedErrors, UncorrectableErrors       Counter
	RegionReads, Scrubs                        Counter
	ScrubScans, ScrubCorrected                 Counter
	ScrubUncorrectable, MigratedBlocks         Counter
	EverIncompressible, DIMMCheckBytesWritten  Counter
	ValidCodewords                             Histogram
}

// Snapshot freezes the counters.
func (c *ControllerCounters) Snapshot() ControllerStats {
	return ControllerStats{
		Loads:                 c.Loads.Load(),
		Stores:                c.Stores.Load(),
		Fills:                 c.Fills.Load(),
		Writebacks:            c.Writebacks.Load(),
		StoredCompressed:      c.StoredCompressed.Load(),
		StoredRaw:             c.StoredRaw.Load(),
		AliasRetained:         c.AliasRetained.Load(),
		CorrectedErrors:       c.CorrectedErrors.Load(),
		UncorrectableErrors:   c.UncorrectableErrors.Load(),
		RegionReads:           c.RegionReads.Load(),
		Scrubs:                c.Scrubs.Load(),
		ScrubScans:            c.ScrubScans.Load(),
		ScrubCorrected:        c.ScrubCorrected.Load(),
		ScrubUncorrectable:    c.ScrubUncorrectable.Load(),
		MigratedBlocks:        c.MigratedBlocks.Load(),
		EverIncompressible:    c.EverIncompressible.Load(),
		DIMMCheckBytesWritten: c.DIMMCheckBytesWritten.Load(),
		ValidCodewords:        c.ValidCodewords.Snapshot(),
	}
}

// CacheStats is the LLC section.
type CacheStats struct {
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"`
	Evictions  uint64 `json:"evictions"`
	Writebacks uint64 `json:"writebacks"`
	// AliasPins counts victim selections that had to skip an alias line;
	// Spills counts alias lines pushed to a set's overflow list.
	AliasPins        uint64 `json:"alias_pins"`
	Spills           uint64 `json:"spills"`
	OverflowSearches uint64 `json:"overflow_searches"`
	OverflowHits     uint64 `json:"overflow_hits"`
	// OverflowOccupancy is the distribution of a set's overflow-list
	// length observed at each spill.
	OverflowOccupancy HistogramSnapshot `json:"overflow_occupancy"`
}

// Merge accumulates o into s.
func (s *CacheStats) Merge(o CacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Writebacks += o.Writebacks
	s.AliasPins += o.AliasPins
	s.Spills += o.Spills
	s.OverflowSearches += o.OverflowSearches
	s.OverflowHits += o.OverflowHits
	s.OverflowOccupancy.Merge(o.OverflowOccupancy)
}

// CacheCounters is the live atomic counter set behind CacheStats.
type CacheCounters struct {
	Hits, Misses, Evictions, Writebacks Counter
	AliasPins, Spills                   Counter
	OverflowSearches, OverflowHits      Counter
	OverflowOccupancy                   Histogram
}

// Snapshot freezes the counters.
func (c *CacheCounters) Snapshot() CacheStats {
	return CacheStats{
		Hits:              c.Hits.Load(),
		Misses:            c.Misses.Load(),
		Evictions:         c.Evictions.Load(),
		Writebacks:        c.Writebacks.Load(),
		AliasPins:         c.AliasPins.Load(),
		Spills:            c.Spills.Load(),
		OverflowSearches:  c.OverflowSearches.Load(),
		OverflowHits:      c.OverflowHits.Load(),
		OverflowOccupancy: c.OverflowOccupancy.Snapshot(),
	}
}

// RegionStats is the ECC-region section (COP-ER, COP-CK-ER). Live and
// HighWater are levels, not sums: merging per-shard regions adds them,
// giving the total across the independent per-shard region instances.
type RegionStats struct {
	// Reads / Writes count 64-byte block accesses to the region (entry
	// blocks and valid-bit tree blocks).
	Reads  uint64 `json:"reads"`
	Writes uint64 `json:"writes"`
	// Allocs / Frees count entry lifecycle events; Live = Allocs − Frees.
	Allocs uint64 `json:"allocs"`
	Frees  uint64 `json:"frees"`
	Live   int64  `json:"live"`
	// HighWater is the maximum simultaneously live entry count.
	HighWater uint64 `json:"high_water"`
	// BlocksUsed is the region's current 64-byte block footprint (entry
	// blocks plus the valid-bit tree) — Figure 12's storage number.
	BlocksUsed uint64 `json:"blocks_used"`
}

// Merge accumulates o into s.
func (s *RegionStats) Merge(o RegionStats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.Allocs += o.Allocs
	s.Frees += o.Frees
	s.Live += o.Live
	s.HighWater += o.HighWater
	s.BlocksUsed += o.BlocksUsed
}

// RegionCounters is the live atomic counter set behind RegionStats.
// BlocksUsed is derived from region geometry at snapshot time, not counted.
type RegionCounters struct {
	Reads, Writes Counter
	Allocs, Frees Counter
	Live          Gauge
	HighWater     Max
}

// Snapshot freezes the counters; blocksUsed is supplied by the caller.
func (c *RegionCounters) Snapshot(blocksUsed uint64) RegionStats {
	return RegionStats{
		Reads:      c.Reads.Load(),
		Writes:     c.Writes.Load(),
		Allocs:     c.Allocs.Load(),
		Frees:      c.Frees.Load(),
		Live:       c.Live.Load(),
		HighWater:  c.HighWater.Load(),
		BlocksUsed: blocksUsed,
	}
}

// DRAMStats is the DRAM timing-model section. MaxConcurrent merges by
// maximum (it is a high-water mark, not a sum).
type DRAMStats struct {
	Reads        uint64 `json:"reads"`
	Writes       uint64 `json:"writes"`
	RowHits      uint64 `json:"row_hits"`
	RowMisses    uint64 `json:"row_misses"`
	RowConflicts uint64 `json:"row_conflicts"`
	// TotalLatency / TotalQueueDelay sum per-access (finish − issue) and
	// (start − issue) in memory-bus cycles.
	TotalLatency    uint64 `json:"total_latency"`
	TotalQueueDelay uint64 `json:"total_queue_delay"`
	MaxConcurrent   uint64 `json:"max_concurrent"`
	// AccessLatency / QueueDelay are the per-access distributions in
	// memory-bus cycles.
	AccessLatency HistogramSnapshot `json:"access_latency"`
	QueueDelay    HistogramSnapshot `json:"queue_delay"`
}

// Merge accumulates o into s.
func (s *DRAMStats) Merge(o DRAMStats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.RowHits += o.RowHits
	s.RowMisses += o.RowMisses
	s.RowConflicts += o.RowConflicts
	s.TotalLatency += o.TotalLatency
	s.TotalQueueDelay += o.TotalQueueDelay
	if o.MaxConcurrent > s.MaxConcurrent {
		s.MaxConcurrent = o.MaxConcurrent
	}
	s.AccessLatency.Merge(o.AccessLatency)
	s.QueueDelay.Merge(o.QueueDelay)
}

// DRAMCounters is the live atomic counter set behind DRAMStats.
type DRAMCounters struct {
	Reads, Writes                    Counter
	RowHits, RowMisses, RowConflicts Counter
	TotalLatency, TotalQueueDelay    Counter
	MaxConcurrent                    Max
	AccessLatency, QueueDelay        Histogram
}

// Snapshot freezes the counters.
func (c *DRAMCounters) Snapshot() DRAMStats {
	return DRAMStats{
		Reads:           c.Reads.Load(),
		Writes:          c.Writes.Load(),
		RowHits:         c.RowHits.Load(),
		RowMisses:       c.RowMisses.Load(),
		RowConflicts:    c.RowConflicts.Load(),
		TotalLatency:    c.TotalLatency.Load(),
		TotalQueueDelay: c.TotalQueueDelay.Load(),
		MaxConcurrent:   c.MaxConcurrent.Load(),
		AccessLatency:   c.AccessLatency.Snapshot(),
		QueueDelay:      c.QueueDelay.Snapshot(),
	}
}

// BatchStats is the sharded front-end's window section (merged across
// shards). It counts group-window execution and drain fences; synchronous
// calls take the shard lock per access and do not appear. An unsharded
// controller omits it.
type BatchStats struct {
	// Enqueued counts window operations executed; Batches counts the
	// shard-lock holds they ran under (a window takes each touched
	// shard's lock once per up to 64 operations).
	Enqueued uint64 `json:"enqueued"`
	Batches  uint64 `json:"batches"`
	// Drains counts completed shard drain fences (mode flipped, then
	// flushed under the shard lock).
	Drains uint64 `json:"drains"`
	// MaxDepth is the largest hold ever executed; Depth is the per-hold
	// operation count (its Mean is the lock-amortization factor).
	MaxDepth uint64            `json:"max_depth"`
	Depth    HistogramSnapshot `json:"depth"`
}

// Merge accumulates o into s (MaxDepth merges by maximum).
func (s *BatchStats) Merge(o BatchStats) {
	s.Enqueued += o.Enqueued
	s.Batches += o.Batches
	s.Drains += o.Drains
	if o.MaxDepth > s.MaxDepth {
		s.MaxDepth = o.MaxDepth
	}
	s.Depth.Merge(o.Depth)
}

// BatchCounters is the live atomic counter set behind BatchStats.
type BatchCounters struct {
	Enqueued, Batches, Drains Counter
	MaxDepth                  Max
	Depth                     Histogram
}

// Snapshot freezes the counters.
func (c *BatchCounters) Snapshot() BatchStats {
	return BatchStats{
		Enqueued: c.Enqueued.Load(),
		Batches:  c.Batches.Load(),
		Drains:   c.Drains.Load(),
		MaxDepth: c.MaxDepth.Load(),
		Depth:    c.Depth.Snapshot(),
	}
}

// MigrationStats is the online-reconfiguration section (live scheme
// migration and elastic resharding over the batched front-end). Present
// only once a reconfiguration has run; Active is a level, not a sum.
type MigrationStats struct {
	// SchemeMigrations / Reshards count completed whole-memory
	// reconfigurations; Chunks counts bounded-pause conversion steps.
	SchemeMigrations uint64 `json:"scheme_migrations"`
	Reshards         uint64 `json:"reshards"`
	Chunks           uint64 `json:"chunks"`
	// BlocksMigrated counts blocks re-encoded by scheme migration;
	// BlocksMoved counts blocks copied between stripes by resharding.
	BlocksMigrated uint64 `json:"blocks_migrated"`
	BlocksMoved    uint64 `json:"blocks_moved"`
	// Active is 1 while a reconfiguration is in progress.
	Active int64 `json:"active"`
}

// Merge accumulates o into s.
func (s *MigrationStats) Merge(o MigrationStats) {
	s.SchemeMigrations += o.SchemeMigrations
	s.Reshards += o.Reshards
	s.Chunks += o.Chunks
	s.BlocksMigrated += o.BlocksMigrated
	s.BlocksMoved += o.BlocksMoved
	s.Active += o.Active
}

// Zero reports whether no reconfiguration has ever touched the counters
// (used to omit the section from snapshots of never-reconfigured memories).
func (s MigrationStats) Zero() bool {
	return s == MigrationStats{}
}

// MigrationCounters is the live atomic counter set behind MigrationStats.
type MigrationCounters struct {
	SchemeMigrations, Reshards, Chunks Counter
	BlocksMigrated, BlocksMoved        Counter
	Active                             Gauge
}

// Snapshot freezes the counters.
func (c *MigrationCounters) Snapshot() MigrationStats {
	return MigrationStats{
		SchemeMigrations: c.SchemeMigrations.Load(),
		Reshards:         c.Reshards.Load(),
		Chunks:           c.Chunks.Load(),
		BlocksMigrated:   c.BlocksMigrated.Load(),
		BlocksMoved:      c.BlocksMoved.Load(),
		Active:           c.Active.Load(),
	}
}

// NetStats is the networked-service section (the copnet serve datapath):
// frame and byte accounting for the wire front door, scratch-pool
// effectiveness, and the request-concurrency level. Present only on
// snapshots produced by a network server; per-tenant memory snapshots
// omit it. Inflight is a level and MaxInflight a high-water mark, not
// sums.
type NetStats struct {
	// Frames counts request frames executed; Ops the operations they
	// carried (Ops/Frames is the window-amortization factor).
	Frames uint64 `json:"frames"`
	Ops    uint64 `json:"ops"`
	// BytesIn / BytesOut count request and response frame bytes.
	BytesIn  uint64 `json:"bytes_in"`
	BytesOut uint64 `json:"bytes_out"`
	// PoolHits / PoolMisses classify frame-scratch acquisitions: a miss
	// allocated a fresh arena, a hit reused one. Steady state is all hits.
	PoolHits   uint64 `json:"pool_hits"`
	PoolMisses uint64 `json:"pool_misses"`
	// Inflight is the number of admitted requests currently executing;
	// MaxInflight is the highest concurrency ever observed.
	Inflight    int64  `json:"inflight"`
	MaxInflight uint64 `json:"max_inflight"`
}

// Merge accumulates o into s (Inflight sums as a level across servers;
// MaxInflight merges by maximum).
func (s *NetStats) Merge(o NetStats) {
	s.Frames += o.Frames
	s.Ops += o.Ops
	s.BytesIn += o.BytesIn
	s.BytesOut += o.BytesOut
	s.PoolHits += o.PoolHits
	s.PoolMisses += o.PoolMisses
	s.Inflight += o.Inflight
	if o.MaxInflight > s.MaxInflight {
		s.MaxInflight = o.MaxInflight
	}
}

// NetCounters is the live atomic counter set behind NetStats.
type NetCounters struct {
	Frames, Ops          Counter
	BytesIn, BytesOut    Counter
	PoolHits, PoolMisses Counter
	Inflight             Gauge
	MaxInflight          Max
}

// Snapshot freezes the counters.
func (c *NetCounters) Snapshot() NetStats {
	return NetStats{
		Frames:      c.Frames.Load(),
		Ops:         c.Ops.Load(),
		BytesIn:     c.BytesIn.Load(),
		BytesOut:    c.BytesOut.Load(),
		PoolHits:    c.PoolHits.Load(),
		PoolMisses:  c.PoolMisses.Load(),
		Inflight:    c.Inflight.Load(),
		MaxInflight: c.MaxInflight.Load(),
	}
}

// NamedHistogram is one labeled sub-series of a histogram family: a serve
// stage ("window", "encode", ...) or a wire op kind ("read", "write", ...).
// Families merge by name, so per-tenant snapshots sum exactly.
type NamedHistogram struct {
	Name  string            `json:"name"`
	Nanos HistogramSnapshot `json:"nanos"`
}

// mergeNamed accumulates src into dst name-wise, appending names dst has
// not seen yet (in src order, so a stable input order stays stable).
func mergeNamed(dst *[]NamedHistogram, src []NamedHistogram) {
	for _, o := range src {
		found := false
		for i := range *dst {
			if (*dst)[i].Name == o.Name {
				(*dst)[i].Nanos.Merge(o.Nanos)
				found = true
				break
			}
		}
		if !found {
			*dst = append(*dst, NamedHistogram{Name: o.Name, Nanos: o.Nanos})
		}
	}
}

// ServeStats is the serve-datapath latency section: wall-clock frame
// latency, its per-stage decomposition (read/parse, window buffering
// ("ring-wait"), window execution, result encode, response write),
// per-op-kind latency, and the slow-frame count. All values are
// nanoseconds in power-of-two buckets.
// Present only on snapshots produced by a network server.
type ServeStats struct {
	// Frame is the end-to-end wall-clock distribution per request frame
	// (body read through response write).
	Frame HistogramSnapshot `json:"frame_nanos"`
	// Stages decomposes frame time by datapath stage; a frame contributes
	// one observation to every stage, so stage counts match Frame.Count.
	Stages []NamedHistogram `json:"stages,omitempty"`
	// Ops is the per-op-kind wall-clock distribution: a windowed op's
	// latency is its window's execution time, a barrier or sequential op's
	// is its own execution time.
	Ops []NamedHistogram `json:"ops,omitempty"`
	// SlowFrames counts frames that crossed the slow-frame threshold.
	SlowFrames uint64 `json:"slow_frames"`
}

// Merge accumulates o into s (stage and op families merge by name).
func (s *ServeStats) Merge(o ServeStats) {
	s.Frame.Merge(o.Frame)
	mergeNamed(&s.Stages, o.Stages)
	mergeNamed(&s.Ops, o.Ops)
	s.SlowFrames += o.SlowFrames
}

// DerivedStats are rates computed from the merged monotonic sections.
// They are recomputed after every merge, never merged themselves.
type DerivedStats struct {
	// LLCHitRate is cache hits over lookups.
	LLCHitRate float64 `json:"llc_hit_rate"`
	// CompressedFraction is compressed writebacks over all stored blocks.
	CompressedFraction float64 `json:"compressed_fraction"`
	// CorrectedPerMillionLoads normalizes the correction rate to traffic.
	CorrectedPerMillionLoads float64 `json:"corrected_per_million_loads"`
	// RowHitRate / AvgAccessLatency come from the DRAM section (0 without one).
	RowHitRate       float64 `json:"row_hit_rate"`
	AvgAccessLatency float64 `json:"avg_access_latency"`
}

// Snapshot is the coherent telemetry tree for one memory hierarchy: the
// merged controller and cache sections, optional region and DRAM sections,
// and rates derived from the merged counters. Produced by
// memctrl.Controller.Snapshot and shard.Batched.Snapshot; exported as
// cop.Snapshot.
type Snapshot struct {
	// Scheme is the protection mode name (memctrl.Mode.String()).
	Scheme     string          `json:"scheme"`
	Controller ControllerStats `json:"controller"`
	Cache      CacheStats      `json:"cache"`
	Region     *RegionStats    `json:"region,omitempty"`
	DRAM       *DRAMStats      `json:"dram,omitempty"`
	Batch      *BatchStats     `json:"batch,omitempty"`
	Migration  *MigrationStats `json:"migration,omitempty"`
	Net        *NetStats       `json:"net,omitempty"`
	Serve      *ServeStats     `json:"serve,omitempty"`
	Derived    DerivedStats    `json:"derived"`
}

// Merge accumulates o into s section-wise (Derived is recomputed by
// Finalize, which Merge calls last). Merging snapshots of different
// schemes keeps s's scheme.
func (s *Snapshot) Merge(o Snapshot) {
	if s.Scheme == "" {
		s.Scheme = o.Scheme
	}
	s.Controller.Merge(o.Controller)
	s.Cache.Merge(o.Cache)
	if o.Region != nil {
		if s.Region == nil {
			s.Region = &RegionStats{}
		}
		s.Region.Merge(*o.Region)
	}
	if o.DRAM != nil {
		if s.DRAM == nil {
			s.DRAM = &DRAMStats{}
		}
		s.DRAM.Merge(*o.DRAM)
	}
	if o.Batch != nil {
		if s.Batch == nil {
			s.Batch = &BatchStats{}
		}
		s.Batch.Merge(*o.Batch)
	}
	if o.Migration != nil {
		if s.Migration == nil {
			s.Migration = &MigrationStats{}
		}
		s.Migration.Merge(*o.Migration)
	}
	if o.Net != nil {
		if s.Net == nil {
			s.Net = &NetStats{}
		}
		s.Net.Merge(*o.Net)
	}
	if o.Serve != nil {
		if s.Serve == nil {
			s.Serve = &ServeStats{}
		}
		s.Serve.Merge(*o.Serve)
	}
	s.Finalize()
}

// Finalize recomputes the derived rates from the current sections.
func (s *Snapshot) Finalize() {
	div := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	s.Derived = DerivedStats{
		LLCHitRate:               div(s.Cache.Hits, s.Cache.Hits+s.Cache.Misses),
		CompressedFraction:       div(s.Controller.StoredCompressed, s.Controller.StoredCompressed+s.Controller.StoredRaw),
		CorrectedPerMillionLoads: 1e6 * div(s.Controller.CorrectedErrors, s.Controller.Loads),
	}
	if s.DRAM != nil {
		s.Derived.RowHitRate = div(s.DRAM.RowHits, s.DRAM.RowHits+s.DRAM.RowMisses)
		s.Derived.AvgAccessLatency = div(s.DRAM.TotalLatency, s.DRAM.Reads+s.DRAM.Writes)
	}
}

// JSON renders the snapshot as stable, indented JSON: field order follows
// the struct definitions and float formatting is encoding/json's canonical
// shortest form, so equal snapshots produce byte-identical output.
func (s Snapshot) JSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Source is anything that can produce a Snapshot — both
// memctrl.Controller and shard.Batched satisfy it. The HTTP handler
// and exporters accept a Source so they serve live state.
type Source interface {
	Snapshot() Snapshot
}
