// Package shard provides the concurrency-safe front-end over
// memctrl.Controller (Batched, batch.go): block addresses are striped
// across N independent per-shard controllers, each serialized by its own
// mutex, so goroutines touching different shards never contend. It is the
// substrate for parallel fault-injection campaigns, multi-client traffic
// over one logical memory image, live reconfiguration, and the networked
// service. Every operation executes on the goroutine that issues it —
// synchronous calls at once, Group windows when their owner calls Wait —
// so the package runs no goroutines of its own.
//
// Striping is set-index compatible: the shard index is taken from the
// block-address bits directly above the block offset, and those bits are
// then removed from the address handed to the shard's controller. Each
// shard's LLC is 1/N of the configured capacity (a power-of-two set
// count), and a set conflict occurs between two blocks if and only if it
// would occur in the equivalent unsharded controller — single-threaded
// replays produce byte-identical DRAM images and identical hit/miss/
// eviction behavior, sharded or not.
//
// Consistency model: operations on a single block are linearizable (the
// owning shard's mutex orders them). Operations on different blocks are
// independent, exactly as in real multi-channel memory controllers.
// Multi-block calls (ReadBytes/WriteBytes/Flush) are not atomic across
// shard boundaries: concurrent writers to the same byte range can
// interleave per block. Within one Group window, accesses to *different*
// blocks may be reordered for DRAM row locality (FR-FCFS style), while
// accesses to the same block always execute in issue order. A caller that
// needs cross-block ordering must wait for the earlier operation's Group
// before issuing the later one — exactly the fence a real memory
// controller requires. A Drain fences every operation: none executes
// after it returns until the shard is resumed.
package shard

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cop/internal/memctrl"
	"cop/internal/trace"
)

// BlockBytes is the access granularity, re-exported for convenience.
const BlockBytes = memctrl.BlockBytes

// Config parameterizes the stripe layout of a Batched front-end.
//
// LLC capacity rule — stated once, here, for every front-end that embeds
// this config (cop.ShardedMemoryConfig included): Mem.LLCBytes is the
// TOTAL cache capacity of the logical memory; each shard receives exactly
// LLCBytes/Shards. A sharded and an unsharded controller built from the
// same Mem therefore model the same silicon, and single-threaded replays
// produce identical hit/miss behavior (see the package comment).
type Config struct {
	// Mem configures every per-shard controller. Mem.LLCBytes is the
	// TOTAL capacity (see the Config comment); zero selects the paper's
	// 4 MB / 16-way LLC.
	Mem memctrl.Config
	// Shards is the stripe count and must be a power of two no larger
	// than the LLC set count (so each shard's slice keeps at least one
	// set). Zero means auto: the smallest power of two >= GOMAXPROCS,
	// clamped to the set count. Anything else is a configuration error —
	// Normalize reports it; NewBatched panics on it.
	Shards int
}

// Normalize validates cfg and returns it with defaults applied (LLC
// geometry filled in, auto shard count resolved). It is the single
// validation path for sharded configs: an explicit Shards that is not a
// power of two, or that exceeds the LLC set count, is an error — never
// silently rounded.
func (cfg Config) Normalize() (Config, error) {
	if cfg.Mem.LLCBytes == 0 {
		cfg.Mem.LLCBytes = 4 << 20
	}
	if cfg.Mem.LLCWays == 0 {
		cfg.Mem.LLCWays = 16
	}
	totalSets := cfg.Mem.LLCBytes / (cfg.Mem.LLCWays * BlockBytes)
	if totalSets <= 0 || totalSets&(totalSets-1) != 0 {
		return Config{}, fmt.Errorf("shard: LLC of %d bytes / %d ways is not a power-of-two set count", cfg.Mem.LLCBytes, cfg.Mem.LLCWays)
	}
	switch n := cfg.Shards; {
	case n < 0:
		return Config{}, fmt.Errorf("shard: negative shard count %d", n)
	case n == 0:
		auto := nextPow2(runtime.GOMAXPROCS(0))
		if auto > totalSets {
			auto = totalSets
		}
		cfg.Shards = auto
	case n&(n-1) != 0:
		return Config{}, fmt.Errorf("shard: shard count %d is not a power of two", n)
	case n > totalSets:
		return Config{}, fmt.Errorf("shard: %d shards exceed the %d LLC sets (each shard needs at least one set)", n, totalSets)
	}
	return cfg, nil
}

// shardSlot pairs one controller with its lock and a lock-free op counter.
// Slots are heap-allocated individually so the hot counters of different
// shards do not share a cache line.
type shardSlot struct {
	mu   sync.Mutex
	ctrl *memctrl.Controller
	ops  atomic.Uint64
	th   *trace.Handle // this shard's execution-trace ring; nil-safe
}

// traceRoute records the shard-routing step and opens the access's flow:
// flow 0 allocates a fresh one, anything else joins the given id (the
// serve datapath passes wire trace spans here, so a client-generated id
// follows the access through every layer's records down to DRAM). Must be
// called with s.mu held (the handle is single-writer).
func (s *shardSlot) traceRoute(outer, inner uint64, f trace.Flags, flow uint64) {
	if s.th.Enabled() {
		if flow != 0 {
			s.th.BeginOuterFlow(flow)
		} else {
			s.th.BeginOuter()
		}
		s.th.Record(trace.KindShardRoute, inner, 0, f, outer, 0, 0)
	}
}

// The per-block access sequences — op count, route record, controller
// call — exist once, here: Group windows run them at Wait (execOne) and
// synchronous calls run them directly. outer is the caller's address,
// inner the shard-local one. Each must be called with s.mu held.

// read loads the block at inner into dst (at least BlockBytes long).
func (s *shardSlot) read(dst []byte, outer, inner, flow uint64) (memctrl.ReadInfo, error) {
	s.ops.Add(1)
	s.traceRoute(outer, inner, 0, flow)
	return s.ctrl.ReadInto(dst, inner)
}

// write stores data as the block at inner. A wrong-length data reaches
// the controller unchanged, so its length validation produces the error.
func (s *shardSlot) write(outer, inner uint64, data []byte, flow uint64) error {
	s.ops.Add(1)
	s.traceRoute(outer, inner, trace.FlagWrite, flow)
	return s.ctrl.Write(inner, data)
}

// readPart fills dst from byte offset off of the block at inner. The
// scratch block lives on the stack, so a hit performs no allocation.
func (s *shardSlot) readPart(dst []byte, off int, outer, inner uint64) error {
	var scratch [BlockBytes]byte
	if _, err := s.read(scratch[:], outer, inner, 0); err != nil {
		return err
	}
	copy(dst, scratch[off:])
	return nil
}

// writePart stores data at byte offset off of the block at inner: a plain
// write when it covers the block, else one read-modify-write op whose
// load is traced as a read and whose store opens its own write-flagged
// flow. The scratch block lives on the stack.
func (s *shardSlot) writePart(off int, data []byte, outer, inner uint64) error {
	if off == 0 && len(data) == BlockBytes {
		return s.write(outer, inner, data, 0)
	}
	s.ops.Add(1)
	s.traceRoute(outer, inner, 0, 0)
	var scratch [BlockBytes]byte
	if _, err := s.ctrl.ReadInto(scratch[:], inner); err != nil {
		return err
	}
	copy(scratch[off:], data)
	s.traceRoute(outer, inner, trace.FlagWrite, 0)
	return s.ctrl.Write(inner, scratch[:])
}

// NextPow2 returns the smallest power of two >= n (1 for n <= 0): the
// helper callers use to turn an arbitrary worker count into a valid
// Shards value when they genuinely want rounding.
func NextPow2(n int) int { return nextPow2(n) }

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func log2(n int) uint {
	var l uint
	for 1<<l != n {
		l++
	}
	return l
}
