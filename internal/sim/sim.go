// Package sim implements the paper's interval-simulation performance
// methodology (§4): execution is divided into epochs of perfect-L3
// progress punctuated by batches of independent, overlappable L3 misses,
// whose memory latency (from the DRAM timing model, including contention)
// is what separates the protection schemes:
//
//   - Unprotected: one DRAM access per miss.
//   - COP: one access per miss plus a fixed decode/decompress latency
//     (4 cycles in the paper) on reads of compressed blocks.
//   - COP-ER: COP plus an ECC-region access for each incompressible block
//     whose entry block misses the metadata cache; entry updates on
//     incompressible writebacks.
//   - ECC-Region baseline: every miss needs its ECC entry (2-byte entries,
//     32 per metadata block); metadata is cached, but the region covers
//     the whole footprint so the metadata working set scales with it.
//   - ECC DIMM: check bits travel with the data on the ninth chip — no
//     timing change versus unprotected.
//
// Four cores share the DRAM system; each runs one benchmark trace, as in
// the paper's 4-copy (SPEC) / 4-thread (PARSEC) runs.
package sim

import (
	"fmt"

	"cop/internal/core"
	"cop/internal/dram"
	"cop/internal/telemetry"
	"cop/internal/workload"
)

// Scheme is the protection configuration being simulated.
type Scheme int

// Schemes of Figure 11, plus VECC (the full Virtualized-ECC design from
// §2, with ECC address translation, for related-work comparison).
const (
	Unprotected Scheme = iota
	COP
	COPER
	ECCRegion
	ECCDIMM
	VECC
	// MemZip models Shafiee et al. (HPCA 2014): embedded ECC with
	// per-block compression moving check bits inline for compressible
	// blocks. Storage is still reserved for all ECC; the win is purely
	// fewer metadata accesses (only incompressible blocks fetch them),
	// found by offset — no pointer chase.
	MemZip
)

func (s Scheme) String() string {
	switch s {
	case Unprotected:
		return "Unprot."
	case COP:
		return "COP"
	case COPER:
		return "COP-ER"
	case ECCRegion:
		return "ECC Reg."
	case ECCDIMM:
		return "ECC DIMM"
	case VECC:
		return "VECC"
	case MemZip:
		return "MemZip"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Config parameterizes a simulation.
type Config struct {
	// Scheme selects the protection mode.
	Scheme Scheme
	// Cores is the number of cores (paper: 4).
	Cores int
	// EpochsPerCore bounds the simulated trace length.
	EpochsPerCore int
	// DecompressLatency is the added decode/decompress latency in CPU
	// cycles for COP/COP-ER reads of compressed blocks (paper: 4).
	DecompressLatency uint64
	// COPConfig is the codec configuration used to classify block
	// compressibility (zero value: core.NewConfig4()).
	COPConfig core.Config
	// DRAM overrides the memory system (zero value: Table 1 defaults).
	DRAM dram.Config
	// MetaCacheBlocks sizes the ECC-metadata cache in 64-byte blocks
	// (default 16384 — 1 MB of the 4 MB L3 holding metadata, which the
	// paper's baseline caches in the L3).
	MetaCacheBlocks int
}

// DefaultConfig returns the paper's simulation parameters for one scheme.
func DefaultConfig(s Scheme) Config {
	return Config{
		Scheme:            s,
		Cores:             4,
		EpochsPerCore:     4000,
		DecompressLatency: 4,
		MetaCacheBlocks:   16384,
	}
}

// Result summarizes one run.
type Result struct {
	Scheme       Scheme
	IPC          float64
	PerCoreIPC   []float64
	Instructions uint64
	Cycles       uint64
	// Misses is the demand L3 miss count across cores.
	Misses uint64
	// ExtraAccesses counts metadata DRAM accesses beyond the demand
	// stream (ECC region reads/writes).
	ExtraAccesses uint64
	// CompressedReads / RawReads split the demand misses by the stored
	// form of the target block.
	CompressedReads, RawReads uint64
	DRAM                      telemetry.DRAMStats
}

// classifier memoizes per-(address,version) compressibility for one
// benchmark. Classification runs the real codec on the real synthetic
// content — the performance model and the compressibility experiments can
// never disagree.
type classifier struct {
	p     *workload.Profile
	codec *core.Codec
	memo  map[uint64]memoEntry
}

type memoEntry struct {
	version      uint32
	compressible bool
}

func newClassifier(p *workload.Profile, codec *core.Codec) *classifier {
	return &classifier{p: p, codec: codec, memo: map[uint64]memoEntry{}}
}

func (c *classifier) compressible(addr uint64, version uint32) bool {
	if e, ok := c.memo[addr]; ok && e.version == version {
		return e.compressible
	}
	block := c.p.Block(addr, version)
	comp := c.codec.Classify(block) == core.StoredCompressed
	c.memo[addr] = memoEntry{version: version, compressible: comp}
	return comp
}

// metaCache is a direct-mapped model of ECC-metadata blocks cached in the
// L3 (the paper caches ECC region blocks to improve performance).
type metaCache struct {
	tags []uint64
	mask uint64
}

func newMetaCache(blocks int) *metaCache {
	n := 1
	for n < blocks {
		n <<= 1
	}
	t := make([]uint64, n)
	for i := range t {
		t[i] = ^uint64(0)
	}
	return &metaCache{tags: t, mask: uint64(n - 1)}
}

// access returns true on hit, filling on miss.
func (m *metaCache) access(blockAddr uint64) bool {
	idx := (blockAddr / 64) & m.mask
	if m.tags[idx] == blockAddr {
		return true
	}
	m.tags[idx] = blockAddr
	return false
}

// core state for the lockstep multi-core loop.
type coreState struct {
	trace   epochSource
	cls     *classifier
	base    uint64 // address offset isolating this core's footprint
	now     uint64 // CPU cycles
	instrs  uint64
	epochs  int
	ipcNum  float64           // perfect IPC for compute-phase conversion
	rawRank map[uint64]uint64 // first-seen rank of raw blocks (COP-ER entry order)
}

// rankOf returns addr's stable ECC-entry rank, assigning the next one on
// first sight (COP-ER allocates entries in first-writeback order).
func (cs *coreState) rankOf(addr uint64) uint64 {
	if r, ok := cs.rawRank[addr]; ok {
		return r
	}
	r := uint64(len(cs.rawRank))
	cs.rawRank[addr] = r
	return r
}

// Run simulates the benchmarks (one per core; a single name is replicated
// across all cores, the paper's SPEC rate mode) and returns the result.
func Run(cfg Config, benchmarks ...string) (Result, error) {
	cfg = mergeDefaults(cfg)
	if len(benchmarks) == 1 {
		for len(benchmarks) < cfg.Cores {
			benchmarks = append(benchmarks, benchmarks[0])
		}
	}
	if len(benchmarks) != cfg.Cores {
		return Result{}, fmt.Errorf("sim: %d benchmarks for %d cores", len(benchmarks), cfg.Cores)
	}
	sources := make([]epochSource, cfg.Cores)
	profiles := make([]*workload.Profile, cfg.Cores)
	for i, name := range benchmarks {
		p, err := workload.Get(name)
		if err != nil {
			return Result{}, err
		}
		sources[i] = p.NewTrace(uint64(i))
		profiles[i] = p
	}
	return runWith(cfg, sources, profiles)
}

// runWith is the shared engine behind Run and RunArchives.
func runWith(cfg Config, sources []epochSource, profiles []*workload.Profile) (Result, error) {
	copCfg := cfg.COPConfig
	if copCfg.Code == nil {
		copCfg = core.NewConfig4()
	}
	codec := core.NewCodec(copCfg)
	mem := dram.New(cfg.DRAM)
	meta := newMetaCache(cfg.MetaCacheBlocks)
	// VECC's two-level ECC address translation cache (page granularity).
	tlbL1 := newMetaCache(64)
	tlbL2 := newMetaCache(1024)

	cores := make([]*coreState, cfg.Cores)
	for i := range sources {
		cores[i] = &coreState{
			trace:   sources[i],
			cls:     newClassifier(profiles[i], codec),
			base:    uint64(i) << 34, // 16 GB apart: cores never collide
			ipcNum:  profiles[i].PerfectIPC,
			rawRank: map[uint64]uint64{},
		}
	}

	res := Result{Scheme: cfg.Scheme, PerCoreIPC: make([]float64, cfg.Cores)}
	// Lockstep: always advance the core with the smallest local clock, so
	// DRAM contention between cores is interleaved realistically.
	for {
		var cs *coreState
		for _, c := range cores {
			if c.epochs >= cfg.EpochsPerCore {
				continue
			}
			if cs == nil || c.now < cs.now {
				cs = c
			}
		}
		if cs == nil {
			break
		}
		cs.epochs++
		ep := cs.trace.Next()

		// Compute phase at perfect IPC.
		cs.now += uint64(float64(ep.Instructions) / cs.ipcNum)
		cs.instrs += ep.Instructions
		if len(ep.Misses) == 0 && len(ep.Writebacks) == 0 {
			continue
		}

		nowMem := cs.now / dram.CPUCyclesPerMemCycle
		var reqs []dram.Request
		type missMeta struct {
			compressed bool
			dataIdx    int            // index of the demand request in reqs
			metaIdx    int            // index of a parallel metadata request in reqs (-1: none)
			serialized []dram.Request // dependent chain of metadata accesses
			// chainFromIssue starts the serialized chain at epoch issue
			// (VECC: the walk needs no data) instead of at data return
			// (COP-ER: the pointer lives inside the block).
			chainFromIssue bool
		}
		metas := make([]missMeta, len(ep.Misses))
		for i, miss := range ep.Misses {
			addr := cs.base + miss.Addr
			metas[i].dataIdx = len(reqs)
			reqs = append(reqs, dram.Request{Addr: addr})
			comp := cs.cls.compressible(miss.Addr, miss.Version)
			metas[i].compressed = comp
			metas[i].metaIdx = -1
			if comp {
				res.CompressedReads++
			} else {
				res.RawReads++
			}
			switch cfg.Scheme {
			case COPER:
				// The entry address hides inside the block (the
				// displaced pointer): the region access cannot start
				// until the data arrives.
				if !comp {
					ma := cs.metaAddr(miss.Addr, true)
					if !meta.access(ma) {
						metas[i].serialized = append(metas[i].serialized, dram.Request{Addr: ma})
					}
				}
			case ECCRegion:
				// The baseline locates entries with a pure offset
				// computation, so data and metadata reads issue in
				// parallel — its cost is the extra traffic, not an
				// added serial hop.
				ma := cs.metaAddr(miss.Addr, false)
				if !meta.access(ma) {
					metas[i].metaIdx = len(reqs)
					reqs = append(reqs, dram.Request{Addr: ma})
					res.ExtraAccesses++
				}
			case MemZip:
				// Inline ECC when compressed (plus the decode latency,
				// applied below); offset-addressed embedded ECC fetch,
				// in parallel, when not.
				if !comp {
					ma := cs.metaAddr(miss.Addr, false)
					if !meta.access(ma) {
						metas[i].metaIdx = len(reqs)
						reqs = append(reqs, dram.Request{Addr: ma})
						res.ExtraAccesses++
					}
				}
			case VECC:
				// Full Virtualized ECC: the ECC page address comes from
				// a page-table-like structure behind a two-level
				// translation cache. A translation hit behaves like the
				// offset baseline (parallel metadata read); a miss
				// serializes a table walk before the metadata access.
				page := (cs.base + miss.Addr) >> 12
				translated := tlbL1.access(page*64) || tlbL2.access(page*64)
				ma := cs.metaAddr(miss.Addr, false)
				metaHit := meta.access(ma)
				if translated {
					if !metaHit {
						metas[i].metaIdx = len(reqs)
						reqs = append(reqs, dram.Request{Addr: ma})
						res.ExtraAccesses++
					}
				} else {
					walk := cs.metaAddr(miss.Addr, false) + (1 << 39) // table pages
					metas[i].chainFromIssue = true
					metas[i].serialized = append(metas[i].serialized,
						dram.Request{Addr: walk})
					if !metaHit {
						metas[i].serialized = append(metas[i].serialized,
							dram.Request{Addr: ma})
					}
				}
			}
		}
		// Writebacks go to DRAM too (off the critical path for the core,
		// but they occupy banks and the bus).
		for _, wb := range ep.Writebacks {
			addr := cs.base + wb.Addr
			reqs = append(reqs, dram.Request{Addr: addr, Write: true})
			comp := cs.cls.compressible(wb.Addr, wb.Version)
			switch cfg.Scheme {
			case COPER:
				if !comp {
					ma := cs.metaAddr(wb.Addr, true)
					if !meta.access(ma) {
						reqs = append(reqs, dram.Request{Addr: ma, Write: true})
						res.ExtraAccesses++
					}
				}
			case ECCRegion, VECC:
				ma := cs.metaAddr(wb.Addr, false)
				if !meta.access(ma) {
					reqs = append(reqs, dram.Request{Addr: ma, Write: true})
					res.ExtraAccesses++
				}
			case MemZip:
				if comp {
					break
				}
				ma := cs.metaAddr(wb.Addr, false)
				if !meta.access(ma) {
					reqs = append(reqs, dram.Request{Addr: ma, Write: true})
					res.ExtraAccesses++
				}
			}
		}

		finish := mem.ServiceBatch(nowMem, reqs)
		// Epoch stall: the core resumes when its slowest demand miss
		// (plus any serialized metadata access and decompress latency)
		// completes. Writebacks do not stall the core.
		var latest uint64
		for i := range ep.Misses {
			dataFinish := finish[metas[i].dataIdx]
			f := dataFinish * dram.CPUCyclesPerMemCycle
			if metas[i].metaIdx >= 0 {
				if mf := finish[metas[i].metaIdx] * dram.CPUCyclesPerMemCycle; mf > f {
					f = mf
				}
			}
			if len(metas[i].serialized) > 0 {
				// Dependent chain: each access issues only when the
				// previous one completes (pointer/translation in hand).
				cur := dataFinish
				if metas[i].chainFromIssue {
					cur = nowMem
				}
				for _, req := range metas[i].serialized {
					cur = mem.ServiceBatch(cur, []dram.Request{req})[0]
				}
				if cur*dram.CPUCyclesPerMemCycle > f {
					f = cur * dram.CPUCyclesPerMemCycle
				}
				res.ExtraAccesses += uint64(len(metas[i].serialized))
			}
			if metas[i].compressed &&
				(cfg.Scheme == COP || cfg.Scheme == COPER || cfg.Scheme == MemZip) {
				f += cfg.DecompressLatency
			}
			if f > latest {
				latest = f
			}
		}
		if latest > cs.now {
			cs.now = latest
		}
		res.Misses += uint64(len(ep.Misses))
	}

	var totalInstr, maxCycles uint64
	for i, c := range cores {
		res.PerCoreIPC[i] = float64(c.instrs) / float64(c.now)
		totalInstr += c.instrs
		if c.now > maxCycles {
			maxCycles = c.now
		}
	}
	res.Instructions = totalInstr
	res.Cycles = maxCycles
	res.IPC = float64(totalInstr) / float64(maxCycles)
	res.DRAM = mem.Telemetry()
	return res, nil
}

// metaAddr returns the DRAM address of the metadata block covering addr.
// For the ECC-region baseline entries are 2 bytes, so one metadata block
// covers 32 consecutive data blocks (good spatial locality, big region).
// For COP-ER entries are packed 11 per block in allocation order; the
// model approximates allocation order with the order raw blocks were first
// seen, which shares the baseline's granularity math but over the much
// smaller ever-incompressible set.
func (cs *coreState) metaAddr(addr uint64, coper bool) uint64 {
	const regionBase = uint64(0xF) << 40
	if !coper {
		entryBlock := (addr / 64) / 32
		return regionBase + cs.base + entryBlock*64
	}
	entryBlock := cs.rankOf(addr) / 11
	return regionBase + cs.base + entryBlock*64
}

func mergeDefaults(cfg Config) Config {
	d := DefaultConfig(cfg.Scheme)
	if cfg.Cores == 0 {
		cfg.Cores = d.Cores
	}
	if cfg.EpochsPerCore == 0 {
		cfg.EpochsPerCore = d.EpochsPerCore
	}
	if cfg.DecompressLatency == 0 {
		cfg.DecompressLatency = d.DecompressLatency
	}
	if cfg.MetaCacheBlocks == 0 {
		cfg.MetaCacheBlocks = d.MetaCacheBlocks
	}
	return cfg
}
