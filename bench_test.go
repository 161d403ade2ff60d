package cop_test

// Benchmark harness: one benchmark per paper table/figure (regenerating
// its rows and reporting the headline number as a custom metric), plus the
// ablation benches for the design choices DESIGN.md calls out and
// throughput microbenchmarks for the codec datapath.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The figure benches use reduced sample counts per iteration; cmd/copbench
// regenerates the full-fidelity tables.

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"cop"
	"cop/internal/compress"
	"cop/internal/core"
	"cop/internal/dram"
	"cop/internal/sim"
	"cop/internal/workload"
)

func benchOpts() cop.ExperimentOptions {
	return cop.ExperimentOptions{Samples: 2000, AliasSamples: 100000, Epochs: 300}
}

// metric extracts a numeric cell (strips % and x) from a report row whose
// first column matches name; col indexes the row.
func metric(b *testing.B, r *cop.ExperimentReport, name string, col int) float64 {
	b.Helper()
	for _, row := range r.Rows {
		if row[0] == name {
			s := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSpace(row[col]), "%"), "x")
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				b.Fatalf("parse %q: %v", row[col], err)
			}
			return v
		}
	}
	b.Fatalf("row %q missing", name)
	return 0
}

func runExperimentBench(b *testing.B, id string, report func(*cop.ExperimentReport)) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := cop.RunExperiment(id, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			report(r)
		}
	}
}

// BenchmarkFig1 regenerates the FPC ratio sweep (Figure 1).
func BenchmarkFig1(b *testing.B) {
	runExperimentBench(b, "fig1", func(r *cop.ExperimentReport) {
		b.ReportMetric(metric(b, r, "libquantum", 2), "libquantum_pct_at_10")
	})
}

// BenchmarkFig4 regenerates the shifted-MSB comparison (Figure 4).
func BenchmarkFig4(b *testing.B) {
	runExperimentBench(b, "fig4", func(r *cop.ExperimentReport) {
		b.ReportMetric(metric(b, r, "Average", 3), "avg_shift_gain_pct") // paper: ~15
	})
}

// BenchmarkFig8 regenerates the 8-byte compressibility figure.
func BenchmarkFig8(b *testing.B) {
	runExperimentBench(b, "fig8", func(r *cop.ExperimentReport) {
		b.ReportMetric(metric(b, r, "Average", 4), "combined_avg_pct")
	})
}

// BenchmarkFig9 regenerates the 4-byte compressibility figure.
func BenchmarkFig9(b *testing.B) {
	runExperimentBench(b, "fig9", func(r *cop.ExperimentReport) {
		b.ReportMetric(metric(b, r, "Average", 5), "combined_avg_pct") // paper: 94
	})
}

// BenchmarkFig10 regenerates the error-rate-reduction figure.
func BenchmarkFig10(b *testing.B) {
	runExperimentBench(b, "fig10", func(r *cop.ExperimentReport) {
		b.ReportMetric(metric(b, r, "Average", 2), "cop4_avg_reduction_pct") // paper: 93
	})
}

// BenchmarkFig11 regenerates the normalized-IPC comparison.
func BenchmarkFig11(b *testing.B) {
	runExperimentBench(b, "fig11", func(r *cop.ExperimentReport) {
		b.ReportMetric(metric(b, r, "Geomean", 2), "cop_norm_ipc")
		b.ReportMetric(metric(b, r, "Geomean", 4), "eccreg_norm_ipc")
	})
}

// BenchmarkFig12 regenerates the ECC-storage-reduction figure.
func BenchmarkFig12(b *testing.B) {
	runExperimentBench(b, "fig12", func(r *cop.ExperimentReport) {
		b.ReportMetric(metric(b, r, "Average", 5), "avg_reduction_pct") // paper: 80
	})
}

// BenchmarkTable3 regenerates the incompressible-alias census.
func BenchmarkTable3(b *testing.B) {
	runExperimentBench(b, "table3", func(r *cop.ExperimentReport) {
		b.ReportMetric(metric(b, r, "1", 1), "one_codeword_pct") // paper: 1.4
	})
}

// BenchmarkAlias regenerates the §3.1 alias-probability analytics.
func BenchmarkAlias(b *testing.B) {
	runExperimentBench(b, "alias", func(r *cop.ExperimentReport) {
		b.ReportMetric(metric(b, r, "P(random 128-bit word valid)", 2), "word_valid_pct") // paper: 0.39
	})
}

// --- ablation benches (design choices from DESIGN.md) -------------------

// ablationCompressibility measures combined-scheme coverage over a pooled
// workload sample for one codec config.
func ablationCompressibility(b *testing.B, cfg core.Config) float64 {
	b.Helper()
	codec := core.NewCodec(cfg)
	ok, total := 0, 0
	for _, p := range workload.MemoryIntensiveSet() {
		for _, blk := range p.SampleBlocks(300, 0xAB1A7E) {
			total++
			if codec.Classify(blk) == core.StoredCompressed {
				ok++
			}
		}
	}
	_ = b
	return 100 * float64(ok) / float64(total)
}

// BenchmarkAblationCOP4vsCOP8 contrasts coverage of the two operating
// points (the paper's central trade-off).
func BenchmarkAblationCOP4vsCOP8(b *testing.B) {
	var c4, c8 float64
	for i := 0; i < b.N; i++ {
		c4 = ablationCompressibility(b, core.NewConfig4())
		c8 = ablationCompressibility(b, core.NewConfig8())
	}
	b.ReportMetric(c4, "cop4_coverage_pct")
	b.ReportMetric(c8, "cop8_coverage_pct")
}

// BenchmarkAblationThreshold measures the alias rate on random data at
// detection thresholds 3 and 2 — the §3.1 "orders of magnitude" claim.
func BenchmarkAblationThreshold(b *testing.B) {
	codec := core.NewCodec(core.NewConfig4())
	rng := rand.New(rand.NewSource(7))
	buf := make([]byte, cop.BlockBytes)
	const n = 300000
	var ge2, ge3 int
	for i := 0; i < b.N; i++ {
		ge2, ge3 = 0, 0
		for j := 0; j < n; j++ {
			rng.Read(buf)
			switch cw := codec.CountValidCodewords(buf); {
			case cw >= 3:
				ge3++
				ge2++
			case cw >= 2:
				ge2++
			}
		}
	}
	b.ReportMetric(1e6*float64(ge3)/n, "alias_ppm_thr3")
	b.ReportMetric(1e6*float64(ge2)/n, "alias_ppm_thr2")
}

// BenchmarkAblationStaticHash measures how many repeated-value blocks
// alias with and without the static hash (§3.1's motivation for it).
func BenchmarkAblationStaticHash(b *testing.B) {
	withHash := core.NewCodec(core.NewConfig4())
	noHashCfg := core.NewConfig4()
	noHashCfg.DisableHash = true
	noHash := core.NewCodec(noHashCfg)
	// Blocks holding one 128-bit valid code word repeated four times.
	rng := rand.New(rand.NewSource(9))
	const n = 2000
	var aliasedWith, aliasedWithout int
	for i := 0; i < b.N; i++ {
		aliasedWith, aliasedWithout = 0, 0
		data := make([]byte, 15)
		block := make([]byte, 64)
		for j := 0; j < n; j++ {
			rng.Read(data)
			cw := noHashCfg.Code.Encode(data)
			for s := 0; s < 4; s++ {
				copy(block[16*s:], cw)
			}
			if noHash.IsAlias(block) {
				aliasedWithout++
			}
			if withHash.IsAlias(block) {
				aliasedWith++
			}
		}
	}
	b.ReportMetric(100*float64(aliasedWithout)/n, "aliased_pct_nohash")
	b.ReportMetric(100*float64(aliasedWith)/n, "aliased_pct_hash")
}

// BenchmarkAblationFPCInCombined quantifies why FPC is excluded from the
// hybrid: swapping RLE for FPC loses coverage.
func BenchmarkAblationFPCInCombined(b *testing.B) {
	withRLE := core.NewConfig4()
	withFPC := core.NewConfig4()
	withFPC.Scheme = compress.NewCombinedOf(
		compress.MSB{Shifted: true}, compress.FPC{}, compress.TXT{})
	var rle, fpc float64
	for i := 0; i < b.N; i++ {
		rle = ablationCompressibility(b, withRLE)
		fpc = ablationCompressibility(b, withFPC)
	}
	b.ReportMetric(rle, "with_rle_pct")
	b.ReportMetric(fpc, "with_fpc_pct")
}

// BenchmarkAblationMSBShift quantifies the Figure 4 optimization inside
// the full combined scheme.
func BenchmarkAblationMSBShift(b *testing.B) {
	shifted := core.NewConfig4()
	unshifted := core.NewConfig4()
	unshifted.Scheme = compress.NewCombinedOf(
		compress.MSB{Shifted: false}, compress.RLE{}, compress.TXT{})
	var s, u float64
	for i := 0; i < b.N; i++ {
		s = ablationCompressibility(b, shifted)
		u = ablationCompressibility(b, unshifted)
	}
	b.ReportMetric(s, "shifted_pct")
	b.ReportMetric(u, "unshifted_pct")
}

// BenchmarkAblationRegionPacking contrasts COP-ER's packed 46-bit entries
// against naive per-block 2-byte reservation for a 6%-incompressible
// footprint (the Figure 6 design).
func BenchmarkAblationRegionPacking(b *testing.B) {
	const footprint = 1 << 20 // blocks
	const incompressible = footprint * 6 / 100
	var packed, naive float64
	for i := 0; i < b.N; i++ {
		entryBlocks := (incompressible + 10) / 11
		treeBlocks := 1 + (entryBlocks+500)/501
		packed = float64((entryBlocks + treeBlocks) * 64)
		naive = float64(footprint * 2)
	}
	b.ReportMetric(100*(1-packed/naive), "storage_reduction_pct")
}

// --- codec datapath microbenchmarks --------------------------------------

func BenchmarkEncodeCompressible(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	codec := cop.NewCodec(cop.Config4())
	block := make([]byte, cop.BlockBytes)
	base := uint64(0x00007F00_00000000)
	for i := 0; i < 8; i++ {
		binary.BigEndian.PutUint64(block[8*i:], base|uint64(rng.Intn(1<<20)))
	}
	b.SetBytes(cop.BlockBytes)
	for i := 0; i < b.N; i++ {
		if _, status := codec.Encode(block); status != cop.StoredCompressed {
			b.Fatal("expected compressible")
		}
	}
}

func BenchmarkDecodeCompressible(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	codec := cop.NewCodec(cop.Config4())
	block := make([]byte, cop.BlockBytes)
	base := uint64(0x00007F00_00000000)
	for i := 0; i < 8; i++ {
		binary.BigEndian.PutUint64(block[8*i:], base|uint64(rng.Intn(1<<20)))
	}
	image, _ := codec.Encode(block)
	b.SetBytes(cop.BlockBytes)
	for i := 0; i < b.N; i++ {
		if _, _, err := codec.Decode(image); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetectRawBlock(b *testing.B) {
	// The cost of the no-metadata detection trick on unprotected data.
	rng := rand.New(rand.NewSource(3))
	codec := cop.NewCodec(cop.Config4())
	block := make([]byte, cop.BlockBytes)
	rng.Read(block)
	b.SetBytes(cop.BlockBytes)
	for i := 0; i < b.N; i++ {
		codec.CountValidCodewords(block)
	}
}

// BenchmarkSimThroughput measures interval-simulator speed (epochs/sec).
func BenchmarkSimThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(sim.COP)
		cfg.EpochsPerCore = 500
		if _, err := sim.Run(cfg, "mcf"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(500*4), "epochs/op")
}

// --- extension benches ----------------------------------------------------

// BenchmarkExtensionChipkill measures COP-CK (the paper's future-work
// chipkill extension): coverage at the steeper 15.6% compression target
// and whole-chip recovery across the protected set.
func BenchmarkExtensionChipkill(b *testing.B) {
	ck := cop.NewChipkillCodec()
	p := workload.MustGet("mcf")
	blocks := p.SampleBlocks(400, 0xCC)
	var coverage, recovery float64
	for i := 0; i < b.N; i++ {
		protected, recovered, trials := 0, 0, 0
		for _, blk := range blocks {
			img, status := ck.Encode(blk)
			if status != cop.StoredCompressed {
				continue
			}
			protected++
			for chip := 0; chip < 8; chip++ {
				dam := append([]byte(nil), img...)
				cop.FailChip(dam, chip, 0x3C)
				got, _, err := ck.Decode(dam)
				trials++
				if err == nil && bytes.Equal(got, blk) {
					recovered++
				}
			}
		}
		coverage = 100 * float64(protected) / float64(len(blocks))
		recovery = 100 * float64(recovered) / float64(trials)
	}
	b.ReportMetric(coverage, "coverage_pct")
	b.ReportMetric(recovery, "chip_recovery_pct")
}

// BenchmarkExtensionAdaptive measures the adaptive two-tier codec: how
// many blocks land in the strong format, and its survival rate under three
// scattered single-bit errors (which silently corrupt plain COP-4).
func BenchmarkExtensionAdaptive(b *testing.B) {
	ac := cop.NewAdaptiveCodec()
	rng := rand.New(rand.NewSource(42))
	p := workload.MustGet("mcf")
	blocks := p.SampleBlocks(400, 0xAD)
	var strongPct, survivePct float64
	for i := 0; i < b.N; i++ {
		strong, survived, trials := 0, 0, 0
		for _, blk := range blocks {
			img, format, status := ac.Encode(blk)
			if status != cop.StoredCompressed {
				continue
			}
			if format == core.FormatStrong {
				strong++
				dam := append([]byte(nil), img...)
				for _, s := range rng.Perm(8)[:3] {
					bit := 64*s + rng.Intn(64)
					dam[bit/8] ^= 1 << (7 - bit%8)
				}
				trials++
				if got, _, _, err := ac.Decode(dam); err == nil && bytes.Equal(got, blk) {
					survived++
				}
			}
		}
		strongPct = 100 * float64(strong) / float64(len(blocks))
		survivePct = 100 * float64(survived) / float64(trials)
	}
	b.ReportMetric(strongPct, "strong_format_pct")
	b.ReportMetric(survivePct, "triple_error_survival_pct")
}

// BenchmarkAblationRefresh quantifies the cost of enabling DRAM refresh in
// the timing model (disabled in the published numbers).
func BenchmarkAblationRefresh(b *testing.B) {
	var base, ref float64
	for i := 0; i < b.N; i++ {
		cfg := sim.DefaultConfig(sim.COP)
		cfg.EpochsPerCore = 400
		res, err := sim.Run(cfg, "mcf")
		if err != nil {
			b.Fatal(err)
		}
		base = res.IPC
		cfg.DRAM = dram.DefaultConfig()
		cfg.DRAM.Timing = dram.DDR31600().WithRefresh()
		res, err = sim.Run(cfg, "mcf")
		if err != nil {
			b.Fatal(err)
		}
		ref = res.IPC
	}
	b.ReportMetric(ref/base, "refresh_norm_ipc")
}

// BenchmarkAblationPagePolicy contrasts open-page (the paper's setting)
// with closed-page auto-precharge under COP.
func BenchmarkAblationPagePolicy(b *testing.B) {
	var open, closed float64
	for i := 0; i < b.N; i++ {
		for _, page := range []dram.PagePolicy{dram.OpenPage, dram.ClosedPage} {
			cfg := sim.DefaultConfig(sim.COP)
			cfg.EpochsPerCore = 400
			cfg.DRAM = dram.DefaultConfig()
			cfg.DRAM.Page = page
			res, err := sim.Run(cfg, "lbm")
			if err != nil {
				b.Fatal(err)
			}
			if page == dram.OpenPage {
				open = res.IPC
			} else {
				closed = res.IPC
			}
		}
	}
	b.ReportMetric(closed/open, "closedpage_norm_ipc")
}

// BenchmarkAblationScheduler contrasts FR-FCFS (the model's default)
// with strict FCFS.
func BenchmarkAblationScheduler(b *testing.B) {
	var fr, fcfs float64
	for i := 0; i < b.N; i++ {
		for _, sched := range []dram.SchedPolicy{dram.FRFCFS, dram.FCFS} {
			cfg := sim.DefaultConfig(sim.COP)
			cfg.EpochsPerCore = 400
			cfg.DRAM = dram.DefaultConfig()
			cfg.DRAM.Sched = sched
			res, err := sim.Run(cfg, "mcf")
			if err != nil {
				b.Fatal(err)
			}
			if sched == dram.FRFCFS {
				fr = res.IPC
			} else {
				fcfs = res.IPC
			}
		}
	}
	b.ReportMetric(fcfs/fr, "fcfs_norm_ipc")
}

// BenchmarkExperimentEnergy regenerates the DRAM energy comparison.
func BenchmarkExperimentEnergy(b *testing.B) {
	runExperimentBench(b, "energy", func(r *cop.ExperimentReport) {
		b.ReportMetric(metric(b, r, "mcf", 5), "eccdimm_norm_energy") // ≈1.125
	})
}

// BenchmarkAblationCPACK adds the C-Pack dictionary compressor (Chen et
// al., TVLSI 2010) to the scheme shootout at COP's low target — like FPC,
// its per-word code overhead keeps it behind RLE here.
func BenchmarkAblationCPACK(b *testing.B) {
	schemes := []compress.Scheme{compress.RLE{}, compress.FPC{}, compress.CPACK{}}
	var fracs [3]float64
	for i := 0; i < b.N; i++ {
		var pool [][]byte
		for _, p := range workload.MemoryIntensiveSet() {
			pool = append(pool, p.SampleBlocks(200, 0xC9AC)...)
		}
		for si, s := range schemes {
			n := 0
			for _, blk := range pool {
				if _, _, ok := s.Compress(blk, compress.MaxBitsCOP4); ok {
					n++
				}
			}
			fracs[si] = 100 * float64(n) / float64(len(pool))
		}
	}
	b.ReportMetric(fracs[0], "rle_pct")
	b.ReportMetric(fracs[1], "fpc_pct")
	b.ReportMetric(fracs[2], "cpack_pct")
}

// --- sharded memory throughput -------------------------------------------

// shardedTrafficBlocks builds a mixed compressible/random working set.
func shardedTrafficBlocks(n int) [][]byte {
	rng := rand.New(rand.NewSource(0x5AAD))
	blocks := make([][]byte, n)
	base := uint64(0x00007F00_00000000)
	for i := range blocks {
		b := make([]byte, cop.BlockBytes)
		if i%4 == 0 {
			rng.Read(b)
		} else {
			for w := 0; w < 8; w++ {
				binary.BigEndian.PutUint64(b[8*w:], base|uint64(rng.Intn(1<<20)))
			}
		}
		blocks[i] = b
	}
	return blocks
}

// BenchmarkShardedThroughput compares aggregate op throughput of the
// sharded front-end's synchronous Read/Write (inline on the caller's
// goroutine, one shard lock per op) under 8 concurrent clients against a
// single-goroutine unsharded controller on the same traffic mix. On a
// multi-core machine the 8-shard run should scale well past 2x; on one
// core it degenerates to the locking overhead, which this bench also
// quantifies. scripts/benchsmoke.sh gates sharded-8g and
// sharded-8g-traceoff against their merge-base numbers.
func BenchmarkShardedThroughput(b *testing.B) {
	const (
		goroutines = 8
		footprint  = 1 << 13 // blocks: 512 KB, 8x the bench LLC
	)
	memCfg := cop.MemoryConfig{Mode: cop.ModeCOP, LLCBytes: 64 * 1024, LLCWays: 8}
	blocks := shardedTrafficBlocks(footprint)

	// worker issues ops/g mixed reads and writes over a private address walk.
	worker := func(read func(uint64) ([]byte, error), write func(uint64, []byte) error, seed int64, ops int) error {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < ops; i++ {
			idx := rng.Intn(footprint)
			addr := uint64(idx) * cop.BlockBytes
			if i%3 == 0 {
				if err := write(addr, blocks[idx]); err != nil {
					return err
				}
			} else if _, err := read(addr); err != nil {
				return err
			}
		}
		return nil
	}

	b.Run("unsharded-1g", func(b *testing.B) {
		m := cop.NewMemory(memCfg)
		b.SetBytes(cop.BlockBytes)
		if err := worker(m.Read, m.Write, 1, b.N); err != nil {
			b.Fatal(err)
		}
	})
	runSharded := func(b *testing.B, cfg cop.MemoryConfig) {
		m := cop.NewBatchedMemory(cop.BatchedMemoryConfig{Mem: cfg, Shards: goroutines})
		defer m.Close()
		b.SetBytes(cop.BlockBytes)
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(seed int64, ops int) {
				defer wg.Done()
				if err := worker(m.Read, m.Write, seed, ops); err != nil {
					errs <- err
				}
			}(int64(g+1), (b.N+goroutines-1)/goroutines)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			b.Fatal(err)
		}
	}
	b.Run("sharded-8g", func(b *testing.B) { runSharded(b, memCfg) })
	// Same traffic with an execution-trace recorder attached but not
	// started: guards the promised disabled-tracing cost (one nil check +
	// one atomic load per record site) against regressions.
	b.Run("sharded-8g-traceoff", func(b *testing.B) {
		cfg := memCfg
		cfg.Tracer = cop.NewTracer(cop.TraceConfig{})
		runSharded(b, cfg)
	})
}

// BenchmarkBatchedThroughput drives the sharded front-end with the exact
// traffic mix of BenchmarkShardedThroughput/sharded-8g (same seeds, same
// footprint) but through groups with a window of outstanding operations,
// so each Wait executes its window with one lock acquisition per touched
// shard. batched-8g runs 8 clients over 8 shards; scripts/benchsmoke.sh
// gates it against its merge-base number. batched-1g8s issues the same
// 128-op windows from one client: every window executes on that one
// goroutine, so it measures what a lone caller pays when no other core
// runs its shards.
func BenchmarkBatchedThroughput(b *testing.B) {
	const (
		shards    = 8
		footprint = 1 << 13 // blocks: 512 KB, 8x the bench LLC
		window    = 128     // outstanding ops per client between Waits
	)
	memCfg := cop.MemoryConfig{Mode: cop.ModeCOP, LLCBytes: 64 * 1024, LLCWays: 8}
	blocks := shardedTrafficBlocks(footprint)

	run := func(b *testing.B, goroutines int) {
		m := cop.NewBatchedMemory(cop.BatchedMemoryConfig{Mem: memCfg, Shards: shards})
		defer m.Close()
		b.SetBytes(cop.BlockBytes)
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(seed int64, ops int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				grp := m.NewGroup()
				dst := make([]byte, window*cop.BlockBytes) // one slot per in-flight read
				for i := 0; i < ops; i++ {
					idx := rng.Intn(footprint)
					addr := uint64(idx) * cop.BlockBytes
					w := i % window
					if i%3 == 0 {
						grp.Write(addr, blocks[idx])
					} else {
						grp.Read(dst[w*cop.BlockBytes:(w+1)*cop.BlockBytes], addr)
					}
					if w == window-1 {
						if err := grp.Wait(); err != nil {
							errs <- err
							return
						}
					}
				}
				if err := grp.Wait(); err != nil {
					errs <- err
				}
			}(int64(g+1), (b.N+goroutines-1)/goroutines)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			b.Fatal(err)
		}
	}
	b.Run("batched-8g", func(b *testing.B) { run(b, 8) })
	b.Run("batched-1g8s", func(b *testing.B) { run(b, 1) })
}

// BenchmarkMigrationOverhead drives the exact traffic mix of
// BenchmarkBatchedThroughput/batched-8g with the patrol scrubber active
// the whole run: the steady-state cost background scrubbing imposes on the
// hot path (per-chunk shard-lock acquisitions interleaving with batches).
// scripts/benchsmoke.sh gates scrub-8g so a scrubber-active memory stays
// within the regression tolerance of the batched-8g baseline.
func BenchmarkMigrationOverhead(b *testing.B) {
	const (
		goroutines = 8
		footprint  = 1 << 13 // blocks: 512 KB, 8x the bench LLC
		window     = 128     // outstanding ops per client between Waits
	)
	memCfg := cop.MemoryConfig{Mode: cop.ModeCOP, LLCBytes: 64 * 1024, LLCWays: 8}
	blocks := shardedTrafficBlocks(footprint)

	b.Run("scrub-8g", func(b *testing.B) {
		m := cop.NewBatchedMemory(cop.BatchedMemoryConfig{Mem: memCfg, Shards: goroutines})
		defer m.Close()
		scrub := cop.NewScrubber(m, cop.ScrubOptions{}) // default 1ms patrol
		scrub.Start()
		defer scrub.Stop()
		b.SetBytes(cop.BlockBytes)
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(seed int64, ops int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed))
				grp := m.NewGroup()
				dst := make([]byte, window*cop.BlockBytes)
				for i := 0; i < ops; i++ {
					idx := rng.Intn(footprint)
					addr := uint64(idx) * cop.BlockBytes
					w := i % window
					if i%3 == 0 {
						grp.Write(addr, blocks[idx])
					} else {
						grp.Read(dst[w*cop.BlockBytes:(w+1)*cop.BlockBytes], addr)
					}
					if w == window-1 {
						if err := grp.Wait(); err != nil {
							errs <- err
							return
						}
					}
				}
				if err := grp.Wait(); err != nil {
					errs <- err
				}
			}(int64(g+1), (b.N+goroutines-1)/goroutines)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			b.Fatal(err)
		}
	})
}

// BenchmarkExtensionChipkillER measures COP-CK-ER: chip-failure recovery
// across ALL blocks (inline and region-backed) on a float-heavy workload
// where plain COP-CK covers almost nothing inline.
func BenchmarkExtensionChipkillER(b *testing.B) {
	p := workload.MustGet("lbm")
	blocks := p.SampleBlocks(200, 0xCE)
	var inlinePct, recovery float64
	for i := 0; i < b.N; i++ {
		er := cop.NewChipkillERCodec()
		type stored struct{ plain, image []byte }
		var set []stored
		inline := 0
		for _, blk := range blocks {
			img, _, isInline, err := er.Write(blk, cop.NoPointer)
			if err != nil {
				b.Fatal(err)
			}
			if isInline {
				inline++
			}
			set = append(set, stored{blk, img})
		}
		recovered, trials := 0, 0
		for chip := 0; chip < 8; chip++ {
			for _, s := range set {
				img := append([]byte(nil), s.image...)
				cop.FailChip(img, chip, 0x5A)
				got, _, err := er.Read(img)
				trials++
				if err == nil && bytes.Equal(got, s.plain) {
					recovered++
				}
			}
		}
		inlinePct = 100 * float64(inline) / float64(len(set))
		recovery = 100 * float64(recovered) / float64(trials)
	}
	b.ReportMetric(inlinePct, "inline_pct")
	b.ReportMetric(recovery, "chip_recovery_pct")
}
