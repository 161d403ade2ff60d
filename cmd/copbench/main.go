// Command copbench regenerates the paper's evaluation: every table and
// figure, or a selected one.
//
// Usage:
//
//	copbench -exp all                # everything (minutes)
//	copbench -exp fig9               # one experiment
//	copbench -exp fig11 -epochs 8000 # more simulation fidelity
//	copbench -exp fig9 -format csv   # machine-readable output
//	copbench -list                   # available experiment ids
//	copbench -parallel 8             # sharded-memory throughput + drain demo
//	copbench -faults                 # fault-injection campaign (all schemes)
//	copbench -faults -fault-scheme cop-er -fault-injections 20000
//	copbench -trace-out trace.json   # traced demo workload -> Perfetto JSON
//	copbench -faults -trace-out t.json -fault-scheme unprotected  # traced campaign
package main

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cop"
	"cop/internal/cli"
	"cop/internal/dram"
	"cop/internal/shard"
	"cop/internal/telemetry"
	"cop/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "copbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("copbench", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		exp      = fs.String("exp", "all", "experiment id or 'all'")
		list     = fs.Bool("list", false, "list experiment ids and exit")
		samples  = fs.Int("samples", 0, "blocks sampled per benchmark (0: default 20000)")
		aliasN   = fs.Int("alias-samples", 0, "Monte-Carlo samples for alias census (0: default 2e6)")
		epochs   = fs.Int("epochs", 0, "epochs per core for sim/reliability runs (0: default 3000)")
		format   = fs.String("format", "text", "output format: text, csv, or chart")
		chartCol = fs.Int("chart-col", -1, "column to chart in -format chart (negative: from the end)")
		outPath  = fs.String("o", "", "also write the report(s) to this file")
		parallel = fs.Int("parallel", 0, "run the sharded-memory throughput comparison (synchronous calls and group windows) and drain demo with this many goroutines and exit")
		parOps   = fs.Int("parallel-ops", 200000, "total memory operations for the -parallel comparison")
		migDemo  = fs.Bool("migrate", false, "run the live-reconfiguration demo (scheme migration + resharding + patrol scrub under traffic) and exit")
		faults   = fs.Bool("faults", false, "run the fault-injection campaign and exit")
		fScheme  = cli.SchemeFlag(fs, "fault-scheme", "all", "campaign scheme(s), comma list")
		fSeed    = cli.SeedFlag(fs, "fault-seed", 0xC0FFEE, "campaign seed (same seed, same table)")
		fInject  = fs.Int("fault-injections", 10000, "fault events per campaign across the five field failure modes")
		fWorkers = cli.WorkersFlag(fs, "fault-workers", "concurrent campaign workers over disjoint footprint slices")
		fLoad    = cli.WorkloadFlag(fs, "fault-workload", "gcc", "workload profile populating the footprint")
		telAddr  = cli.TelemetryAddrFlag(fs)
		traceOut = fs.String("trace-out", "", "write a Chrome trace-event JSON execution trace here "+
			"(alone: run the traced demo workload; with -faults: trace the campaign, black-box dumps land beside it)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The flight recorder is shared by the trace demo, fault campaigns,
	// and the /trace.* telemetry endpoints.
	var tracer *cop.Tracer
	if *traceOut != "" {
		tracer = cop.NewTracer(cop.TraceConfig{Shards: traceDemoShards + 1})
	}

	// One observability server for the whole invocation; the registry is
	// pointed at whichever memory is live (see runParallel / runFaults).
	telReg := &telemetry.Registry{}
	if bound, err := cli.ServeTelemetry(*telAddr, telReg, tracer); err != nil {
		return err
	} else if bound != "" {
		fmt.Fprintf(stdout, "telemetry: http://%s/metrics /snapshot /debug/pprof\n", bound)
	}

	if *list {
		for _, id := range cop.Experiments() {
			fmt.Fprintln(stdout, id)
		}
		return nil
	}

	if *migDemo {
		return runMigrate(stdout, telReg, *parallel)
	}

	if *parallel > 0 {
		return runParallel(stdout, telReg, *parallel, *parOps)
	}

	if *faults {
		return runFaults(stdout, telReg, tracer, *traceOut, *fScheme, *fSeed, *fInject, *fWorkers, *fLoad)
	}

	if *traceOut != "" {
		return runTraceDemo(stdout, telReg, tracer, *traceOut)
	}

	out := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = io.MultiWriter(stdout, f)
	}

	opts := cop.ExperimentOptions{Samples: *samples, AliasSamples: *aliasN, Epochs: *epochs}
	ids := []string{*exp}
	if *exp == "all" {
		ids = cop.Experiments()
	}
	for _, id := range ids {
		start := time.Now()
		r, err := cop.RunExperiment(id, opts)
		if err != nil {
			return err
		}
		switch *format {
		case "csv":
			fmt.Fprintf(out, "# %s — %s\n%s\n", r.ID, r.Title, r.CSV())
		case "chart":
			fmt.Fprintln(out, r.Chart(*chartCol, 48))
		case "text":
			fmt.Fprintln(out, r.Format())
			fmt.Fprintf(out, "(%s in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
		default:
			return fmt.Errorf("unknown -format %q", *format)
		}
	}
	if *exp == "all" && *format != "text" {
		return nil
	}
	if *exp == "all" {
		fmt.Fprintln(out, strings.Repeat("-", 60))
		fmt.Fprintln(out, "All experiments regenerated. Paper-vs-measured commentary: EXPERIMENTS.md")
	}
	return nil
}

// runFaults runs the seeded fault-injection campaign (see
// internal/faultsim) for each requested scheme and prints the per-failure-
// mode outcome tables. The telemetry registry tracks the campaign in
// flight (each campaign re-points it at its own memory). With a tracer,
// each campaign records into a freshly reset flight recorder; the first
// silent corruption freezes it and the black-box dump is written to
// <traceOut>.<scheme>.dump, and the final campaign's full rings go to
// traceOut as Chrome trace-event JSON.
func runFaults(out io.Writer, telReg *telemetry.Registry, tracer *cop.Tracer, traceOut, schemeArg string, seed uint64, injections, workers int, workloadName string) error {
	schemes, err := cli.ParseSchemes(schemeArg)
	if err != nil {
		return err
	}
	for _, sc := range schemes {
		if tracer != nil {
			dumpPath := fmt.Sprintf("%s.%s.dump", traceOut, sc.Name)
			tracer.OnAnomaly(func(d *cop.TraceDump) {
				if f, err := os.Create(dumpPath); err == nil {
					_, _ = d.WriteTo(f)
					f.Close()
				}
			})
			tracer.Reset()
			tracer.Start()
		}
		start := time.Now()
		res, err := cop.FaultCampaign(cop.FaultCampaignConfig{
			Mode:          sc.Mode,
			Seed:          seed,
			Injections:    injections,
			Workers:       workers,
			Parallel:      workers > 1,
			Workload:      workloadName,
			ObserveMemory: telReg.Set,
			Tracer:        tracer,
		})
		if err != nil {
			return fmt.Errorf("campaign %s: %v", sc.Name, err)
		}
		fmt.Fprint(out, res.Table())
		if tracer != nil && res.TraceDumps > 0 {
			fmt.Fprintf(out, "black-box dump (%d anomaly freeze(s)): %s.%s.dump\n", res.TraceDumps, traceOut, sc.Name)
		}
		fmt.Fprintf(out, "(%s in %v)\n\n", sc.Name, time.Since(start).Round(time.Millisecond))
	}
	if tracer != nil {
		tracer.Stop()
		if err := writeChromeTrace(traceOut, tracer); err != nil {
			return err
		}
		fmt.Fprintf(out, "execution trace: %s (open in https://ui.perfetto.dev or chrome://tracing)\n", traceOut)
	}
	return nil
}

// traceDemoShards is the shard count of the -trace-out demo memory; the
// demo tracer reserves one extra ring for the DRAM command stream.
const traceDemoShards = 4

// runTraceDemo drives a short mixed workload through a traced sharded
// memory plus a DRAM command-stream model and writes the resulting
// execution trace as Chrome trace-event JSON: per-shard/per-layer tracks
// in logical ticks, per-bank DRAM tracks in bus cycles, flow arrows
// tying accesses across layers.
func runTraceDemo(out io.Writer, telReg *telemetry.Registry, tracer *cop.Tracer, path string) error {
	tracer.Start()
	st, err := cop.Open(cop.WithMode(cop.ModeCOP), cop.WithLLC(64*1024, 8), cop.WithTracer(tracer),
		cop.WithShards(traceDemoShards), cop.WithTelemetryRegistry(telReg))
	if err != nil {
		return err
	}
	mem := st.(*cop.BatchedMemory)
	defer mem.Close()
	p, err := workload.Get("gcc")
	if err != nil {
		return err
	}
	dramSys := dram.New(dram.DefaultConfig())
	dramSys.AttachTracer(tracer.Handle(traceDemoShards))

	// Footprint past the LLC so the trace carries misses, evictions, and
	// writebacks, not just hits. Every eighth access also issues a DRAM
	// request tagged with the access's flow id, so the bus-cycle tracks
	// join the logical-tick tracks through flow arrows.
	const blocks = 4096
	const ops = 12000
	var (
		now   uint64
		batch []dram.Request
	)
	flush := func() {
		for _, fin := range dramSys.ServiceBatch(now, batch) {
			if fin > now {
				now = fin
			}
		}
		batch = batch[:0]
	}
	for i := 0; i < blocks; i++ {
		addr := uint64(i) * cop.BlockBytes
		if err := mem.Write(addr, p.Block(addr, 0)); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(0x7ACE))
	for i := 0; i < ops; i++ {
		addr := uint64(rng.Intn(blocks)) * cop.BlockBytes
		if i%3 == 0 {
			if err := mem.Write(addr, p.Block(addr, uint32(i))); err != nil {
				return err
			}
		} else if _, err := mem.Read(addr); err != nil {
			return err
		}
		batch = append(batch, dram.Request{Addr: addr, Write: i%3 == 0, Flow: tracer.LastFlow()})
		if len(batch) == 8 {
			flush()
		}
	}
	if len(batch) > 0 {
		flush()
	}
	tracer.Stop()
	if err := writeChromeTrace(path, tracer); err != nil {
		return err
	}
	fmt.Fprintf(out, "execution trace: %d records (of %d recorded) -> %s\n",
		len(tracer.Snapshot()), tracer.TotalRecords(), path)
	fmt.Fprintln(out, "open in https://ui.perfetto.dev or chrome://tracing")
	return nil
}

// writeChromeTrace exports the tracer's ring contents to path as Chrome
// trace-event JSON.
func writeChromeTrace(path string, tracer *cop.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := cop.ExportChromeTrace(f, tracer.Snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runParallel measures aggregate throughput of the sharded memory model
// driven by n goroutines against a single-goroutine unsharded controller on
// the same traffic mix (2/3 reads, 1/3 writes, mixed compressibility, COP
// mode): one row for synchronous calls, one for the same traffic submitted
// through asynchronous group windows. It then demonstrates Drain: quiesce
// every shard to a fenced, flushed state and resume.
func runParallel(out io.Writer, telReg *telemetry.Registry, n, totalOps int) error {
	if totalOps < n {
		totalOps = n
	}
	const footprint = 1 << 13 // blocks (512 KB), well past the 64 KB LLC below
	memCfg := cop.MemoryConfig{Mode: cop.ModeCOP, LLCBytes: 64 * 1024, LLCWays: 8}

	rng := rand.New(rand.NewSource(0x0C0B))
	blocks := make([][]byte, footprint)
	for i := range blocks {
		b := make([]byte, cop.BlockBytes)
		if i%4 == 0 {
			rng.Read(b)
		} else {
			for w := 0; w < 8; w++ {
				binary.BigEndian.PutUint64(b[8*w:], 0x00007F00_00000000|uint64(rng.Intn(1<<20)))
			}
		}
		blocks[i] = b
	}

	worker := func(read func(uint64) ([]byte, error), write func(uint64, []byte) error, seed int64, ops int) error {
		wr := rand.New(rand.NewSource(seed))
		for i := 0; i < ops; i++ {
			idx := wr.Intn(footprint)
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

	single := cop.NewMemory(memCfg)
	telReg.Set(single)
	start := time.Now()
	if err := worker(single.Read, single.Write, 1, totalOps); err != nil {
		return err
	}
	singleDur := time.Since(start)

	// Each sharded row gets a fresh memory. -parallel takes a free
	// goroutine count; shard counts must be powers of two, so round up
	// (the config rules reject anything else).
	const window = 128
	openSharded := func() (*cop.BatchedMemory, error) {
		st, err := cop.Open(cop.WithMemoryConfig(memCfg), cop.WithShards(shard.NextPow2(n)),
			cop.WithTelemetryRegistry(telReg))
		if err != nil {
			return nil, err
		}
		return st.(*cop.BatchedMemory), nil
	}
	// runGoroutines runs fn on n goroutines, totalOps/n ops each, and
	// returns the wall time and the first error.
	runGoroutines := func(fn func(seed int64, ops int) error) (time.Duration, error) {
		var wg sync.WaitGroup
		errs := make(chan error, n)
		start := time.Now()
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				if err := fn(seed, totalOps/n); err != nil {
					errs <- err
				}
			}(int64(g + 1))
		}
		wg.Wait()
		d := time.Since(start)
		close(errs)
		return d, <-errs
	}

	sharded, err := openSharded()
	if err != nil {
		return err
	}
	shardedDur, err := runGoroutines(func(seed int64, ops int) error {
		return worker(sharded.Read, sharded.Write, seed, ops)
	})
	sharded.Close()
	if err != nil {
		return err
	}
	opsPerSec := func(ops int, d time.Duration) float64 { return float64(ops) / d.Seconds() }
	sOps := opsPerSec(totalOps, singleDur)
	pOps := opsPerSec(totalOps/n*n, shardedDur)
	fmt.Fprintf(out, "Sharded-memory throughput (COP mode, %d ops, %d-block footprint)\n", totalOps, footprint)
	fmt.Fprintf(out, "  unsharded, 1 goroutine:   %10.0f ops/s  (%v)\n", sOps, singleDur.Round(time.Millisecond))
	fmt.Fprintf(out, "  %2d shards, %2d goroutines: %10.0f ops/s  (%v)  synchronous calls\n", sharded.NumShards(), n, pOps, shardedDur.Round(time.Millisecond))
	fmt.Fprintf(out, "  speedup: %.2fx\n", pOps/sOps)

	// The same traffic issued through groups with a window of outstanding
	// operations per goroutine, so each Wait executes its window with one
	// lock acquisition per touched shard.
	bm, err := openSharded()
	if err != nil {
		return err
	}
	defer bm.Close()
	batchedDur, err := runGoroutines(func(seed int64, ops int) error {
		wr := rand.New(rand.NewSource(seed))
		grp := bm.NewGroup()
		dst := make([]byte, window*cop.BlockBytes)
		for i := 0; i < ops; i++ {
			idx := wr.Intn(footprint)
			addr := uint64(idx) * cop.BlockBytes
			w := i % window
			if i%3 == 0 {
				grp.Write(addr, blocks[idx])
			} else {
				grp.Read(dst[w*cop.BlockBytes:(w+1)*cop.BlockBytes], addr)
			}
			if w == window-1 {
				if err := grp.Wait(); err != nil {
					return err
				}
			}
		}
		return grp.Wait()
	})
	if err != nil {
		return err
	}
	bOps := opsPerSec(totalOps/n*n, batchedDur)
	fmt.Fprintf(out, "  %2d shards, %2d goroutines: %10.0f ops/s  (%v)  %d-op group windows, vs synchronous: %.2fx\n",
		bm.NumShards(), n, bOps, batchedDur.Round(time.Millisecond), window, bOps/pOps)

	// Drain demo: quiesce every shard to a fenced, flushed state (the live
	// scheme-migration handoff point), verify, and resume.
	start = time.Now()
	if err := bm.Drain(); err != nil {
		return err
	}
	fmt.Fprintf(out, "  drain: fenced + flushed in %v (quiesced=%v)\n",
		time.Since(start).Round(time.Microsecond), bm.Quiesced())
	bm.Resume()
	snap := bm.Snapshot()
	if snap.Batch != nil {
		fmt.Fprintf(out, "  batches: %d (max depth %d), drains: %d\n",
			snap.Batch.Batches, snap.Batch.MaxDepth, snap.Batch.Drains)
	}
	return nil
}

// runMigrate demonstrates online reconfiguration: a batched COP-4 memory
// under continuous mixed traffic and an aggressive patrol scrubber is
// live-migrated COP-4 -> COP-8 -> ECC-region -> COP-4 and elastically
// resharded 4 -> 8 -> 4, with every read verified against an in-memory
// oracle, then the whole footprint is swept once more at the end. A read
// mismatch at any point is a hard failure — this is the demo the CI race
// job drives.
func runMigrate(out io.Writer, telReg *telemetry.Registry, n int) error {
	if n <= 0 {
		n = 4
	}
	const footprint = 1 << 12 // blocks (256 KB), past the 64 KB LLC below
	memCfg := cop.MemoryConfig{Mode: cop.ModeCOP, LLCBytes: 64 * 1024, LLCWays: 8}
	st, err := cop.Open(cop.WithMemoryConfig(memCfg), cop.WithShards(4), cop.WithTelemetryRegistry(telReg))
	if err != nil {
		return err
	}
	bm := st.(*cop.BatchedMemory)
	defer bm.Close()

	rng := rand.New(rand.NewSource(0x316))
	blocks := make([][]byte, footprint)
	for i := range blocks {
		b := make([]byte, cop.BlockBytes)
		if i%4 == 0 {
			rng.Read(b)
		} else {
			for w := 0; w < 8; w++ {
				binary.BigEndian.PutUint64(b[8*w:], 0x00007F00_00000000|uint64(rng.Intn(1<<20)))
			}
		}
		blocks[i] = b
		if err := bm.Write(uint64(i)*cop.BlockBytes, b); err != nil {
			return err
		}
	}
	if err := bm.Flush(); err != nil {
		return err
	}

	scrub := cop.NewScrubber(bm, cop.ScrubOptions{})
	scrub.Start()
	defer scrub.Stop()

	// Traffic workers rewrite and re-read oracle content for the whole
	// storyline; a write always stores the block's fixed oracle content, so
	// every read — mid-migration, mid-reshard, or after — must match it.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var trafficOps, mismatches atomic.Int64
	werrs := make(chan error, n)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			wr := rand.New(rand.NewSource(seed))
			for ops := 0; ; ops++ {
				select {
				case <-stop:
					trafficOps.Add(int64(ops))
					return
				default:
				}
				idx := wr.Intn(footprint)
				addr := uint64(idx) * cop.BlockBytes
				if ops%3 == 0 {
					if err := bm.Write(addr, blocks[idx]); err != nil {
						werrs <- err
						return
					}
				} else {
					got, err := bm.Read(addr)
					if err != nil {
						werrs <- err
						return
					}
					if !bytes.Equal(got, blocks[idx]) {
						mismatches.Add(1)
					}
				}
			}
		}(int64(g + 1))
	}

	steps := []struct {
		label string
		fn    func() error
	}{
		{"migrate cop-4 -> cop-8", func() error { return cop.Migrate(bm, "cop-8", cop.MigrateOptions{ChunkBlocks: 64}) }},
		{"reshard 4 -> 8 shards", func() error { return cop.Reshard(bm, 8) }},
		{"migrate cop-8 -> ecc-region", func() error { return cop.Migrate(bm, "ecc-region", cop.MigrateOptions{ChunkBlocks: 64}) }},
		{"reshard 8 -> 4 shards", func() error { return cop.Reshard(bm, 4) }},
		{"migrate ecc-region -> cop-4", func() error { return cop.Migrate(bm, "cop-4", cop.MigrateOptions{ChunkBlocks: 64}) }},
	}
	fmt.Fprintf(out, "Live reconfiguration demo (%d traffic goroutines + patrol scrubber, %d-block footprint)\n", n, footprint)
	for _, st := range steps {
		start := time.Now()
		if err := st.fn(); err != nil {
			close(stop)
			wg.Wait()
			return fmt.Errorf("%s: %w", st.label, err)
		}
		fmt.Fprintf(out, "  %-28s %10v   (now %d shards, mode %v)\n",
			st.label, time.Since(start).Round(time.Microsecond), bm.NumShards(), bm.Mode())
	}

	close(stop)
	wg.Wait()
	close(werrs)
	for err := range werrs {
		return err
	}
	scrub.Stop()
	if err := bm.Drain(); err != nil {
		return err
	}
	bm.Resume()

	// Final sweep: every block must still decode to its oracle content.
	for i, want := range blocks {
		got, err := bm.Read(uint64(i) * cop.BlockBytes)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			mismatches.Add(1)
		}
	}
	snap := bm.Snapshot()
	fmt.Fprintf(out, "  traffic through it all: %d ops, read mismatches: %d\n", trafficOps.Load(), mismatches.Load())
	if m := snap.Migration; m != nil {
		fmt.Fprintf(out, "  migrations: %d (chunks %d, blocks re-encoded %d), reshards: %d (blocks moved %d)\n",
			m.SchemeMigrations, m.Chunks, m.BlocksMigrated, m.Reshards, m.BlocksMoved)
	}
	fmt.Fprintf(out, "  scrub: scans %d, corrected %d, uncorrectable %d\n",
		snap.Controller.ScrubScans, snap.Controller.ScrubCorrected, snap.Controller.ScrubUncorrectable)
	if mismatches.Load() != 0 {
		return fmt.Errorf("%d read mismatches during live reconfiguration", mismatches.Load())
	}
	return nil
}
