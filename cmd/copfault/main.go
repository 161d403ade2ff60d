// Command copfault runs fault-injection campaigns against the functional
// protected-memory model: populate memory with a benchmark's content,
// settle it to DRAM, inject single-bit soft errors, and tally corrected /
// silent / detected outcomes per protection mode.
//
// Usage:
//
//	copfault                                   # defaults: gcc, all modes
//	copfault -bench lbm -blocks 4096 -flips 5000
//	copfault -mode cop-er -seed 7
//	copfault -trace-out trace.json             # + execution trace & black-box dumps
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"cop"
	"cop/internal/cli"
	"cop/internal/memctrl"
	"cop/internal/trace"
	"cop/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "copfault:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("copfault", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		bench    = cli.WorkloadFlag(fs, "bench", "gcc", "workload supplying block contents")
		blocks   = fs.Int("blocks", 2048, "blocks to populate")
		flips    = fs.Int("flips", 3000, "single-bit faults to inject")
		mode     = cli.SchemeFlag(fs, "mode", "all", "protection mode")
		seed     = cli.SeedFlag(fs, "seed", 0xFA117, "injection PRNG seed")
		chipFail = fs.Bool("chipfail", false, "inject whole-chip failures instead of single-bit flips")
		traceOut = cli.TraceOutFlag(fs, "write a Chrome trace-event JSON execution trace of the campaigns here; "+
			"the first silent corruption per mode freezes a black-box dump beside it")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var tracer *trace.Tracer
	if *traceOut != "" {
		tracer = trace.New(trace.Config{})
	}
	p, err := workload.Get(*bench)
	if err != nil {
		return err
	}

	schemes, err := cli.ParseSchemes(*mode)
	if err != nil {
		return err
	}

	kind := "single-bit flips"
	if *chipFail {
		kind = "whole-chip failures"
	}
	fmt.Fprintf(stdout, "workload=%s blocks=%d faults=%d (%s) seed=%#x\n\n", p.Name, *blocks, *flips, kind, *seed)
	fmt.Fprintf(stdout, "%-14s %10s %10s %10s %12s\n", "mode", "corrected", "silent", "detected", "silent rate")
	for _, sc := range schemes {
		var dumpsBefore uint64
		if tracer != nil {
			dumpsBefore = tracer.Dumps()
			dumpPath := fmt.Sprintf("%s.%s.dump", *traceOut, sc.Name)
			tracer.OnAnomaly(func(d *trace.Dump) {
				if f, err := os.Create(dumpPath); err == nil {
					_, _ = d.WriteTo(f)
					f.Close()
				}
			})
			tracer.Reset()
			tracer.Start()
		}
		res, err := campaign(p, sc.Mode, *blocks, *flips, *seed, *chipFail, tracer)
		if err != nil {
			return err
		}
		total := res.corrected + res.silent + res.detected
		fmt.Fprintf(stdout, "%-14s %10d %10d %10d %11.2f%%\n",
			sc.Name, res.corrected, res.silent, res.detected, 100*float64(res.silent)/float64(total))
		if tracer != nil && tracer.Dumps() > dumpsBefore {
			fmt.Fprintf(stdout, "%-14s black-box dump: %s.%s.dump\n", "", *traceOut, sc.Name)
		}
	}
	if tracer != nil {
		tracer.Stop()
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		if err := trace.ExportChromeJSON(f, tracer.Snapshot()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nexecution trace: %s (open in https://ui.perfetto.dev or chrome://tracing)\n", *traceOut)
	}
	return nil
}

type campaignResult struct {
	corrected, silent, detected int
}

// xorshift for deterministic injection independent of math/rand.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func campaign(p *workload.Profile, mode memctrl.Mode, blocks, flips int, seed uint64, chipFail bool, tracer *trace.Tracer) (campaignResult, error) {
	mem := cop.NewMemory(cop.MemoryConfig{Mode: mode, LLCBytes: 64 * 1024, LLCWays: 8, Tracer: tracer})
	ref := make(map[uint64][]byte, blocks)
	for i := 0; i < blocks; i++ {
		addr := uint64(i) * cop.BlockBytes
		data := p.Block(addr, 0)
		ref[addr] = data
		if err := mem.Write(addr, data); err != nil {
			return campaignResult{}, err
		}
	}
	if err := mem.Flush(); err != nil {
		return campaignResult{}, err
	}

	r := &rng{s: seed | 1}
	var res campaignResult
	for i := 0; i < flips; i++ {
		addr := (r.next() % uint64(blocks)) * cop.BlockBytes
		bit := int(r.next() % (8 * cop.BlockBytes))
		if chipFail {
			if !mem.InjectChipFailure(addr, bit%8, byte(r.next())) {
				continue
			}
		} else if !mem.InjectBitFlip(addr, bit) {
			continue
		}
		before := mem.Snapshot().Controller.CorrectedErrors
		got, err := mem.Read(addr)
		switch {
		case err != nil:
			res.detected++
		case !bytes.Equal(got, ref[addr]):
			res.silent++
			// Wrong data, no error: the flight-recorder black box for
			// exactly this moment (first silent corruption wins).
			tracer.TriggerAnomaly(trace.ReasonSilentCorruption, addr)
		case mem.Snapshot().Controller.CorrectedErrors > before:
			res.corrected++
		}
		// Restore a clean DRAM image for the next trial.
		mem.LLC().Evict(addr)
		if !chipFail && err == nil && bytes.Equal(got, ref[addr]) {
			mem.InjectBitFlip(addr, bit) // undo the latent flip
		} else {
			if werr := mem.Write(addr, ref[addr]); werr != nil {
				return campaignResult{}, werr
			}
			if werr := mem.Flush(); werr != nil {
				return campaignResult{}, werr
			}
		}
	}
	return res, nil
}
