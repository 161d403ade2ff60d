// Command coptrace generates and summarizes the synthetic workload traces
// the experiments run on (the repo's substitute for Pin/Sniper captures of
// SPEC CPU2006 and PARSEC).
//
// Terminology: a *workload trace* (this command) is an input — the
// addresses and block contents a benchmark would drive through the model.
// An *execution trace* (copbench -trace-out, cmd/copdump,
// internal/trace) is an output — the flight-recorder record of what the
// hierarchy did while serving those accesses. They share nothing but the
// word "trace".
//
// Usage:
//
//	coptrace -list                    # registered benchmarks
//	coptrace -bench mcf -epochs 1000  # summarize a trace
//	coptrace -bench mcf -dump 20      # dump the first 20 epochs
//	coptrace -bench mcf -o mcf.copt   # archive a binary trace
//	coptrace -in mcf.copt             # summarize an archived trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cop"
	"cop/internal/cli"
	"cop/internal/core"
	"cop/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "coptrace:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("coptrace", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		list    = fs.Bool("list", false, "list benchmarks and exit")
		bench   = cli.WorkloadFlag(fs, "bench", "", "benchmark name")
		epochs  = fs.Int("epochs", 1000, "epochs to generate")
		dump    = fs.Int("dump", 0, "dump the first N epochs in full")
		seed    = cli.SeedFlag(fs, "seed", 0, "trace seed")
		outPath = fs.String("o", "", "write a binary trace archive to this path")
		inPath  = fs.String("in", "", "summarize a binary trace archive instead of generating")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, p := range workload.All() {
			tag := " "
			if p.MemoryIntensive {
				tag = "*"
			}
			fmt.Fprintf(stdout, "%s %-14s %-13s footprint=%-8d MPKI=%-5.1f IPC=%.1f\n",
				tag, p.Name, p.Suite, p.FootprintBlocks, p.MPKI, p.PerfectIPC)
		}
		fmt.Fprintln(stdout, "\n* = memory-intensive (Table 2)")
		return nil
	}

	if *inPath != "" {
		return summarizeArchive(stdout, *inPath)
	}
	if *bench == "" {
		return fmt.Errorf("usage: coptrace -bench <name> [-epochs N] [-dump N] [-o file] | -in file | -list")
	}
	p, err := workload.Get(*bench)
	if err != nil {
		return err
	}
	if *outPath != "" {
		return writeArchive(stdout, p, *epochs, *seed, *outPath)
	}
	return summarize(stdout, p, *epochs, *dump, *seed)
}

func summarizeArchive(stdout io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	name, eps, err := workload.ReadTrace(f)
	if err != nil {
		return err
	}
	var instr, misses, wbs uint64
	for _, ep := range eps {
		instr += ep.Instructions
		misses += uint64(len(ep.Misses))
		wbs += uint64(len(ep.Writebacks))
	}
	fmt.Fprintf(stdout, "archive:      %s\n", path)
	fmt.Fprintf(stdout, "benchmark:    %s\n", name)
	fmt.Fprintf(stdout, "epochs:       %d\n", len(eps))
	fmt.Fprintf(stdout, "instructions: %d\n", instr)
	fmt.Fprintf(stdout, "L3 misses:    %d (MPKI %.2f)\n", misses, float64(misses)/float64(instr)*1000)
	fmt.Fprintf(stdout, "writebacks:   %d\n", wbs)
	return nil
}

func writeArchive(stdout io.Writer, p *workload.Profile, epochs int, seed uint64, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := workload.WriteTrace(f, p, epochs, seed); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d epochs of %s to %s (%d bytes)\n", epochs, p.Name, path, st.Size())
	return nil
}

func summarize(stdout io.Writer, p *workload.Profile, epochs, dump int, seed uint64) error {
	codec := cop.NewCodec(cop.Config4())
	tr := p.NewTrace(seed)
	var instr, misses, wbs, comp uint64
	distinct := map[uint64]bool{}
	for e := 0; e < epochs; e++ {
		ep := tr.Next()
		instr += ep.Instructions
		misses += uint64(len(ep.Misses))
		wbs += uint64(len(ep.Writebacks))
		if e < dump {
			fmt.Fprintf(stdout, "epoch %d: %d instr\n", e, ep.Instructions)
			for _, m := range ep.Misses {
				fmt.Fprintf(stdout, "  miss  %#010x v%d\n", m.Addr, m.Version)
			}
			for _, w := range ep.Writebacks {
				fmt.Fprintf(stdout, "  wback %#010x v%d\n", w.Addr, w.Version)
			}
		}
		for _, m := range ep.Misses {
			distinct[m.Addr] = true
			if codec.Classify(p.Block(m.Addr, m.Version)) == core.StoredCompressed {
				comp++
			}
		}
	}
	fmt.Fprintf(stdout, "\nbenchmark:        %s (%s)\n", p.Name, p.Suite)
	fmt.Fprintf(stdout, "epochs:           %d\n", epochs)
	fmt.Fprintf(stdout, "instructions:     %d\n", instr)
	fmt.Fprintf(stdout, "L3 misses:        %d (MPKI %.2f; profile %.2f)\n",
		misses, float64(misses)/float64(instr)*1000, p.MPKI)
	fmt.Fprintf(stdout, "writebacks:       %d (%.1f%% of misses)\n", wbs, 100*float64(wbs)/float64(misses))
	fmt.Fprintf(stdout, "distinct blocks:  %d of %d footprint\n", len(distinct), p.FootprintBlocks)
	fmt.Fprintf(stdout, "COP-compressible: %.1f%% of missed blocks\n", 100*float64(comp)/float64(misses))
	return nil
}
