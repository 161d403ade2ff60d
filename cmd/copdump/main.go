// Command copdump reads execution-trace artifacts: the binary black-box
// dumps the flight recorder cuts on an anomaly (copbench -trace-out,
// /trace.bin) and, with -check, Chrome trace-event JSON too.
//
// Usage:
//
//	copdump trace.json.cop.dump            # summary + last 16 records
//	copdump -n 64 trace.json.cop.dump      # longer tail
//	copdump -check trace.json              # validate (binary or JSON)
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"cop/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "copdump:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("copdump", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		tail  = fs.Int("n", 16, "records of tail to print (0: all)")
		check = fs.Bool("check", false, "validate the file (binary dump or Chrome trace JSON) and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: copdump [-n N] [-check] <dump-file>")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	if *check {
		return runCheck(stdout, fs.Arg(0), data)
	}
	d, err := trace.ReadDump(bytes.NewReader(data))
	if err != nil {
		return err
	}
	printDump(stdout, d, *tail)
	return nil
}

// runCheck validates either artifact format, preferring the binary dump
// (its magic is unambiguous) and falling back to Chrome trace JSON.
func runCheck(out io.Writer, name string, data []byte) error {
	if d, err := trace.ReadDump(bytes.NewReader(data)); err == nil {
		fmt.Fprintf(out, "%s: binary dump ok (%d records, reason %s)\n", name, len(d.Records), d.Reason)
		return nil
	}
	n, err := trace.ValidateChromeJSON(data)
	if err != nil {
		return fmt.Errorf("%s: neither a binary dump nor valid Chrome trace JSON: %v", name, err)
	}
	fmt.Fprintf(out, "%s: Chrome trace JSON ok (%d events)\n", name, n)
	return nil
}

func printDump(out io.Writer, d *trace.Dump, tail int) {
	fmt.Fprintf(out, "reason: %s\n", d.Reason)
	fmt.Fprintf(out, "records: %d\n", len(d.Records))
	if d.Trigger.Kind != trace.KindNone {
		fmt.Fprintf(out, "trigger: %s\n", formatRecord(d.Trigger))
	}
	recs := d.Records
	if tail > 0 && len(recs) > tail {
		fmt.Fprintf(out, "last %d records (of %d):\n", tail, len(recs))
		recs = recs[len(recs)-tail:]
	} else {
		fmt.Fprintln(out, "records:")
	}
	for _, r := range recs {
		fmt.Fprintf(out, "  %s\n", formatRecord(r))
	}
}

// formatRecord renders one record on one line, kind-aware for the fields
// whose meaning varies (see the Kind doc in internal/trace).
func formatRecord(r trace.Record) string {
	s := fmt.Sprintf("t=%-8d shard=%d flow=%-6d %-12s addr=0x%-8x", r.Time, r.Shard, r.Flow, r.Kind, r.Addr)
	switch r.Kind {
	case trace.KindDRAMAct, trace.KindDRAMPre, trace.KindDRAMRead, trace.KindDRAMWrite:
		ch, rank, bank := trace.UnpackBank(r.Aux)
		s += fmt.Sprintf(" ch%d/rank%d/bank%d row=%d cycles=[%d,%d]", ch, rank, bank, r.Arg2, r.Arg0, r.Arg1)
	case trace.KindDecode:
		s += fmt.Sprintf(" valid-codewords=%d corrected=%d segmask=0x%x", r.Aux, r.Arg0, r.Arg2)
	case trace.KindUncorrectable:
		s += fmt.Sprintf(" valid-codewords=%d corrected=%d", r.Aux, r.Arg0)
	case trace.KindFaultInject:
		s += fmt.Sprintf(" mode=%d bits-flipped=%d trial=%d", r.Aux, r.Arg0, r.Arg1)
	case trace.KindRegionAlloc, trace.KindRegionFree:
		s += fmt.Sprintf(" ptr=%d live=%d", r.Arg0, r.Arg1)
	case trace.KindShardRoute:
		s += fmt.Sprintf(" outer=0x%x", r.Arg0)
	case trace.KindAnomaly:
		s += fmt.Sprintf(" reason=%s", trace.Reason(r.Aux))
	}
	if r.Flags != 0 {
		s += " flags=" + r.Flags.String()
	}
	return s
}
