// Command servebench is the repository's end-to-end benchmark: one process
// stands up an in-process copnet server with a cop-er tenant (2 shards,
// 1 MiB 16-way LLC) on a plaintext loopback listener and drives it from
// closed-loop workers, each a copnet client that sends its next 64-op
// frame only after the previous reply. Every get is checked against a
// shadow oracle the benchmark owns.
//
// Usage (from the repository root):
//
//	bash servebench/run.sh --workload spill-mixed --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run and its
// layer-by-layer ledger (see METRICS.md). The dram timing model, the sim
// package and TLS/h2 are not on this path and are not measured.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run (--trace 0).
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"frame_p50_us", "us"},
	{"frame_p99_us", "us"},
	{"stored_bytes_per_user_byte", "ratio"},
	{"heap_inuse_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run (--trace 1).
var perLayer = []metricDef{
	{"copnet.client_us_per_frame", "us"},
	{"copnet.read_us", "us"},
	{"copnet.parse_us", "us"},
	{"copnet.encode_us", "us"},
	{"copnet.write_us", "us"},
	{"copnet.bytes_per_op", "B"},
	{"copnet.pool_miss_frac", "frac"},
	{"copnet.self_ns_per_op", "ns"},
	{"copnet.share_of_wall", "frac"},
	{"shard.ring_wait_us", "us"},
	{"shard.window_us", "us"},
	{"shard.ops_per_batch", "count"},
	{"shard.self_ns_per_op", "ns"},
	{"shard.replay_window_us", "us"},
	{"shard.replay_window_ratio", "ratio"},
	{"cache.hit_rate", "frac"},
	{"cache.evictions_per_op", "count"},
	{"memctrl.fills_per_op", "count"},
	{"memctrl.writebacks_per_op", "count"},
	{"memctrl.self_ns_per_op", "ns"},
	{"core.decode_ns", "ns"},
	{"core.encode_ns", "ns"},
	{"core.compressed_frac", "frac"},
	{"core.self_ns_per_op", "ns"},
	{"compress.ns_per_block", "ns"},
	{"compress.decompress_ns", "ns"},
	{"compress.ns_per_op", "ns"},
	{"ecc.syndrome_ns", "ns"},
	{"ecc.ns_per_op", "ns"},
	{"eccregion.accesses_per_op", "count"},
	{"eccregion.blocks_used", "count"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.bytes_per_op", "B"},
	{"runtime.gc_cpu_frac", "frac"},
	{"telemetry.observe_ns_per_frame", "ns"},
	{"telemetry.ns_per_op", "ns"},
	{"loadgen.ns_per_op", "ns"},
	{"ledger.wall_ns_per_op", "ns"},
	{"ledger.residual_ns_per_op", "ns"},
	{"ledger.residual_frac", "frac"},
	{"ledger.trace_overhead_frac", "frac"},
}

// metricValue is one reported metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Verified  uint64                 `json:"-"` // gets the oracle checked
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		wl       = fl.String("workload", "", "workload name (resident-read, spill-mixed, spill-write)")
		seed     = fl.Uint64("seed", 1, "input seed: op stream and block contents")
		seconds  = fl.Float64("seconds", 10, "timed window length in seconds")
		traceOn  = fl.Int("trace", 0, "1: traced run with per-layer metrics and the ledger")
		spansDir = fl.String("spans-dir", "", "directory the traced run writes its spans to (empty: none)")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	spec, err := findWorkload(*wl)
	if err != nil || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(stderr, "servebench: need --workload NAME --seed N --seconds S --trace 0|1:", err)
		return 2
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	cfg := &config{
		spec:       spec,
		seed:       *seed,
		seconds:    *seconds,
		llcBytes:   1 << 20,
		warmFrames: 256,
		setups:     5,
		workers:    min(2, nproc),
		spansDir:   *spansDir,
	}
	res, err := execute(cfg, *traceOn == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		fmt.Fprintln(stderr, "servebench: run failed its correctness or regime checks")
		return 1
	}
	return 0
}

// execute runs one benchmark invocation and prints its provenance and a
// human-readable summary; the caller prints the result line.
func execute(cfg *config, traced bool, out io.Writer) (*result, error) {
	prov, err := json.Marshal(provenanceOf(cfg, traced))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "servebench: provenance %s\n", prov)
	if traced {
		return tracedResult(cfg, out)
	}
	return endToEndResult(cfg, out)
}

// A run sets up at least cfg.setups times, and keeps setting up (to
// maxSetups) until the set-ups took minSetupTotal seconds, so the median of
// a cheap set-up still rests on enough samples.
const (
	minSetupTotal = 2.0
	maxSetups     = 25
)

func endToEndResult(cfg *config, out io.Writer) (*result, error) {
	var setupS []float64
	var e *env
	total := 0.0
	for i := 0; i < cfg.setups || (total < minSetupTotal && i < maxSetups); i++ {
		if e != nil {
			e.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if e, err = setup(cfg, false); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		total += setupS[i]
	}
	defer e.close()

	v0, m0, f0 := e.oracleTotals()
	s0 := e.snapshot()
	lr, err := e.loop(time.Now().Add(time.Duration(cfg.seconds*float64(time.Second))), 0)
	if err != nil {
		return nil, err
	}
	s1 := e.snapshot()
	v1, m1, f1 := e.oracleTotals()
	c := delta(s0, s1, lr.ops())
	regimeErr := cfg.spec.check(c)

	lat := make([]int64, len(lr.samples))
	for i, s := range lr.samples {
		lat[i] = s.dur
	}
	p50, _ := quantile(lat, 0.50)
	p99, beyond := quantile(lat, 0.99)
	rates := sliceRates(lr, rateSlices)
	opsPerS := median(append([]float64(nil), rates...))
	q1, q3 := quartiles(rates)
	fmt.Fprintf(out, "servebench: %d ops in %.3fs by %d closed-loop workers: %.0f ops/s overall; over %d slices median %.0f, quartiles %.0f..%.0f ops/s\n",
		lr.ops(), lr.elapsed.Seconds(), cfg.workers, float64(lr.ops())/lr.elapsed.Seconds(), rateSlices, opsPerS, q1, q3)
	fmt.Fprintf(out, "servebench: frame latency over %d frames (exact): p50 %.1f us, p99 %.1f us, %d frames beyond p99\n",
		len(lat), float64(p50)/1e3, float64(p99)/1e3, beyond)
	attempted := lr.ops()

	stored, err := e.storedBytesPerUserByte()
	if err != nil {
		return nil, err
	}
	// Measured after the last use of the window's sample buffers, whose
	// size follows throughput: the heap is the service plus the oracle.
	heap := heapInuseMB()
	setupMedian := median(setupS)
	fmt.Fprintf(out, "servebench: setup median %.4f s over %d set-ups\n", setupMedian, len(setupS))
	printChecks(out, c, v1-v0, m1-m0, f1-f0, attempted, regimeErr)

	vals := map[string]float64{
		"ops_per_s":                  opsPerS,
		"frame_p50_us":               float64(p50) / 1e3,
		"frame_p99_us":               float64(p99) / 1e3,
		"stored_bytes_per_user_byte": stored,
		"heap_inuse_mb":              heap,
		"setup_s":                    setupMedian,
	}
	return newResult(endToEnd, vals, attempted, f1-f0, v1-v0, m1-m0 == 0 && regimeErr == nil)
}

func tracedResult(cfg *config, out io.Writer) (*result, error) {
	tr, err := runTraced(cfg)
	if tr == nil {
		return nil, err
	}
	printLedger(out, cfg, tr)
	if err != nil {
		fmt.Fprintln(out, "servebench: ledger check failed:", err)
	}
	printChecks(out, counts{}, tr.verified, tr.mismatches, tr.failed, tr.attempted, tr.regimeErr)
	ok := err == nil && tr.mismatches == 0 && tr.regimeErr == nil
	return newResult(perLayer, tr.metrics, tr.attempted, tr.failed, tr.verified, ok)
}

// newResult checks that every defined metric was measured and packs them
// with their units.
func newResult(defs []metricDef, vals map[string]float64, attempted, failed, verified uint64, ok bool) (*result, error) {
	r := &result{Correct: ok && failed == 0 && verified > 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]metricValue{}, Verified: verified}
	for _, d := range defs {
		v, found := vals[d.name]
		if !found {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(vals) != len(defs) {
		return nil, fmt.Errorf("measured %d metrics, defined %d", len(vals), len(defs))
	}
	return r, nil
}

func printChecks(out io.Writer, c counts, verified, mismatches, failed, attempted uint64, regimeErr error) {
	fmt.Fprintf(out, "servebench: oracle: %d verified gets, %d mismatches; %d of %d ops failed (failed_op_frac %g)\n",
		verified, mismatches, failed, attempted, ratio(failed, attempted))
	if c.ops > 0 {
		fmt.Fprintf(out, "servebench: regime: cache.hit_rate %.3f, memctrl.writebacks_per_op %.3f, core.compressed_frac %.3f, eccregion.accesses_per_op %.3f\n",
			c.hitRate(), c.per(c.writebacks), c.compressedFrac(), c.per(c.regionAccesses))
	}
	if regimeErr != nil {
		fmt.Fprintln(out, "servebench: regime check FAILED:", regimeErr)
	}
}

func printLedger(out io.Writer, cfg *config, tr *tracedRun) {
	fmt.Fprintf(out, "servebench: ledger for %s (ns per op of worker time in the traced window):\n", cfg.spec.name)
	wall := tr.metrics["ledger.wall_ns_per_op"]
	for _, l := range tr.lines {
		fmt.Fprintf(out, "  %-10s %10.1f ns  %6.1f%%\n", l.name, l.ns, 100*l.ns/wall)
	}
	res := tr.metrics["ledger.residual_ns_per_op"]
	fmt.Fprintf(out, "  %-10s %10.1f ns  %6.1f%%\n  %-10s %10.1f ns\n", "residual", res, 100*res/wall, "wall", wall)
	top := tr.lines[0]
	for _, l := range tr.lines[1:] {
		if l.ns > top.ns {
			top = l
		}
	}
	verdict := "dominant"
	if top.name != "copnet" {
		verdict = "not dominant; the largest line is " + top.name
	}
	fmt.Fprintf(out, "servebench: transport: copnet (wire, HTTP transport, server read/parse/encode/write) is %.1f%% of per-op wall: %s\n",
		100*tr.metrics["copnet.share_of_wall"], verdict)
	fmt.Fprintf(out, "servebench: window cross-check: replay %.1f us vs server window stage %.1f us (ratio %.2f, tolerance ±%.0f%%)\n",
		tr.metrics["shard.replay_window_us"], tr.metrics["shard.window_us"], tr.metrics["shard.replay_window_ratio"], 100*windowTolerance)
}

// provenance identifies what a result measured.
type provenance struct {
	Commit       string  `json:"commit"`
	SourceSHA256 string  `json:"source_sha256"`
	GoVersion    string  `json:"go_version"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Seed         uint64  `json:"seed"`
	Workload     string  `json:"workload"`
	Traced       bool    `json:"traced"`
	Seconds      float64 `json:"seconds"`
	Content      string  `json:"content"`
	Mix          [4]int  `json:"mix_get_set_delete_incr"`
	Keys         int     `json:"footprint_keys"`
	LLCBytes     int     `json:"llc_bytes"`
	LLCWays      int     `json:"llc_ways"`
	Shards       int     `json:"shards"`
	Scheme       string  `json:"scheme"`
	FrameOps     int     `json:"frame_ops"`
	Workers      int     `json:"workers"`
	WarmFrames   int     `json:"warm_frames_per_worker"`
	Setups       int     `json:"setups"`
}

func provenanceOf(cfg *config, traced bool) provenance {
	return provenance{
		Commit:       gitCommit("."),
		SourceSHA256: sourceDigest("."),
		GoVersion:    runtime.Version(),
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Seed:         cfg.seed,
		Workload:     cfg.spec.name,
		Traced:       traced,
		Seconds:      cfg.seconds,
		Content:      cfg.spec.content,
		Mix:          cfg.spec.mix,
		Keys:         cfg.keys(),
		LLCBytes:     cfg.llcBytes,
		LLCWays:      llcWays,
		Shards:       shards,
		Scheme:       scheme,
		FrameOps:     frameOps,
		Workers:      cfg.workers,
		WarmFrames:   cfg.warmFrames,
		Setups:       cfg.setups,
	}
}

// gitCommit resolves HEAD from the .git directory under root, or returns
// "none" when root is not a git checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "none"
}

// sourceDigest hashes every Go source and go.mod under root (hidden
// directories skipped), identifying the measured code where no git
// metadata exists.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
