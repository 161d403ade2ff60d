// Package faultsim is a seeded, fully deterministic fault-injection
// campaign engine over the live memory hierarchy. It corrupts DRAM images
// mid-simulation according to the Sridharan & Liberty field failure modes
// (internal/reliability): single-bit flips, multi-bit bursts within one
// word, structural row / column / bank failures whose blast radius comes
// from the physical geometry in internal/dram, and multi-bank failures —
// one ×8 device failing across its banks, injected as a whole-chip
// failure of one block (the §5 chipkill fault). The study's multi-rank
// mode is not modeled, and Run rejects it. Every affected block
// is then read back through the real controller (memctrl, or shard for
// concurrent campaigns) and the outcome classified as corrected, masked,
// silent corruption, false alias, or detected-uncorrectable.
//
// The engine runs a differential oracle: a golden uncorrupted shadow copy
// of every block's contents. Classification never trusts the decoder's own
// verdict alone — a read the controller claims corrected (or clean) whose
// bytes disagree with the shadow is downgraded to silent corruption and
// counted as an oracle mismatch, so a classifier bug becomes a loud
// statistic instead of a wrong table. The paper's §4 coverage argument
// (COP's detection threshold gives the same correction boundary as a
// SECDED DIMM across the field modes) is thereby exercised end to end,
// not just analytically.
//
// Determinism: every trial derives its own RNG from (seed, mode, trial
// index) alone, targets are confined to per-worker disjoint block ranges,
// and affected blocks are settled out of the LLC before injection — so the
// same seed yields a byte-identical outcome table, serially or with
// concurrent workers (COP-family region pointer values aside; see Run).
package faultsim

import (
	"bytes"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"cop/internal/chipkill"
	"cop/internal/dram"
	"cop/internal/memctrl"
	"cop/internal/reliability"
	"cop/internal/shard"
	"cop/internal/telemetry"
	"cop/internal/trace"
	"cop/internal/workload"
)

// BlockBytes is the access granularity.
const BlockBytes = memctrl.BlockBytes

// Outcome classifies one read of a fault-affected block.
type Outcome int

// Outcomes, in severity order.
const (
	// Corrected: the data matched the shadow copy and the controller
	// reported a correction (ECC did its job).
	Corrected Outcome = iota
	// Masked: the data matched the shadow copy without any correction —
	// the fault landed somewhere harmless (e.g. absorbed by a cache-
	// resident copy or repaired metadata).
	Masked
	// Silent: the data differed from the shadow copy and nothing was
	// detected — silent data corruption.
	Silent
	// FalseAlias: silent corruption where the decoder also misjudged the
	// block's stored form (a raw block read as compressed, or a compressed
	// block knocked below the detection threshold) — COP's specific
	// failure boundary from §3.1/§4.
	FalseAlias
	// Detected: the controller raised an uncorrectable-error fault
	// instead of returning data.
	Detected
	numOutcomes
)

func (o Outcome) String() string {
	switch o {
	case Corrected:
		return "corrected"
	case Masked:
		return "masked"
	case Silent:
		return "silent"
	case FalseAlias:
		return "false-alias"
	case Detected:
		return "detected"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Config parameterizes a campaign.
type Config struct {
	// Mode is the protection scheme under test.
	Mode memctrl.Mode
	// Seed makes the whole campaign reproducible.
	Seed uint64
	// Blocks is the populated footprint in 64-byte blocks (default 2048).
	Blocks int
	// Injections is the total number of fault events across all failure
	// modes (default 5000). A structural event (row/column/bank) corrupts
	// several blocks.
	Injections int
	// Workload names the content profile populating the footprint
	// (default "gcc" — a mix of compressible and incompressible blocks).
	Workload string
	// Modes restricts the failure modes exercised; nil means the five
	// single-structure field modes (bit, word, row, column, bank).
	// MultiBank (a whole-chip failure) may be added; Run rejects
	// MultiRank and any other mode it does not model.
	Modes []reliability.FailureMode
	// LLCBytes / LLCWays size the cache (defaults 64 KB / 8 — small, so
	// traffic really reaches DRAM).
	LLCBytes, LLCWays int
	// Workers splits the footprint into disjoint per-worker target ranges
	// (default 1). Workers > 1 drives the sharded front-end.
	Workers int
	// Parallel runs the workers on separate goroutines (Workers > 1 only).
	// The trial streams are identical either way; Parallel only changes
	// who executes them.
	Parallel bool
	// TrafficPerFault issues this many background oracle-checked reads
	// after every fault event (default 2), so campaigns run against live
	// traffic rather than a quiesced memory.
	TrafficPerFault int
	// Geometry is the physical address mapping used to expand structural
	// failures into block sets. The zero value is CampaignGeometry(), a
	// small mapping whose rows/columns/banks all land inside a modest
	// footprint (the paper's 8 GB Table 1 geometry would need a footprint
	// of gigabytes before two footprint blocks share a row).
	Geometry dram.Config
	// ObserveMemory, when non-nil, receives the campaign's memory as a
	// telemetry.Source right after construction, before any traffic —
	// long-running drivers point a telemetry.Registry (and hence a live
	// /metrics endpoint) at the campaign in flight.
	ObserveMemory func(telemetry.Source)
	// Tracer, when non-nil, attaches the execution-trace flight recorder
	// to the campaign memory. Every injected fault is labeled with a
	// KindFaultInject record (failure mode + bits flipped), and the first
	// silent corruption or oracle mismatch freezes the rings and cuts a
	// black-box dump whose tail identifies the fault's block address.
	Tracer *trace.Tracer
	// Memory, when non-nil, is an externally owned campaign target — a
	// live front-end (shard.Batched included) the campaign drives instead
	// of building its own controller. Mode/LLCBytes/LLCWays then describe
	// the external memory only nominally (the campaign does not construct
	// anything from them), and Tracer is not attached by the campaign.
	// An external memory may be reconfigured concurrently (live scheme
	// migration, resharding), so an injection that finds no image — the
	// block was re-encoded or moved between settle and inject — is
	// counted Skipped and restored instead of failing the run.
	Memory Target
}

// CampaignGeometry is the default physical mapping for campaigns: 2
// channels, 4 banks, 1 KB rows — 16-block rows and 4-bank channels, so a
// few-thousand-block footprint spans many rows per bank and structural
// failures have a real multi-block blast radius.
func CampaignGeometry() dram.Config {
	return dram.Config{
		Channels:      2,
		RanksPerChan:  1,
		BanksPerRank:  4,
		RowBytes:      1024,
		CapacityBytes: 1 << 30,
		Timing:        dram.DDR31600(),
	}
}

// DefaultModes returns the five single-structure field failure modes the
// engine injects.
func DefaultModes() []reliability.FailureMode {
	return []reliability.FailureMode{
		reliability.SingleBit,
		reliability.SingleWordMultiBit,
		reliability.SingleRowMultiBit,
		reliability.SingleColumn,
		reliability.SingleBank,
	}
}

// ModeOutcomes is one row of the campaign's outcome table.
type ModeOutcomes struct {
	Mode reliability.FailureMode
	// Faults is the number of fault events injected in this mode.
	Faults int
	// Reads is the number of affected-block reads classified (≥ Faults
	// for structural modes).
	Reads int
	// Skipped counts affected blocks with no DRAM image to corrupt
	// (alias blocks pinned in the LLC).
	Skipped int
	// Counts holds one counter per Outcome.
	Counts [numOutcomes]int
	// OracleMismatches counts reads where the controller claimed a
	// clean or corrected result but the shadow copy refuted the bytes —
	// decoder miscorrections (e.g. a triple-bit error aliasing to a
	// correctable SECDED syndrome) surfaced as Silent/FalseAlias instead
	// of being trusted. The Corrected class itself is byte-verified by
	// construction and can never contain a mismatch.
	OracleMismatches int
}

// Result is a completed campaign.
type Result struct {
	Scheme   memctrl.Mode
	Workload string
	Seed     uint64
	Blocks   int
	Workers  int
	Rows     []ModeOutcomes
	// BackgroundReads / BackgroundMismatches count the oracle-checked
	// background traffic; a mismatch there means a fault leaked outside
	// its classified window (an engine or controller bug).
	BackgroundReads      int
	BackgroundMismatches int
	// Memory is the campaign memory's final telemetry snapshot (merged
	// across shards when Workers > 1).
	Memory telemetry.Snapshot
	// TraceDumps counts black-box dumps the attached Tracer cut during
	// the campaign (0 when no Tracer was configured or nothing froze).
	TraceDumps uint64
}

// TotalFaults sums the injected fault events.
func (r *Result) TotalFaults() int {
	n := 0
	for _, row := range r.Rows {
		n += row.Faults
	}
	return n
}

// OracleMismatches sums the per-mode oracle refutations (decoder
// miscorrections caught by the shadow memory) plus background mismatches.
func (r *Result) OracleMismatches() int {
	n := r.BackgroundMismatches
	for _, row := range r.Rows {
		n += row.OracleMismatches
	}
	return n
}

// Outcomes sums one outcome's count across all failure modes.
func (r *Result) Outcomes(o Outcome) int {
	n := 0
	for _, row := range r.Rows {
		n += row.Counts[o]
	}
	return n
}

// Table formats the per-failure-mode outcome table (the executable
// counterpart of the paper's §4 coverage argument).
func (r *Result) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fault-injection campaign  scheme=%s  workload=%s  blocks=%d  workers=%d  seed=%#x\n",
		r.Scheme, r.Workload, r.Blocks, r.Workers, r.Seed)
	fmt.Fprintf(&sb, "oracle: %d background reads, %d mismatches\n\n", r.BackgroundReads, r.BackgroundMismatches)
	fmt.Fprintf(&sb, "%-22s %7s %7s %10s %7s %7s %12s %9s %8s %12s\n",
		"failure mode", "faults", "reads", "corrected", "masked", "silent", "false-alias", "detected", "skipped", "oracle-miss")
	var total ModeOutcomes
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-22s %7d %7d %10d %7d %7d %12d %9d %8d %12d\n",
			row.Mode, row.Faults, row.Reads,
			row.Counts[Corrected], row.Counts[Masked], row.Counts[Silent],
			row.Counts[FalseAlias], row.Counts[Detected], row.Skipped, row.OracleMismatches)
		total.Faults += row.Faults
		total.Reads += row.Reads
		total.Skipped += row.Skipped
		total.OracleMismatches += row.OracleMismatches
		for o := range row.Counts {
			total.Counts[o] += row.Counts[o]
		}
	}
	fmt.Fprintf(&sb, "%-22s %7d %7d %10d %7d %7d %12d %9d %8d %12d\n",
		"total", total.Faults, total.Reads,
		total.Counts[Corrected], total.Counts[Masked], total.Counts[Silent],
		total.Counts[FalseAlias], total.Counts[Detected], total.Skipped, total.OracleMismatches)
	return sb.String()
}

// Target abstracts a campaign memory: the unsharded controller or the
// sharded front-end the campaign builds itself, or an externally owned
// memory passed in via Config.Memory (copnet's client satisfies it too).
type Target interface {
	Write(addr uint64, data []byte) error
	ReadWithInfo(addr uint64) ([]byte, memctrl.ReadInfo, error)
	Settle(addr uint64) error
	StoredKind(addr uint64) memctrl.StoredKind
	InjectBitFlip(addr uint64, bit int) bool
	InjectChipFailure(addr uint64, chip int, pattern byte) bool
	Flush() error
	Snapshot() telemetry.Snapshot
}

var (
	_ Target = (*memctrl.Controller)(nil)
	_ Target = (*shard.Batched)(nil)
)

// rng is splitmix64: tiny, seedable, and stable across Go versions (the
// campaign's byte-identical determinism guarantee must not depend on
// math/rand internals).
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// trialRNG derives an independent deterministic stream for one trial; the
// stream depends only on (seed, mode, trial), never on execution order.
func trialRNG(seed uint64, mode reliability.FailureMode, trial int) *rng {
	r := &rng{s: seed ^ (uint64(mode)+1)*0xA24BAED4963EE407 ^ uint64(trial)*0x9FB21C651E98DF25}
	r.next() // discard the correlated first output
	return r
}

func withDefaults(cfg Config) Config {
	if cfg.Blocks == 0 {
		cfg.Blocks = 2048
	}
	if cfg.Injections == 0 {
		cfg.Injections = 5000
	}
	if cfg.Workload == "" {
		cfg.Workload = "gcc"
	}
	if cfg.Modes == nil {
		cfg.Modes = DefaultModes()
	}
	if cfg.LLCBytes == 0 {
		cfg.LLCBytes = 64 * 1024
	}
	if cfg.LLCWays == 0 {
		cfg.LLCWays = 8
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.TrafficPerFault == 0 {
		cfg.TrafficPerFault = 2
	}
	if cfg.Geometry.Channels == 0 {
		cfg.Geometry = CampaignGeometry()
	}
	return cfg
}

// splitBudget apportions the injection budget across failure modes in
// proportion to their field rates (largest-remainder rounding, so the
// parts always sum to total).
func splitBudget(total int, modes []reliability.FailureMode) []int {
	rateSum := 0.0
	for _, m := range modes {
		rateSum += m.FieldRate()
	}
	out := make([]int, len(modes))
	type frac struct {
		idx int
		f   float64
	}
	fracs := make([]frac, len(modes))
	used := 0
	for i, m := range modes {
		exact := float64(total) * m.FieldRate() / rateSum
		out[i] = int(exact)
		fracs[i] = frac{i, exact - float64(int(exact))}
		used += out[i]
	}
	for used < total {
		best := 0
		for i := 1; i < len(fracs); i++ {
			if fracs[i].f > fracs[best].f {
				best = i
			}
		}
		out[fracs[best].idx]++
		fracs[best].f = -1
		used++
	}
	return out
}

// faultEvent is one injection: the affected blocks and the damage to
// each, fully determined by the trial RNG. A bit event flips bits[i] in
// addrs[i]; a chip event (chip >= 0) fails that ×8 chip of its one block
// with pattern.
type faultEvent struct {
	addrs   []uint64
	bits    [][]int // parallel to addrs; nil for a chip event
	chip    int     // -1 for a bit event
	pattern byte
}

// inject applies the event's damage to its i-th block, reporting false
// when the block had no image to corrupt.
func (ev *faultEvent) inject(mem Target, i int) bool {
	if ev.chip >= 0 {
		return mem.InjectChipFailure(ev.addrs[i], ev.chip, ev.pattern)
	}
	for _, bit := range ev.bits[i] {
		if !mem.InjectBitFlip(ev.addrs[i], bit) {
			return false
		}
	}
	return true
}

// flipped is the number of bits the event flips in its i-th block (a
// failed chip XORs pattern|1 into each of its bytes).
func (ev *faultEvent) flipped(i int) int {
	if ev.chip >= 0 {
		return chipkill.Beats * bits.OnesCount8(ev.pattern|1)
	}
	return len(ev.bits[i])
}

// Blast-radius caps keep structural events (and hence campaign runtime)
// bounded; real row/bank failures corrupt far more blocks, but the
// classification boundary is visible from a sample.
const (
	rowCap    = 8
	columnCap = 8
	bankCap   = 6
)

// buildEvent expands one failure mode at a target block into concrete
// flips. lo/hi bound the worker's block range (structural neighbors
// outside it are clipped, keeping concurrent workers disjoint).
func buildEvent(r *rng, mode reliability.FailureMode, geom *dram.System, lo, hi uint64) faultEvent {
	target := (lo + uint64(r.intn(int(hi-lo)))) * BlockBytes
	clip := func(addrs []uint64, cap int) []uint64 {
		in := addrs[:0:0]
		start := 0
		for i, a := range addrs {
			if a == target {
				start = i
			}
		}
		// Rotate so the target comes first, then keep up to cap in-range
		// addresses — a deterministic sample of the blast radius.
		for i := 0; i < len(addrs) && len(in) < cap; i++ {
			a := addrs[(start+i)%len(addrs)]
			if blk := a / BlockBytes; blk >= lo && blk < hi {
				in = append(in, a)
			}
		}
		return in
	}
	distinct := func(n int) []int {
		bits := make([]int, 0, n)
		for len(bits) < n {
			b := r.intn(8 * BlockBytes)
			dup := false
			for _, x := range bits {
				dup = dup || x == b
			}
			if !dup {
				bits = append(bits, b)
			}
		}
		return bits
	}

	ev := faultEvent{chip: -1}
	switch mode {
	case reliability.SingleWordMultiBit:
		// 2–4 flips confined to one 8-byte word.
		word := r.intn(8)
		n := 2 + r.intn(3)
		bits := make([]int, 0, n)
		for len(bits) < n {
			b := word*64 + r.intn(64)
			dup := false
			for _, x := range bits {
				dup = dup || x == b
			}
			if !dup {
				bits = append(bits, b)
			}
		}
		ev.addrs = []uint64{target}
		ev.bits = [][]int{bits}
	case reliability.SingleRowMultiBit:
		// The whole row misbehaves: a multi-bit burst in each block.
		for _, a := range clip(geom.SameRow(target, hi*BlockBytes), rowCap) {
			ev.addrs = append(ev.addrs, a)
			ev.bits = append(ev.bits, distinct(2+r.intn(3)))
		}
	case reliability.SingleColumn:
		// One failing bit line: the same bit position in every row (§4:
		// one bit per block — within SECDED's correction boundary).
		bit := r.intn(8 * BlockBytes)
		for _, a := range clip(geom.SameColumn(target, hi*BlockBytes), columnCap) {
			ev.addrs = append(ev.addrs, a)
			ev.bits = append(ev.bits, []int{bit})
		}
	case reliability.SingleBank:
		// Bank-wide failure: heavy multi-bit damage across rows and
		// columns.
		for _, a := range clip(geom.SameBank(target, hi*BlockBytes), bankCap) {
			ev.addrs = append(ev.addrs, a)
			ev.bits = append(ev.bits, distinct(4+r.intn(5)))
		}
	case reliability.MultiBank:
		// One device fails across its banks: a whole-chip failure. Each
		// block's damage is independent, so the event touches only the
		// target — more blocks would change no per-block verdict.
		ev.addrs = []uint64{target}
		ev.chip = r.intn(chipkill.Chips)
		ev.pattern = byte(r.next())
	default: // SingleBit; Run rejects the modes buildEvent does not model
		ev.addrs = []uint64{target}
		ev.bits = [][]int{{r.intn(8 * BlockBytes)}}
	}
	return ev
}

// modeled reports whether buildEvent can inject mode.
func modeled(mode reliability.FailureMode) bool {
	return mode == reliability.MultiBank || slices.Contains(DefaultModes(), mode)
}

// classify turns one read of an affected block into an outcome. The shadow
// copy is authoritative: a verdict the bytes refute is downgraded and
// flagged as an oracle mismatch.
func classify(kind memctrl.StoredKind, data, ref []byte, info memctrl.ReadInfo, err error) (Outcome, bool) {
	if err != nil {
		return Detected, false
	}
	corrected := info.Corrected > 0 || info.CorrectedPointer
	if bytes.Equal(data, ref) {
		if corrected {
			return Corrected, false
		}
		return Masked, false
	}
	// Wrong bytes: the oracle refutes any claim of health.
	mismatch := corrected || !info.FromDRAM
	misjudged := (kind == memctrl.StoredKindRaw && info.DecodedCompressed) ||
		(kind == memctrl.StoredKindCompressed && !info.DecodedCompressed)
	if misjudged {
		return FalseAlias, mismatch
	}
	return Silent, mismatch
}

// Run executes one campaign.
//
// With Workers > 1 each worker owns a disjoint slice of the footprint and
// an identical, pre-assigned trial stream; Parallel only decides whether
// the streams run on goroutines. COP campaigns are byte-identical across
// serial, concurrent, and unsharded runs; COP-ER campaigns are
// deterministic for a fixed Workers count but region-entry allocation
// order (and hence pointer values inside raw images) depends on the
// worker interleaving, so concurrent COP-ER runs are oracle-checked
// rather than compared byte-for-byte against serial ones.
func Run(cfg Config) (*Result, error) {
	cfg = withDefaults(cfg)
	prof, err := workload.Get(cfg.Workload)
	if err != nil {
		return nil, err
	}
	if cfg.Blocks < cfg.Workers {
		return nil, fmt.Errorf("faultsim: %d blocks cannot feed %d workers", cfg.Blocks, cfg.Workers)
	}
	for _, mode := range cfg.Modes {
		if !modeled(mode) {
			return nil, fmt.Errorf("faultsim: failure mode %s is not modeled", mode)
		}
	}
	memCfg := memctrl.Config{Mode: cfg.Mode, LLCBytes: cfg.LLCBytes, LLCWays: cfg.LLCWays, Tracer: cfg.Tracer}
	external := cfg.Memory != nil
	var mem Target
	if external {
		mem = cfg.Memory
	} else if cfg.Workers > 1 {
		// Workers is a free worker count; shard counts must be powers of
		// two no larger than the LLC set count, so round up and clamp —
		// the extra shards just see no traffic.
		shards := shard.NextPow2(cfg.Workers)
		if sets := cfg.LLCBytes / (cfg.LLCWays * memctrl.BlockBytes); shards > sets {
			shards = sets
		}
		b, err := shard.NewBatchedChecked(shard.Config{Mem: memCfg, Shards: shards})
		if err != nil {
			return nil, err
		}
		defer b.Close()
		mem = b
	} else {
		mem = memctrl.New(memCfg)
	}
	if cfg.ObserveMemory != nil {
		cfg.ObserveMemory(mem)
	}
	geom := dram.New(cfg.Geometry)

	// Populate the footprint and capture the golden shadow copy.
	ref := make([][]byte, cfg.Blocks)
	for i := 0; i < cfg.Blocks; i++ {
		addr := uint64(i) * BlockBytes
		data := prof.Block(addr, 0)
		ref[i] = append([]byte(nil), data...)
		if err := mem.Write(addr, data); err != nil {
			return nil, err
		}
	}
	if err := mem.Flush(); err != nil {
		return nil, err
	}

	budgets := splitBudget(cfg.Injections, cfg.Modes)
	blocksPer := uint64(cfg.Blocks / cfg.Workers)

	// Per-worker partial rows; merged by commutative summation, so the
	// execution interleaving cannot influence the table.
	partial := make([][]ModeOutcomes, cfg.Workers)
	bgReads := make([]int, cfg.Workers)
	bgMiss := make([]int, cfg.Workers)
	errs := make([]error, cfg.Workers)

	// Per-worker trace handles: injections are labeled from the worker's
	// own ring (ring appends are mutex-safe; the flow state is untouched).
	var traceHandles []*trace.Handle
	var dumpsBefore uint64
	if cfg.Tracer != nil {
		dumpsBefore = cfg.Tracer.Dumps()
		cfg.Tracer.EnsureShards(cfg.Workers)
		traceHandles = make([]*trace.Handle, cfg.Workers)
		for w := range traceHandles {
			traceHandles[w] = cfg.Tracer.Handle(w)
		}
	}

	runWorker := func(w int) {
		lo, hi := uint64(w)*blocksPer, uint64(w+1)*blocksPer
		var th *trace.Handle
		if traceHandles != nil {
			th = traceHandles[w]
		}
		rows := make([]ModeOutcomes, len(cfg.Modes))
		for mi, mode := range cfg.Modes {
			rows[mi].Mode = mode
			for trial := 0; trial < budgets[mi]; trial++ {
				if trial%cfg.Workers != w {
					continue
				}
				r := trialRNG(cfg.Seed, mode, trial)
				ev := buildEvent(r, mode, geom, lo, hi)
				rows[mi].Faults++

				// Settle every affected block so the injection hits a
				// fresh image and the read-back must decode it; capture
				// the ground-truth stored form before corrupting it.
				kinds := make([]memctrl.StoredKind, len(ev.addrs))
				live := make([]bool, len(ev.addrs))
				for i, a := range ev.addrs {
					if errs[w] = mem.Settle(a); errs[w] != nil {
						return
					}
					kinds[i] = mem.StoredKind(a)
					live[i] = kinds[i] != memctrl.StoredNone
					if !live[i] {
						rows[mi].Skipped++
						continue
					}
					if th.Enabled() {
						th.Record(trace.KindFaultInject, a, uint32(mode), 0,
							uint64(ev.flipped(i)), uint64(trial), 0)
					}
					if !ev.inject(mem, i) {
						if !external {
							// Settled non-alias blocks always have an
							// image; a miss here is an engine bug.
							errs[w] = fmt.Errorf("faultsim: injection missed settled block %#x", a)
							return
						}
						// A concurrent reconfiguration re-encoded or moved
						// the block between settle and inject: skip the
						// trial for this block and restore it (earlier
						// flips of this event may have landed).
						live[i] = false
						rows[mi].Skipped++
						if errs[w] = mem.Write(a, ref[a/BlockBytes]); errs[w] != nil {
							return
						}
					}
				}

				// Read back, classify against the shadow copy, restore.
				for i, a := range ev.addrs {
					if !live[i] {
						continue
					}
					want := ref[a/BlockBytes]
					data, info, rerr := mem.ReadWithInfo(a)
					if rerr != nil && !isUncorrectable(rerr) {
						errs[w] = rerr
						return
					}
					out, om := classify(kinds[i], data, want, info, rerr)
					rows[mi].Reads++
					rows[mi].Counts[out]++
					if om {
						rows[mi].OracleMismatches++
					}
					if (out == Silent || out == FalseAlias || om) && cfg.Tracer != nil {
						// Silent corruption: freeze the flight recorder
						// and cut the black-box dump (first one wins).
						cfg.Tracer.TriggerAnomaly(trace.ReasonSilentCorruption, a)
					}
					if errs[w] = mem.Write(a, want); errs[w] != nil {
						return
					}
					if errs[w] = mem.Settle(a); errs[w] != nil {
						return
					}
				}

				// Background traffic: oracle-checked reads inside the
				// worker's range.
				for k := 0; k < cfg.TrafficPerFault; k++ {
					blk := lo + uint64(r.intn(int(hi-lo)))
					data, rerr := readBlock(mem, blk*BlockBytes)
					bgReads[w]++
					if rerr != nil || !bytes.Equal(data, ref[blk]) {
						bgMiss[w]++
					}
				}
			}
		}
		partial[w] = rows
	}

	if cfg.Parallel && cfg.Workers > 1 {
		var wg sync.WaitGroup
		for w := 0; w < cfg.Workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				runWorker(w)
			}(w)
		}
		wg.Wait()
	} else {
		for w := 0; w < cfg.Workers; w++ {
			runWorker(w)
		}
	}
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}

	res := &Result{
		Scheme:   cfg.Mode,
		Workload: cfg.Workload,
		Seed:     cfg.Seed,
		Blocks:   cfg.Blocks,
		Workers:  cfg.Workers,
		Rows:     make([]ModeOutcomes, len(cfg.Modes)),
	}
	for mi, mode := range cfg.Modes {
		res.Rows[mi].Mode = mode
	}
	for w := 0; w < cfg.Workers; w++ {
		if partial[w] == nil {
			continue
		}
		for mi := range cfg.Modes {
			res.Rows[mi].Faults += partial[w][mi].Faults
			res.Rows[mi].Reads += partial[w][mi].Reads
			res.Rows[mi].Skipped += partial[w][mi].Skipped
			res.Rows[mi].OracleMismatches += partial[w][mi].OracleMismatches
			for o := range partial[w][mi].Counts {
				res.Rows[mi].Counts[o] += partial[w][mi].Counts[o]
			}
		}
		res.BackgroundReads += bgReads[w]
		res.BackgroundMismatches += bgMiss[w]
	}
	res.Memory = mem.Snapshot()
	if cfg.Tracer != nil {
		res.TraceDumps = cfg.Tracer.Dumps() - dumpsBefore
	}
	return res, nil
}

func readBlock(t Target, addr uint64) ([]byte, error) {
	data, _, err := t.ReadWithInfo(addr)
	return data, err
}

func isUncorrectable(err error) bool {
	// Every controller error on a read of a corrupted image is a
	// detection; anything else (config errors) aborted earlier.
	return err != nil
}
