// Package cop is a from-scratch reproduction of "COP: To Compress and
// Protect Main Memory" (Palframan, Kim, Lipasti — ISCA 2015).
//
// COP protects commodity non-ECC DIMMs from soft errors by compressing
// each 64-byte block just enough to fit SECDED check bits inline — so
// protection costs no extra DRAM storage and no extra memory accesses —
// and, uniquely, distinguishes compressed (protected) blocks from raw
// (incompressible) ones with no tracking metadata at all: the decoder
// simply counts valid ECC code words. COP-ER extends protection to
// incompressible blocks through a compact, dynamically grown ECC region.
//
// The package offers three levels of API:
//
//   - Codec / ERCodec: the block encoder/decoder pair (the paper's
//     contribution) for callers who manage storage themselves.
//   - Memory: a functional protected-memory model (LLC + DRAM images +
//     fault injection) for end-to-end experiments.
//   - RunExperiment: regenerates any table or figure from the paper's
//     evaluation.
//
// All implementation lives under internal/; see DESIGN.md for the system
// inventory and EXPERIMENTS.md for paper-vs-measured results.
package cop

import (
	"fmt"
	"io"
	"net/http"

	"cop/internal/chipkill"
	"cop/internal/cli"
	"cop/internal/core"
	"cop/internal/experiments"
	"cop/internal/faultsim"
	"cop/internal/memctrl"
	"cop/internal/migrate"
	"cop/internal/reliability"
	"cop/internal/shard"
	"cop/internal/telemetry"
	"cop/internal/trace"
	"cop/internal/workload"
)

// Core codec types, re-exported from internal/core.
type (
	// Codec encodes 64-byte blocks into self-describing DRAM images and
	// decodes/corrects them (plain COP: incompressible blocks stay raw).
	Codec = core.Codec
	// ERCodec is the COP-ER variant that also protects incompressible
	// blocks via an ECC region.
	ERCodec = core.ERCodec
	// Config selects the code geometry, detection threshold, and
	// compression scheme.
	Config = core.Config
	// StoreStatus reports how a block was (or could not be) stored.
	StoreStatus = core.StoreStatus
	// DecodeInfo describes what the decoder observed for one block.
	DecodeInfo = core.DecodeInfo
)

// BlockBytes is the DRAM block granularity COP operates on.
const BlockBytes = core.BlockBytes

// Store statuses (see StoreStatus).
const (
	// StoredCompressed: compressed with inline ECC — protected.
	StoredCompressed = core.StoredCompressed
	// StoredRaw: incompressible, stored unprotected.
	StoredRaw = core.StoredRaw
	// RejectedAlias: incompressible alias; must remain in the LLC.
	RejectedAlias = core.RejectedAlias
)

// NoPointer marks the absence of an ECC-region entry in ERCodec calls.
const NoPointer = core.NoPointer

// Config4 returns the paper's preferred operating point: free 4 bytes,
// four (128,120) SECDED code words, 3-of-4 detection threshold, combined
// TXT+MSB+RLE compression.
func Config4() Config { return core.NewConfig4() }

// Config8 returns the 8-byte operating point: eight (64,56) code words,
// 5-of-8 threshold, MSB+RLE compression.
func Config8() Config { return core.NewConfig8() }

// NewCodec builds a COP codec. Use Config4() unless you need the stronger
// multi-error behaviour (and lower coverage) of Config8().
func NewCodec(cfg Config) *Codec { return core.NewCodec(cfg) }

// NewERCodec builds a COP-ER codec with a fresh ECC region.
func NewERCodec(cfg Config) *ERCodec { return core.NewERCodec(cfg) }

// Memory is a functional protected-memory hierarchy (LLC in front of
// encoded DRAM images) with fault-injection hooks.
type Memory = memctrl.Controller

// MemoryConfig parameterizes NewMemory.
type MemoryConfig = memctrl.Config

// MemoryMode selects a protection scheme (see the Mode* constants).
type MemoryMode = memctrl.Mode

// Protection modes for NewMemory.
const (
	ModeUnprotected = memctrl.Unprotected
	ModeCOP         = memctrl.COP
	ModeCOPER       = memctrl.COPER
	ModeECCRegion   = memctrl.ECCRegion
	ModeECCDIMM     = memctrl.ECCDIMM
	ModeCOPAdaptive = memctrl.COPAdaptive
	ModeCOPChipkill = memctrl.COPChipkill
)

// NewMemory builds a protected-memory model. The zero MemoryConfig (beyond
// Mode) gives the paper's 4 MB / 16-way LLC and the Config4 codec.
// Memory is not safe for concurrent use; open a BatchedMemory
// (Open with WithShards) when multiple goroutines drive one memory image.
func NewMemory(cfg MemoryConfig) *Memory { return memctrl.New(cfg) }

// ReadInfo describes what the controller observed serving one block read
// (cache hit vs DRAM decode, code-word verdicts, corrections).
type ReadInfo = memctrl.ReadInfo

// Store is the common protected-memory surface every front-end exposes:
// whole-block reads and writes at 64-byte granularity, a dirty-line flush,
// and the unified telemetry snapshot (the hierarchy's only counter
// surface). Memory and BatchedMemory both implement it, as does copnet's
// network client — so servers, load generators, campaigns, and tests can
// be written once against Store and handed any front-end (local or
// remote).
//
// Concurrency is a property of the implementation, not the interface:
// Memory is single-goroutine, BatchedMemory is safe for concurrent use.
// Open documents which implementation a given option set yields.
type Store interface {
	// Read loads the 64-byte block containing addr.
	Read(addr uint64) ([]byte, error)
	// ReadInto reads the block holding addr into dst (at least BlockBytes)
	// and reports the decoder's observations.
	ReadInto(dst []byte, addr uint64) (ReadInfo, error)
	// Write stores a full 64-byte block at addr.
	Write(addr uint64, data []byte) error
	// Flush writes every dirty cached line back to DRAM.
	Flush() error
	// Snapshot returns the coherent telemetry tree for the hierarchy.
	Snapshot() telemetry.Snapshot
}

// Every front-end implements Store (compile-time enforced).
var (
	_ Store = (*Memory)(nil)
	_ Store = (*BatchedMemory)(nil)
)

// Telemetry, re-exported from internal/telemetry: every Store produces the
// same Snapshot tree (Snapshot method), so all counter consumption — JSON,
// Prometheus text, expvar, campaign results — goes through exactly one API.
// Individual events (corrections, uncorrectable reads, scrubs, retained
// aliases) are recorded by the execution tracer (Tracer), not delivered
// as callbacks.
type (
	// Snapshot is the coherent telemetry tree for one memory hierarchy:
	// controller, cache, optional region and DRAM sections, plus derived
	// rates. A BatchedMemory's Snapshot merges its per-shard trees such
	// that a sharded and an unsharded run of the same single-threaded
	// trace produce byte-identical JSON apart from the sharded side's
	// Batch section.
	Snapshot = telemetry.Snapshot
	// TelemetrySource is anything that produces a Snapshot; Memory,
	// BatchedMemory, and TelemetryRegistry all satisfy it.
	TelemetrySource = telemetry.Source
	// TelemetryRegistry is a swappable TelemetrySource holder for
	// long-running servers (see TelemetryHandler).
	TelemetryRegistry = telemetry.Registry
)

// TelemetryHandler serves /metrics (Prometheus text), /snapshot (JSON),
// /debug/vars (expvar), and /debug/pprof for src.
func TelemetryHandler(src TelemetrySource) http.Handler { return telemetry.Handler(src) }

// Execution tracing, re-exported from internal/trace: a per-shard
// flight recorder of fixed-size binary records covering the full access
// lifecycle (shard route → cache → codec → DRAM commands → ECC region).
// Distinct from workload traces (coptrace): a workload trace is an
// address/content *input* to the model; an execution trace is a record of
// what the model *did*.
type (
	// Tracer owns the ring buffers. Attach one to a Memory or
	// BatchedMemory via MemoryConfig.Tracer, call Start, and drain with
	// Snapshot / ExportChromeJSON, or let an anomaly freeze the rings and
	// cut a black-box TraceDump.
	Tracer = trace.Tracer
	// TraceConfig sizes the rings and selects the anomaly triggers.
	TraceConfig = trace.Config
	// TraceRecord is one fixed-size (64-byte) execution-trace record.
	TraceRecord = trace.Record
	// TraceDump is a frozen black-box excerpt: the trigger record plus
	// the last records of every ring.
	TraceDump = trace.Dump
)

// NewTracer builds an execution-trace flight recorder (disabled until
// Start; a disabled tracer costs one atomic load per potential record).
func NewTracer(cfg TraceConfig) *Tracer { return trace.New(cfg) }

// ExportChromeTrace writes records as Chrome trace-event JSON that
// Perfetto and chrome://tracing load directly: one track per shard and
// layer in logical-tick time, one track per DRAM bank in bus-cycle time,
// flow arrows tying each access across layers.
func ExportChromeTrace(w io.Writer, recs []TraceRecord) error {
	return trace.ExportChromeJSON(w, recs)
}

// TelemetryHandlerWithTrace is TelemetryHandler plus the /trace/start,
// /trace/stop, /trace.json, and /trace.bin flight-recorder endpoints.
func TelemetryHandlerWithTrace(src TelemetrySource, tr *Tracer) http.Handler {
	return telemetry.HandlerWithTracer(src, tr)
}

// BatchedMemory is the concurrency-safe protected-memory model: block
// addresses are striped across independent per-shard controllers (one
// lock each), with set-index-compatible striping so single-threaded
// behavior is identical to an unsharded Memory of the same total
// configuration. Every operation runs on the caller's goroutine under the
// owning shard's lock: synchronous calls (Read, Write, ...) take it per
// access, and NewGroup exposes the asynchronous window API, which buffers
// a window of accesses and executes it at Wait — one lock acquisition per
// touched shard amortized over the window, with FR-FCFS-friendly
// reordering inside each hold. SetMode/Drain expose the per-shard
// Enabled/Paused/Draining state machine (Draining quiesces a shard to a
// fenced, flushed state). Close rejects every later operation.
type BatchedMemory = shard.Batched

// BatchedMemoryConfig parameterizes NewBatchedMemory: a full MemoryConfig
// as Mem — there is one config vocabulary for every memory front-end —
// plus the shard count. The LLC rule is documented once, on shard.Config:
// Mem.LLCBytes is the TOTAL capacity, each shard gets LLCBytes/Shards,
// and an explicit Shards must be a power of two no larger than the LLC
// set count (zero means auto). Invalid combinations are errors from Open,
// never silently rounded.
type BatchedMemoryConfig = shard.Config

// BatchGroup tracks a window of asynchronous batched operations; see
// BatchedMemory.NewGroup.
type BatchGroup = shard.Group

// BatchMode is a batched shard's controller state.
type BatchMode = shard.Mode

// Batched shard modes.
const (
	BatchEnabled  = shard.ModeEnabled
	BatchPaused   = shard.ModePaused
	BatchDraining = shard.ModeDraining
)

// NewBatchedMemory builds a batched memory model. It panics on an invalid
// config; use Open with WithShards to get the error instead.
func NewBatchedMemory(cfg BatchedMemoryConfig) *BatchedMemory { return shard.NewBatched(cfg) }

// --- unified constructor -------------------------------------------------

// openConfig accumulates Open's functional options.
type openConfig struct {
	mem        MemoryConfig
	scheme     string
	shards     int
	concurrent bool
	registry   *TelemetryRegistry
	requireCon bool
}

// Option configures Open.
type Option func(*openConfig)

// WithScheme selects the protection scheme by its canonical command-line
// name (SchemeNames lists them: unprotected, ecc-dimm, cop, cop-er,
// cop-adaptive, cop-chipkill, ecc-region). Unknown names fail Open.
func WithScheme(name string) Option { return func(c *openConfig) { c.scheme = name } }

// WithMode selects the protection scheme by mode constant (the
// programmatic twin of WithScheme).
func WithMode(m MemoryMode) Option {
	return func(c *openConfig) { c.mem.Mode = m; c.scheme = "" }
}

// WithMemoryConfig replaces the full per-controller memory configuration
// (codec geometry, LLC, DRAM model, tracer). Options applied after it
// override the fields they cover.
func WithMemoryConfig(cfg MemoryConfig) Option {
	return func(c *openConfig) { c.mem = cfg; c.scheme = "" }
}

// WithLLC sizes the last-level cache. For the concurrent front-end bytes
// is the TOTAL capacity across shards (the shard.Config rule).
func WithLLC(bytes, ways int) Option {
	return func(c *openConfig) { c.mem.LLCBytes = bytes; c.mem.LLCWays = ways }
}

// WithShards selects the concurrency-safe front-end (*BatchedMemory) with
// n stripes (0 = auto: smallest power of two >= GOMAXPROCS, clamped to the
// LLC set count). Its operations, Group windows included, execute on the
// goroutine that issues or waits on them.
func WithShards(n int) Option {
	return func(c *openConfig) { c.shards = n; c.concurrent = true }
}

// WithConcurrent requires a concurrency-safe Store: Open fails rather than
// return a single-goroutine *Memory. Servers accepting arbitrary option
// sets use it as a guard.
func WithConcurrent() Option { return func(c *openConfig) { c.requireCon = true } }

// WithTracer attaches an execution-trace flight recorder to the opened
// memory.
func WithTracer(t *Tracer) Option { return func(c *openConfig) { c.mem.Tracer = t } }

// WithTelemetryRegistry points reg at the opened memory, so a telemetry
// server started before Open (TelemetryHandler on a Registry) begins
// serving the new store's counters the moment it exists.
func WithTelemetryRegistry(reg *TelemetryRegistry) Option {
	return func(c *openConfig) { c.registry = reg }
}

// Open is the unified front-end constructor: one call, functional options,
// a Store out. The option set picks the implementation —
//
//   - no topology options: a *Memory (single-goroutine functional model);
//   - WithShards: a *BatchedMemory (concurrency-safe; every operation
//     runs on its caller's goroutine, so it owns no goroutines, and Close
//     only makes later operations fail with an error).
//
// Invalid combinations (unknown scheme name, bad shard geometry) are
// reported as errors, never panics.
// Callers that need the concrete type assert to it (st.(*BatchedMemory)).
func Open(opts ...Option) (Store, error) {
	var c openConfig
	for _, opt := range opts {
		opt(&c)
	}
	if c.scheme != "" {
		schemes, err := cli.ParseSchemes(c.scheme)
		if err != nil || len(schemes) != 1 {
			return nil, fmt.Errorf("cop: scheme %q: want exactly one of %s", c.scheme, cli.SchemeNames())
		}
		c.mem.Mode = schemes[0].Mode
	}
	var (
		st  Store
		err error
	)
	switch {
	case c.concurrent:
		st, err = shard.NewBatchedChecked(shard.Config{Mem: c.mem, Shards: c.shards})
	default:
		if c.requireCon {
			return nil, fmt.Errorf("cop: WithConcurrent requires WithShards (a plain Memory is single-goroutine)")
		}
		st = memctrl.New(c.mem)
	}
	if err != nil {
		return nil, err
	}
	if c.registry != nil {
		c.registry.Set(st)
	}
	return st, nil
}

// SchemeNames returns the canonical command-line scheme names WithScheme
// accepts, comma-joined.
func SchemeNames() string { return cli.SchemeNames() }

// Online reconfiguration, re-exported from internal/migrate.
type (
	// MigrationScheme is a named protection-scheme target a live
	// migration can convert a BatchedMemory to ("cop-4", "cop-8",
	// "cop-adaptive", "ecc-region", "ecc-dimm", "unprotected").
	MigrationScheme = migrate.Scheme
	// MigrateOptions bounds a live migration's per-pause work.
	MigrateOptions = migrate.Options
	// Scrubber is the background patrol scrubber over a BatchedMemory;
	// see NewScrubber.
	Scrubber = migrate.Scrubber
	// ScrubOptions parameterizes NewScrubber.
	ScrubOptions = migrate.ScrubOptions
)

// Migrate converts a live BatchedMemory to the named protection scheme
// without stopping traffic: shards are drained one at a time just long
// enough to switch their machinery, then resident blocks are re-encoded
// in bounded chunks while reads and writes keep flowing (blocks not yet
// converted stay readable through the retiring scheme's decoder). See
// MigrationSchemes for the registry.
func Migrate(m *BatchedMemory, scheme string, opts MigrateOptions) error {
	return migrate.MigrateTo(m, scheme, opts)
}

// MigrationSchemes lists the registered live-migration targets.
func MigrationSchemes() []string { return migrate.Names() }

// Reshard grows or shrinks a BatchedMemory's stripe count online: each
// stripe family is quiesced, its resident blocks are copied to the new
// shards, and routing cuts over atomically — stripes outside the family
// keep serving throughout.
func Reshard(m *BatchedMemory, shards int) error { return m.Reshard(shards) }

// NewScrubber builds a background patrol scrubber over m (call Start to
// launch it and Stop to halt it). Scrub corrections are counted apart
// from demand-read corrections in telemetry, and uncorrectable blocks
// found by patrol trip the flight recorder's anomaly dump.
func NewScrubber(m *BatchedMemory, opts ScrubOptions) *Scrubber {
	return migrate.NewScrubber(m, opts)
}

// Workload modeling, re-exported from internal/workload.
type (
	// WorkloadProfile models one application: a block-content mixture
	// plus an access model (footprint, MPKI, locality, perfect-L3 IPC).
	WorkloadProfile = workload.Profile
	// ContentMix weights the block-content categories of a profile.
	ContentMix = workload.ContentMix
)

// Workloads returns every registered workload profile, name-sorted
// (the paper's benchmarks plus any custom registrations).
func Workloads() []*WorkloadProfile { return workload.All() }

// Workload returns one profile by name.
func Workload(name string) (*WorkloadProfile, error) { return workload.Get(name) }

// RegisterWorkload adds a custom application model usable with traces,
// experiments helpers, and the simulator.
func RegisterWorkload(p WorkloadProfile) (*WorkloadProfile, error) {
	return workload.RegisterCustom(p)
}

// Extensions beyond the paper's main proposal.

// AdaptiveCodec stores each block in the strongest format it fits (§3.1's
// "stronger codes for more compressible blocks" option): eight (64,56)
// words when the block frees 8 bytes, four (128,120) words when it only
// frees 4, raw otherwise — still with zero tracking metadata.
type AdaptiveCodec = core.AdaptiveCodec

// NewAdaptiveCodec builds the two-tier codec.
func NewAdaptiveCodec() *AdaptiveCodec { return core.NewAdaptiveCodec() }

// ChipkillCodec is the paper's future-work extension: compression-funded
// chip-failure tolerance (per-beat chip parity + CRC validation), able to
// reconstruct a whole dead ×8 chip in any compressible block.
type ChipkillCodec = chipkill.Codec

// NewChipkillCodec builds a COP-CK codec.
func NewChipkillCodec() *ChipkillCodec { return chipkill.New() }

// ChipkillERCodec extends COP-CK to incompressible blocks: dual
// SEC-protected region pointers (one per chip half) locate entries holding
// the displaced bits, the chip parity, and a CRC — so incompressible
// blocks survive a whole-chip failure too. Inline blocks recovered every
// failure in an exhaustive scan; for a raw block about one failure in
// 10⁴ decodes silently wrong, mostly as a false alias (the damaged image
// passes the inline detector).
type ChipkillERCodec = chipkill.ERCodec

// NewChipkillERCodec builds a COP-CK-ER codec with a fresh region.
func NewChipkillERCodec() *ChipkillERCodec { return chipkill.NewER() }

// FailChip simulates a whole-chip failure on a DRAM image (see
// internal/chipkill).
func FailChip(image []byte, chip int, pattern byte) { chipkill.FailChip(image, chip, pattern) }

// Fault-injection campaigns, re-exported from internal/faultsim.
type (
	// FaultCampaignConfig parameterizes FaultCampaign. The zero value
	// (beyond Mode) runs 5000 injections over a 2048-block "gcc" footprint
	// on one worker.
	FaultCampaignConfig = faultsim.Config
	// FaultCampaignResult is a completed campaign: the per-failure-mode
	// outcome table plus the differential-oracle verdict.
	FaultCampaignResult = faultsim.Result
	// FaultOutcome classifies one read of a fault-affected block.
	FaultOutcome = faultsim.Outcome
	// FailureMode is a DRAM field failure mode (Sridharan & Liberty
	// rates; see internal/reliability).
	FailureMode = reliability.FailureMode
)

// Fault-read outcomes (see FaultOutcome).
const (
	FaultCorrected  = faultsim.Corrected
	FaultMasked     = faultsim.Masked
	FaultSilent     = faultsim.Silent
	FaultFalseAlias = faultsim.FalseAlias
	FaultDetected   = faultsim.Detected
)

// FaultCampaign runs a seeded, deterministic fault-injection campaign:
// faults are injected into live DRAM images per the field failure modes,
// read back through the real controller, and every outcome is verified
// against a golden shadow copy (same seed, same table — byte for byte).
func FaultCampaign(cfg FaultCampaignConfig) (*FaultCampaignResult, error) {
	return faultsim.Run(cfg)
}

// FaultCampaignModes returns the five single-structure field failure
// modes a default campaign injects.
func FaultCampaignModes() []FailureMode { return faultsim.DefaultModes() }

// Experiment types, re-exported from internal/experiments.
type (
	// ExperimentReport is a regenerated paper table/figure.
	ExperimentReport = experiments.Report
	// ExperimentOptions trades fidelity for runtime (zero value: full).
	ExperimentOptions = experiments.Options
)

// Experiments lists the available experiment ids: every figure and table
// from the paper (fig1, fig4, fig8, fig9, fig10, fig11, fig12, table3,
// alias, dimmcmp, config, benchmarks) plus the beyond-the-paper studies
// (fig10mc, ablations, fieldmodes, relatedwork, sensitivity, energy,
// census, chipfail).
func Experiments() []string { return experiments.IDs() }

// RunExperiment regenerates one paper table or figure.
func RunExperiment(id string, opts ExperimentOptions) (*ExperimentReport, error) {
	return experiments.Run(id, opts)
}
