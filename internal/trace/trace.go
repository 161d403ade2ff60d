// Package trace is the flight recorder for the memory hierarchy: per-shard,
// single-writer, power-of-two ring buffers of fixed-size binary records
// covering the full access lifecycle — shard route, cache lookup/evict/
// alias-pin, memctrl classify/encode/decode, DRAM command stream, ECC-region
// entry alloc/free.
//
// The telemetry layer answers "how many"; this layer answers "why this one".
// It is also the hierarchy's only per-event mechanism: corrections,
// uncorrectable reads, scrubs and retained aliases are records here, not
// callbacks.
// COP's valid-codeword-count detection means a single wrong classification
// silently corrupts a block, and diagnosing that requires the causal event
// chain for the access: which scheme the selector tried, the codeword count
// it saw, the DRAM commands issued, the ECC-region entry touched. The
// recorder keeps that chain always-on at near-zero cost:
//
//   - Disabled tracing costs one nil check plus one atomic load per record
//     site and zero allocations.
//   - Enabled tracing appends a 64-byte Record into the shard's ring under a
//     per-ring mutex; rings are single-writer in steady state (the shard
//     lock already serializes each controller), so the mutex is uncontended
//     and exists only so snapshot/dump readers can stop the writer briefly.
//   - Anomaly triggers (detected-uncorrectable, silent corruption flagged by
//     the faultsim oracle, alias-rejection bursts) freeze every ring and cut
//     a Dump of the last records with the triggering record marked — a
//     black box for post-mortems.
//
// Records use logical clocks: Time is a global tick shared by the functional
// layers, while DRAM command records additionally carry bus cycles in
// Arg0/Arg1. The Chrome-trace exporter (export.go) renders the two domains
// as separate processes so Perfetto shows both coherently.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
)

// RecordBytes is the encoded size of one Record. The struct layout below is
// arranged so the in-memory size matches (checked by a test), letting dumps
// be written without any per-record allocation.
const RecordBytes = 64

// Record is one fixed-size trace event. Field meaning varies by Kind; see
// the Kind constants. All records share:
//
//	Seq   per-ring sequence number (monotonic, survives wraparound)
//	Time  global logical tick (one per record, totally ordered)
//	Flow  access id linking every record of one outer operation; 0 = none
//	Addr  block address the event concerns (shard-local where applicable)
type Record struct {
	Seq  uint64
	Time uint64
	Flow uint64
	Addr uint64
	Arg0 uint64
	Arg1 uint64
	Arg2 uint64

	Kind  Kind
	Shard uint8 // ring index the record was written to
	Flags Flags
	_     uint8
	Aux   uint32
}

// Kind identifies what a Record describes and which hierarchy layer wrote
// it.
type Kind uint8

// Record kinds, grouped by layer. Per-kind argument conventions:
//
//	KindShardRoute   Aux=shard index, Arg0=outer (pre-striping) address
//	KindLoad/Store   start of a memctrl read/write (Flags: FlagWrite)
//	KindCacheHit     Flags: FlagOverflow if served by overflow promotion
//	KindCacheEvict   Flags: FlagDirty, FlagAlias of the victim
//	KindCacheSpill   all-alias set forced the insert into overflow
//	KindClassify     Aux=1 if the block compresses (alias bit cleared)
//	KindEncode       Aux=store status (core.StoreStatus), Arg1=mode
//	KindDecode       Aux=valid-codeword count, Arg0=corrected segments,
//	                 Arg1=mode, Arg2=corrected-segment bitmask
//	                 (Flags: FlagCompressed)
//	KindUncorrectable detected-uncorrectable on the read path
//	KindScrub        scrub-on-correct rewrote the stored image
//	KindAliasRetained alias block rejected for compression, pinned in LLC
//	KindDRAMAct/Pre/Read/Write
//	                 Arg0=issue bus cycle, Arg1=finish bus cycle, Arg2=row,
//	                 Aux=ch<<16|rank<<8|bank
//	KindRegionAlloc  Arg0=entry pointer; KindRegionFree likewise
//	KindFaultInject  Aux=failure mode, Arg0=bits flipped
//	KindAnomaly      Aux=Reason; written by TriggerAnomaly, marks the dump
//	KindBatchBegin   Aux=batch depth; written by the batched front-end
//	                 before executing a dequeued batch under the shard lock
//	KindBatchEnd     Aux=batch depth; closes the matching KindBatchBegin
//	KindMigrateBegin Aux=pending block count, Arg0=from mode, Arg1=to mode
//	KindMigrateChunk Aux=blocks converted this chunk, Arg0=blocks remaining
//	KindMigrateEnd   Aux=total blocks migrated
//	KindNetOp        client queued one wire op; Aux=op kind, Arg0=op index,
//	                 Flow=the op's span id
//	KindNetFrameSend client handed a frame to the transport; Aux=op count,
//	                 Flow=the frame span id
//	KindNetFrameRecv client parsed the response; Aux=op count
//	KindNetFrameBegin server decoded a traced frame; Aux=op count,
//	                 Arg0=wire trace id
//	KindNetFrameEnd  server wrote the response; Aux=op count, Arg0=total ns
//	KindServeStage   one serve-datapath stage; Aux=ServeStage, Arg0=ns
const (
	KindNone Kind = iota
	KindShardRoute
	KindLoad
	KindStore
	KindCacheHit
	KindCacheMiss
	KindCacheEvict
	KindCacheAliasPin
	KindCacheSpill
	KindClassify
	KindEncode
	KindDecode
	KindUncorrectable
	KindScrub
	KindAliasRetained
	KindDRAMAct
	KindDRAMPre
	KindDRAMRead
	KindDRAMWrite
	KindRegionAlloc
	KindRegionFree
	KindFaultInject
	KindAnomaly
	KindBatchBegin
	KindBatchEnd
	KindMigrateBegin
	KindMigrateChunk
	KindMigrateEnd
	KindNetOp
	KindNetFrameSend
	KindNetFrameRecv
	KindNetFrameBegin
	KindNetFrameEnd
	KindServeStage

	numKinds
)

var kindNames = [numKinds]string{
	KindNone:          "none",
	KindShardRoute:    "route",
	KindLoad:          "load",
	KindStore:         "store",
	KindCacheHit:      "cache-hit",
	KindCacheMiss:     "cache-miss",
	KindCacheEvict:    "cache-evict",
	KindCacheAliasPin: "alias-pin",
	KindCacheSpill:    "cache-spill",
	KindClassify:      "classify",
	KindEncode:        "encode",
	KindDecode:        "decode",
	KindUncorrectable: "uncorrectable",
	KindScrub:         "scrub",
	KindAliasRetained: "alias-retained",
	KindDRAMAct:       "ACT",
	KindDRAMPre:       "PRE",
	KindDRAMRead:      "RD",
	KindDRAMWrite:     "WR",
	KindRegionAlloc:   "er-alloc",
	KindRegionFree:    "er-free",
	KindFaultInject:   "fault-inject",
	KindAnomaly:       "ANOMALY",
	KindBatchBegin:    "batch-begin",
	KindBatchEnd:      "batch-end",
	KindMigrateBegin:  "migrate-begin",
	KindMigrateChunk:  "migrate-chunk",
	KindMigrateEnd:    "migrate-end",
	KindNetOp:         "net-op",
	KindNetFrameSend:  "net-send",
	KindNetFrameRecv:  "net-recv",
	KindNetFrameBegin: "net-begin",
	KindNetFrameEnd:   "net-end",
	KindServeStage:    "serve-stage",
}

// String returns the short event name used in exported traces.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "kind?"
}

// Layer is the hierarchy level a record belongs to; the exporter gives each
// layer its own track per shard.
type Layer uint8

// Layers, ordered top (request entry) to bottom (DRAM devices).
const (
	LayerNet Layer = iota
	LayerShard
	LayerMemctrl
	LayerCache
	LayerCodec
	LayerDRAM
	LayerRegion

	numLayers
)

var layerNames = [numLayers]string{
	LayerNet:     "net",
	LayerShard:   "shard",
	LayerMemctrl: "memctrl",
	LayerCache:   "cache",
	LayerCodec:   "codec",
	LayerDRAM:    "dram",
	LayerRegion:  "ecc-region",
}

// String returns the track name of the layer.
func (l Layer) String() string {
	if int(l) < len(layerNames) {
		return layerNames[l]
	}
	return "layer?"
}

// Layer maps a record kind to its hierarchy layer.
func (k Kind) Layer() Layer {
	switch k {
	case KindShardRoute, KindBatchBegin, KindBatchEnd,
		KindMigrateBegin, KindMigrateChunk, KindMigrateEnd:
		return LayerShard
	case KindLoad, KindStore, KindUncorrectable, KindScrub, KindAliasRetained,
		KindFaultInject, KindAnomaly:
		return LayerMemctrl
	case KindCacheHit, KindCacheMiss, KindCacheEvict, KindCacheAliasPin,
		KindCacheSpill:
		return LayerCache
	case KindClassify, KindEncode, KindDecode:
		return LayerCodec
	case KindDRAMAct, KindDRAMPre, KindDRAMRead, KindDRAMWrite:
		return LayerDRAM
	case KindRegionAlloc, KindRegionFree:
		return LayerRegion
	case KindNetOp, KindNetFrameSend, KindNetFrameRecv,
		KindNetFrameBegin, KindNetFrameEnd, KindServeStage:
		return LayerNet
	}
	return LayerMemctrl
}

// Flags annotate a Record; meaning depends on Kind.
type Flags uint8

const (
	// FlagWrite marks store-side events (KindLoad vs KindStore carry it
	// redundantly so DRAM/cache records can be filtered uniformly).
	FlagWrite Flags = 1 << iota
	// FlagHit marks a cache hit.
	FlagHit
	// FlagDirty marks a dirty victim on eviction.
	FlagDirty
	// FlagAlias marks an alias (rejected-for-compression) line.
	FlagAlias
	// FlagCompressed marks a block stored compressed+ECC.
	FlagCompressed
	// FlagOverflow marks overflow-set involvement (promotion or spill).
	FlagOverflow
	// FlagTrigger marks the record that froze the ring in a Dump.
	FlagTrigger
)

var flagNames = [...]string{"write", "hit", "dirty", "alias", "compressed", "overflow", "TRIGGER"}

// String renders the set flags as a +-joined list ("write+alias").
func (f Flags) String() string {
	if f == 0 {
		return "none"
	}
	var s string
	for i, name := range flagNames {
		if f&(1<<i) != 0 {
			if s != "" {
				s += "+"
			}
			s += name
		}
	}
	if f>>len(flagNames) != 0 {
		s += "+?"
	}
	return s
}

// Reason says why an anomaly dump was cut.
type Reason uint32

// Anomaly reasons.
const (
	ReasonNone Reason = iota
	// ReasonUncorrectable: a detected-uncorrectable error on the read path.
	ReasonUncorrectable
	// ReasonSilentCorruption: the faultsim differential oracle observed
	// wrong data (or a false-alias classification) with no error reported.
	ReasonSilentCorruption
	// ReasonAliasBurst: too many alias rejections inside a short window.
	ReasonAliasBurst
	// ReasonManual: an explicit TriggerAnomaly call (CLI, tests).
	ReasonManual
	// ReasonSlowFrame: a serve frame crossed the slow-frame latency
	// threshold with freeze-on-slow enabled.
	ReasonSlowFrame

	numReasons
)

var reasonNames = [numReasons]string{
	ReasonNone:             "none",
	ReasonUncorrectable:    "uncorrectable",
	ReasonSilentCorruption: "silent-corruption",
	ReasonAliasBurst:       "alias-burst",
	ReasonManual:           "manual",
	ReasonSlowFrame:        "slow-frame",
}

// String names the reason.
func (r Reason) String() string {
	if int(r) < len(reasonNames) {
		return reasonNames[r]
	}
	return "reason?"
}

// ServeStage identifies one stage of the networked serve datapath in
// KindServeStage records (Aux) and gives the canonical stage names shared
// by trace exports and the telemetry stage histograms.
type ServeStage uint8

// Serve-datapath stages in execution order.
const (
	StageRead     ServeStage = iota // request body read
	StageParse                      // frame header + op decode
	StageRingWait                   // buffering a window's ops into its group
	StageWindow                     // window/barrier execution (Group.Wait: shard-lock waits + execution)
	StageEncode                     // response frame encode
	StageWrite                      // response write to the client
	NumServeStages
)

var serveStageNames = [NumServeStages]string{
	StageRead:     "read",
	StageParse:    "parse",
	StageRingWait: "ring-wait",
	StageWindow:   "window",
	StageEncode:   "encode",
	StageWrite:    "write",
}

// String returns the stage's canonical name.
func (s ServeStage) String() string {
	if int(s) < len(serveStageNames) {
		return serveStageNames[s]
	}
	return "stage?"
}

// Config sizes a Tracer. The zero value is usable.
type Config struct {
	// RingSize is the per-shard ring capacity in records, rounded up to a
	// power of two. Default 1<<14 (1 MiB of records per shard).
	RingSize int
	// Shards is the number of rings to pre-create. Handle() grows the set
	// on demand, so this is an optimization, not a limit. Default 1.
	Shards int
	// DumpRecords is how many records per ring an anomaly dump keeps.
	// Default 256.
	DumpRecords int
	// TriggerUncorrectable freezes the recorder on a detected-uncorrectable
	// read. Off by default: fault campaigns expect Detected outcomes in
	// bulk, and freezing on the first would blind the recorder to the
	// interesting (silent) ones.
	TriggerUncorrectable bool
	// AliasBurstN freezes the recorder when this many alias rejections
	// land within AliasBurstWindow ticks. 0 disables the trigger.
	AliasBurstN int
	// AliasBurstWindow is the burst window in logical ticks. Default 4096.
	AliasBurstWindow uint64
}

func (c Config) withDefaults() Config {
	if c.RingSize <= 0 {
		c.RingSize = 1 << 14
	}
	c.RingSize = ceilPow2(c.RingSize)
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.DumpRecords <= 0 {
		c.DumpRecords = 256
	}
	if c.AliasBurstWindow == 0 {
		c.AliasBurstWindow = 4096
	}
	return c
}

func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// ring is one power-of-two record buffer. In steady state it has a single
// writer (the shard lock serializes the owning controller); the mutex only
// arbitrates against snapshot/dump readers and is therefore uncontended on
// the hot path.
type ring struct {
	mu   sync.Mutex
	mask uint64
	seq  uint64 // next sequence number == total records ever written
	recs []Record
}

func newRing(size int) *ring {
	return &ring{mask: uint64(size - 1), recs: make([]Record, size)}
}

func (r *ring) append(rec Record) {
	r.mu.Lock()
	rec.Seq = r.seq
	r.recs[r.seq&r.mask] = rec
	r.seq++
	r.mu.Unlock()
}

// tail returns up to n most recent records, oldest first.
func (r *ring) tail(n int) []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := r.seq
	if total > uint64(len(r.recs)) {
		total = uint64(len(r.recs))
	}
	if uint64(n) > total {
		n = int(total)
	}
	out := make([]Record, 0, n)
	for i := r.seq - uint64(n); i != r.seq; i++ {
		out = append(out, r.recs[i&r.mask])
	}
	return out
}

// Dump is a frozen black-box excerpt: the last records of every ring at the
// moment an anomaly fired, merged in Time order, with the triggering record
// (FlagTrigger set) included.
type Dump struct {
	Reason  Reason
	Trigger Record
	Records []Record
}

// Tracer is the flight recorder: a set of per-shard rings, a global logical
// clock, and the anomaly trigger machinery. All methods are safe for
// concurrent use; Record writes additionally assume one writer per Handle
// (the shard lock provides this in the simulator).
type Tracer struct {
	cfg     Config
	enabled atomic.Bool
	frozen  atomic.Bool
	clock   atomic.Uint64
	flows   atomic.Uint64

	mu    sync.Mutex   // guards rings growth and anomaly bookkeeping
	rings atomic.Value // []*ring

	sink     func(*Dump)
	lastDump atomic.Value // *Dump
	dumps    atomic.Uint64

	burstMu    sync.Mutex
	burstTimes []uint64 // circular, len == cfg.AliasBurstN
	burstNext  int
	burstCount int
}

// New builds a Tracer. Tracing starts disabled; call Start.
func New(cfg Config) *Tracer {
	cfg = cfg.withDefaults()
	t := &Tracer{cfg: cfg}
	rs := make([]*ring, cfg.Shards)
	for i := range rs {
		rs[i] = newRing(cfg.RingSize)
	}
	t.rings.Store(rs)
	if cfg.AliasBurstN > 0 {
		t.burstTimes = make([]uint64, cfg.AliasBurstN)
	}
	return t
}

// Start enables recording and clears any freeze from a previous anomaly.
func (t *Tracer) Start() {
	t.frozen.Store(false)
	t.enabled.Store(true)
}

// Stop disables recording. Rings keep their contents for export.
func (t *Tracer) Stop() { t.enabled.Store(false) }

// Enabled reports whether recording is on.
func (t *Tracer) Enabled() bool { return t.enabled.Load() }

// Frozen reports whether an anomaly froze the rings.
func (t *Tracer) Frozen() bool { return t.frozen.Load() }

// Reset clears every ring, the clock, and the freeze state. It does not
// change whether tracing is enabled.
func (t *Tracer) Reset() {
	t.mu.Lock()
	rs := t.ringSlice()
	for _, r := range rs {
		r.mu.Lock()
		r.seq = 0
		r.mu.Unlock()
	}
	t.mu.Unlock()
	t.clock.Store(0)
	t.flows.Store(0)
	t.frozen.Store(false)
	t.burstMu.Lock()
	for i := range t.burstTimes {
		t.burstTimes[i] = 0
	}
	t.burstNext = 0
	t.burstCount = 0
	t.burstMu.Unlock()
}

func (t *Tracer) ringSlice() []*ring {
	return t.rings.Load().([]*ring)
}

// EnsureShards grows the ring set to at least n rings. Setup-time only.
func (t *Tracer) EnsureShards(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rs := t.ringSlice()
	if len(rs) >= n {
		return
	}
	grown := make([]*ring, n)
	copy(grown, rs)
	for i := len(rs); i < n; i++ {
		grown[i] = newRing(t.cfg.RingSize)
	}
	t.rings.Store(grown)
}

// Handle returns the writer handle for shard i (modulo the ring count).
// Handles are cheap and may be created at setup time and kept forever.
func (t *Tracer) Handle(i int) *Handle {
	rs := t.ringSlice()
	r := rs[i%len(rs)]
	return &Handle{t: t, ring: r, shard: uint8(i % len(rs))}
}

// OnAnomaly registers fn to run (outside all tracer locks) each time an
// anomaly cuts a dump. Setup-time only.
func (t *Tracer) OnAnomaly(fn func(*Dump)) { t.sink = fn }

// LastDump returns the most recent anomaly dump, or nil.
func (t *Tracer) LastDump() *Dump {
	d, _ := t.lastDump.Load().(*Dump)
	return d
}

// Dumps returns how many anomaly dumps have been cut.
func (t *Tracer) Dumps() uint64 { return t.dumps.Load() }

// LastFlow returns the most recently allocated flow id. Meaningful only for
// single-threaded drivers that want to tag DRAM requests with the access
// that caused them.
func (t *Tracer) LastFlow() uint64 { return t.flows.Load() }

// TotalRecords returns the number of records ever written across all rings
// (including ones already overwritten by wraparound).
func (t *Tracer) TotalRecords() uint64 {
	var n uint64
	for _, r := range t.ringSlice() {
		r.mu.Lock()
		n += r.seq
		r.mu.Unlock()
	}
	return n
}

// Snapshot returns every retained record from every ring, merged and sorted
// by Time.
func (t *Tracer) Snapshot() []Record {
	var out []Record
	for _, r := range t.ringSlice() {
		out = append(out, r.tail(len(r.recs))...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}

// TriggerAnomaly freezes the recorder and cuts a black-box dump: the last
// Config.DumpRecords records of each ring, Time-merged, with a KindAnomaly
// record appended and marked FlagTrigger. One dump per freeze — once frozen,
// further triggers return nil until Start or Reset unfreezes. Returns nil
// when tracing is disabled or t is nil.
func (t *Tracer) TriggerAnomaly(reason Reason, addr uint64) *Dump {
	if t == nil || !t.enabled.Load() {
		return nil
	}
	if !t.frozen.CompareAndSwap(false, true) {
		return nil
	}
	trig := Record{
		Time:  t.clock.Add(1),
		Addr:  addr,
		Kind:  KindAnomaly,
		Flags: FlagTrigger,
		Aux:   uint32(reason),
	}
	rs := t.ringSlice()
	// The trigger record bypasses the frozen check: it must land in ring 0
	// so binary dumps of the raw rings also contain it.
	rs[0].append(trig)
	trig.Shard = 0

	var recs []Record
	for _, r := range rs {
		recs = append(recs, r.tail(t.cfg.DumpRecords)...)
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time < recs[j].Time })
	d := &Dump{Reason: reason, Trigger: trig, Records: recs}
	t.lastDump.Store(d)
	t.dumps.Add(1)
	if t.sink != nil {
		t.sink(d)
	}
	return d
}

// noteAliasRetained feeds the alias-burst trigger.
func (t *Tracer) noteAliasRetained(now, addr uint64) {
	if t.cfg.AliasBurstN <= 0 {
		return
	}
	t.burstMu.Lock()
	t.burstTimes[t.burstNext] = now
	t.burstNext = (t.burstNext + 1) % len(t.burstTimes)
	if t.burstCount < len(t.burstTimes) {
		t.burstCount++
	}
	// With the buffer full, burstNext points at the oldest of the last N
	// rejections; a burst means all N landed inside the window.
	oldest := t.burstTimes[t.burstNext]
	burst := t.burstCount == len(t.burstTimes) && now-oldest < t.cfg.AliasBurstWindow
	t.burstMu.Unlock()
	if burst {
		t.TriggerAnomaly(ReasonAliasBurst, addr)
	}
}

// Handle is a single-writer recording endpoint bound to one ring. A nil
// Handle is valid and records nothing, so layers can hold one unconditionally.
// Flow state (BeginOuter/Begin/SetFlow) must only be mutated by the single
// writer that owns the handle — in the simulator, under the shard lock.
type Handle struct {
	t       *Tracer
	ring    *ring
	shard   uint8
	flow    uint64
	pending bool
}

// Enabled reports whether this handle records: one nil check plus one
// atomic load, zero allocations — the entire disabled-path cost.
func (h *Handle) Enabled() bool {
	return h != nil && h.t.enabled.Load()
}

// Tracer returns the owning tracer (nil for a nil handle).
func (h *Handle) Tracer() *Tracer {
	if h == nil {
		return nil
	}
	return h.t
}

// BeginOuter starts a new flow at the outermost layer (the shard router)
// and marks it pending so the controller underneath joins it instead of
// allocating its own.
func (h *Handle) BeginOuter() {
	if !h.Enabled() {
		return
	}
	h.flow = h.t.flows.Add(1)
	h.pending = true
}

// BeginOuterFlow is BeginOuter with an externally supplied flow id — the
// networked front door adopts a client-derived span id here instead of
// allocating one, so the same flow links client, wire, shard, and DRAM
// records. Like BeginOuter it marks the flow pending for the controller
// underneath.
func (h *Handle) BeginOuterFlow(id uint64) {
	if !h.Enabled() {
		return
	}
	h.flow = id
	h.pending = true
}

// Begin starts the controller-level flow: it consumes a pending outer flow
// if the shard router opened one, otherwise allocates a fresh flow id (the
// unsharded, direct-controller case).
func (h *Handle) Begin() {
	if !h.Enabled() {
		return
	}
	if h.pending {
		h.pending = false
		return
	}
	h.flow = h.t.flows.Add(1)
}

// SetFlow adopts an externally supplied flow id (DRAM batch servicing).
func (h *Handle) SetFlow(id uint64) {
	if !h.Enabled() {
		return
	}
	h.flow = id
	h.pending = false
}

// ResetFlow clears the current flow so maintenance work (flushes, scrub
// sweeps) is not attributed to the last access.
func (h *Handle) ResetFlow() {
	if !h.Enabled() {
		return
	}
	h.flow = 0
	h.pending = false
}

// Flow returns the handle's current flow id.
func (h *Handle) Flow() uint64 {
	if h == nil {
		return 0
	}
	return h.flow
}

// Record appends one trace record. The disabled path is one nil check and
// one atomic load; the frozen path adds one more atomic load.
func (h *Handle) Record(k Kind, addr uint64, aux uint32, flags Flags, arg0, arg1, arg2 uint64) {
	if !h.Enabled() {
		return
	}
	t := h.t
	if t.frozen.Load() {
		return
	}
	now := t.clock.Add(1)
	h.ring.append(Record{
		Time:  now,
		Flow:  h.flow,
		Addr:  addr,
		Arg0:  arg0,
		Arg1:  arg1,
		Arg2:  arg2,
		Kind:  k,
		Shard: h.shard,
		Flags: flags,
		Aux:   aux,
	})
	switch k {
	case KindUncorrectable:
		if t.cfg.TriggerUncorrectable {
			t.TriggerAnomaly(ReasonUncorrectable, addr)
		}
	case KindAliasRetained:
		t.noteAliasRetained(now, addr)
	}
}

// RecordFlow appends one trace record carrying an explicit flow id without
// touching the handle's flow state. Unlike Record it is safe for multiple
// concurrent writers sharing a handle (ring appends are mutex-serialized;
// there is no per-handle state to race on) — the HTTP serve path uses it
// from request goroutines.
func (h *Handle) RecordFlow(k Kind, flow, addr uint64, aux uint32, flags Flags, arg0, arg1, arg2 uint64) {
	if !h.Enabled() {
		return
	}
	t := h.t
	if t.frozen.Load() {
		return
	}
	h.ring.append(Record{
		Time:  t.clock.Add(1),
		Flow:  flow,
		Addr:  addr,
		Arg0:  arg0,
		Arg1:  arg1,
		Arg2:  arg2,
		Kind:  k,
		Shard: h.shard,
		Flags: flags,
		Aux:   aux,
	})
}

// TriggerAnomaly freezes the owning tracer (nil-safe convenience for layers
// that only hold a Handle). Returns the dump, or nil if disabled/already
// frozen/nil handle.
func (h *Handle) TriggerAnomaly(reason Reason, addr uint64) *Dump {
	if h == nil {
		return nil
	}
	return h.t.TriggerAnomaly(reason, addr)
}

// PackBank packs a DRAM location into the Aux field: ch<<16|rank<<8|bank.
func PackBank(ch, rank, bank int) uint32 {
	return uint32(ch)<<16 | uint32(rank&0xFF)<<8 | uint32(bank&0xFF)
}

// UnpackBank undoes PackBank.
func UnpackBank(aux uint32) (ch, rank, bank int) {
	return int(aux >> 16), int(aux >> 8 & 0xFF), int(aux & 0xFF)
}
