package copnet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cop/internal/cli"
	"cop/internal/memctrl"
	"cop/internal/migrate"
	"cop/internal/shard"
	"cop/internal/telemetry"
	"cop/internal/trace"
)

// TenantConfig parameterizes an admin-created tenant memory. The zero
// value opens a cop-er batched memory with auto topology and the paper's
// 4 MB / 16-way LLC.
type TenantConfig struct {
	// Scheme is the protection scheme by canonical cli name
	// (cli.SchemeNames); empty selects "cop-er" — the scheme that
	// protects incompressible blocks too, the right default for a
	// service asserting zero silent corruption.
	Scheme string `json:"scheme,omitempty"`
	// Shards is the stripe count (0: auto).
	Shards int `json:"shards,omitempty"`
	// LLCBytes / LLCWays size the total LLC (0: 4 MiB / 16).
	LLCBytes int `json:"llc_bytes,omitempty"`
	LLCWays  int `json:"llc_ways,omitempty"`
}

// Ceilings on a tenant's geometry. A tenant's memory is allocated when it
// is created — every LLC set up front — and the Go runtime aborts the
// whole process, unrecoverably, on an allocation it cannot satisfy, so an
// absurd size in one admin request must be refused rather than attempted.
// At these ceilings a tenant's LLC costs ~350 MiB; every in-tree
// configuration sits far below them.
const (
	maxTenantLLCBytes = 256 << 20 // total LLC bytes
	maxTenantShards   = 256       // explicit stripe count (create and reshard)
)

// errTenantConfig marks an invalid tenant configuration (answered 400, as
// opposed to a conflict with existing state).
var errTenantConfig = errors.New("copnet: invalid tenant config")

// Open builds a batched memory of the tenant's shape. Server.CreateTenant
// opens its tenants through it and owns them; any other caller owns the
// memory's Close. Every error is a configuration error and wraps
// errTenantConfig.
func (c TenantConfig) Open() (*shard.Batched, error) {
	b, err := c.open()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errTenantConfig, err)
	}
	return b, nil
}

func (c TenantConfig) open() (*shard.Batched, error) {
	switch {
	case c.LLCBytes > maxTenantLLCBytes:
		return nil, fmt.Errorf("LLC of %d bytes exceeds the %d-byte ceiling", c.LLCBytes, maxTenantLLCBytes)
	case c.Shards > maxTenantShards:
		return nil, fmt.Errorf("%d shards exceed the %d-shard ceiling", c.Shards, maxTenantShards)
	}
	name := c.Scheme
	if name == "" {
		name = "cop-er"
	}
	sc, err := cli.SingleScheme(name)
	if err != nil {
		return nil, err
	}
	return shard.NewBatchedChecked(shard.Config{
		Mem:    memctrl.Config{Mode: sc.Mode, LLCBytes: c.LLCBytes, LLCWays: c.LLCWays},
		Shards: c.Shards,
	})
}

// Tenant is one namespace: an isolated batched memory the server built
// and closes, plus its optional background scrubber.
type Tenant struct {
	name    string
	batched *shard.Batched

	// tel is the tenant's serve-side telemetry (wire counters, frame and
	// per-stage latency histograms). A value field, so a directly
	// constructed Tenant observes into valid storage with no nil checks
	// on the hot path.
	tel tenantTelemetry

	scrubMu sync.Mutex
	scrub   *migrate.Scrubber
}

// Name returns the tenant's namespace name.
func (t *Tenant) Name() string { return t.name }

// Batched returns the tenant's memory. The server owns it: Drain fences
// it, and RemoveTenant and Close close it.
func (t *Tenant) Batched() *shard.Batched { return t.batched }

// TenantInfo is the admin listing entry for one tenant.
type TenantInfo struct {
	Name   string `json:"name"`
	Scheme string `json:"scheme"`
	Shards int    `json:"shards,omitempty"`
	Ops    uint64 `json:"ops,omitempty"`
}

// Server is the multi-tenant block-store service core: tenant registry,
// request execution, probes, admin, and the drain choreography. It carries
// no listener — mount Handler on whatever server (TLS/h2 or plaintext)
// the binary runs, or hit it in-process.
type Server struct {
	mu      sync.RWMutex
	tenants map[string]*Tenant

	// inflight tracks datapath and admin requests so Drain can fence:
	// once draining flips, new requests bounce with 503 and Drain waits
	// out everything already admitted. drainMu orders admission against
	// the flip — an Add only happens while holding the read side with
	// draining still false, and Drain flips under the write side, so
	// every Add happens-before the fence Wait (the WaitGroup contract).
	drainMu  sync.RWMutex
	inflight sync.WaitGroup
	draining atomic.Bool

	// net is the serve-datapath telemetry section; scratch pools the
	// per-request frame state (see pool.go) so the steady-state frame
	// path allocates nothing.
	net     telemetry.NetCounters
	scratch sync.Pool

	tracer *trace.Tracer
	// netTH is the flight-recorder handle the HTTP goroutines share for
	// net-layer records (RecordFlow only — no per-handle state, so
	// concurrent writers are safe). Nil without a tracer; every use goes
	// through the nil-safe Handle methods.
	netTH *trace.Handle

	// Slow-frame capture: slowNs is the live threshold (0 disables; the
	// adaptive mode rewrites it from the frame histogram's tail), slowlog
	// the bounded capture ring behind /debug/slowlog.
	slowCfg SlowFrameConfig
	slowNs  atomic.Int64
	slowlog *slowLog

	handler http.Handler
}

// ServerOption configures NewServer.
type ServerOption func(*Server)

// WithServerTracer mounts the flight recorder's /trace endpoints and
// attaches it to every tenant memory created afterwards.
func WithServerTracer(t *trace.Tracer) ServerOption {
	return func(s *Server) { s.tracer = t }
}

// SlowFrameConfig tunes the tail-latency capturer.
type SlowFrameConfig struct {
	// Threshold captures frames at least this slow. 0 disables capture
	// (unless Adaptive raises a threshold); with Adaptive it is the floor
	// the adaptive threshold never drops below.
	Threshold time.Duration
	// Adaptive re-derives the threshold from the live frame histogram:
	// every 1024 frames (after a 256-frame warmup) the threshold becomes
	// 2x the observed p99.9, floored at Threshold — so "slow" tracks the
	// workload instead of a guess.
	Adaptive bool
	// LogSize bounds the capture ring (0: 64 entries).
	LogSize int
	// Freeze triggers a flight-recorder anomaly freeze (reason
	// "slow-frame") on capture, preserving a black-box dump of the rings
	// around the outlier.
	Freeze bool
}

// WithSlowFrames enables slow-frame capture.
func WithSlowFrames(cfg SlowFrameConfig) ServerOption {
	return func(s *Server) { s.slowCfg = cfg }
}

// NewServer builds an empty service core.
func NewServer(opts ...ServerOption) *Server {
	s := &Server{tenants: make(map[string]*Tenant)}
	for _, opt := range opts {
		opt(s)
	}
	if s.tracer != nil {
		s.netTH = s.tracer.Handle(0)
	}
	s.slowlog = newSlowLog(s.slowCfg.LogSize)
	s.slowNs.Store(int64(s.slowCfg.Threshold))
	s.handler = s.buildHandler()
	return s
}

// CreateTenant opens a fresh batched memory per cfg and registers it
// under name. The server owns (and will Close) the memory.
func (s *Server) CreateTenant(name string, cfg TenantConfig) (*Tenant, error) {
	if name == "" {
		return nil, fmt.Errorf("copnet: empty tenant name")
	}
	b, err := cfg.Open()
	if err != nil {
		return nil, err
	}
	if s.tracer != nil {
		b.SetTracer(s.tracer)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.tenants[name]; dup {
		b.Close()
		return nil, fmt.Errorf("copnet: tenant %q already exists", name)
	}
	t := &Tenant{name: name, batched: b}
	s.tenants[name] = t
	return t, nil
}

// RemoveTenant deregisters a tenant, stops its scrubber, then drains and
// closes its memory.
func (s *Server) RemoveTenant(name string) error {
	s.mu.Lock()
	t, ok := s.tenants[name]
	if ok {
		delete(s.tenants, name)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("copnet: no tenant %q", name)
	}
	t.stopScrub()
	err := t.batched.Drain()
	t.batched.Close()
	return err
}

// Tenant looks a namespace up.
func (s *Server) Tenant(name string) (*Tenant, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tenants[name]
	return t, ok
}

// TenantInfos lists the registered tenants, name-sorted.
func (s *Server) TenantInfos() []TenantInfo {
	s.mu.RLock()
	infos := make([]TenantInfo, 0, len(s.tenants))
	for _, t := range s.tenants {
		b := t.batched
		infos = append(infos, TenantInfo{Name: t.name, Scheme: b.Mode().String(), Shards: b.NumShards(), Ops: b.Ops()})
	}
	s.mu.RUnlock()
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// snapshot is the tenant's full telemetry tree: the memory's sections plus
// this tenant's wire counters and serve-datapath latency attribution.
func (t *Tenant) snapshot() telemetry.Snapshot {
	snap := t.batched.Snapshot()
	net := t.tel.net.Snapshot()
	snap.Net = &net
	snap.Serve = t.tel.serveStats()
	snap.Finalize()
	return snap
}

// sortedTenants returns the registered tenants in name order.
func (s *Server) sortedTenants() []*Tenant {
	s.mu.RLock()
	tenants := make([]*Tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.mu.RUnlock()
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].name < tenants[j].name })
	return tenants
}

// Snapshot merges every tenant's telemetry tree (name order, so the merge
// is deterministic); it makes the Server a telemetry.Source for the
// mounted /metrics and /snapshot endpoints. The Net section is the
// service-global counter set (which also carries the scratch-pool and
// inflight gauges the per-tenant sections do not track).
func (s *Server) Snapshot() telemetry.Snapshot {
	var snap telemetry.Snapshot
	for i, t := range s.sortedTenants() {
		if i == 0 {
			snap = t.snapshot()
		} else {
			snap.Merge(t.snapshot())
		}
	}
	net := s.net.Snapshot()
	snap.Net = &net
	snap.Finalize()
	return snap
}

// Ready reports whether the service accepts traffic (false once draining).
func (s *Server) Ready() bool { return !s.draining.Load() }

// Drain executes the graceful-shutdown sequence: flip to not-ready (new
// requests bounce with 503, /readyz goes red), wait out every admitted
// request — so every acknowledged write has fully executed, its frame's
// window waited out — stop the patrol scrubbers, then quiesce each
// tenant via the shard drain machinery (LLCs flushed, shards fenced).
// After a nil return, every acknowledged write is durable in the tenants'
// DRAM images. ctx bounds only the wait for admitted requests; tenant
// drains run to completion regardless.
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() { s.inflight.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("copnet: drain fence: %w", ctx.Err())
	}
	s.mu.RLock()
	tenants := make([]*Tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.mu.RUnlock()
	var firstErr error
	for _, t := range tenants {
		t.stopScrub()
		if err := t.batched.Drain(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close drains (unbounded fence) and closes every tenant's memory.
func (s *Server) Close() error {
	err := s.Drain(context.Background())
	s.mu.Lock()
	tenants := s.tenants
	s.tenants = make(map[string]*Tenant)
	s.mu.Unlock()
	for _, t := range tenants {
		t.batched.Close()
	}
	return err
}

// StartScrub starts the tenant's patrol scrubber. The tenant owns the
// patrol: the admin scrub "stop" action, RemoveTenant and Server.Drain
// stop it. It fails while a patrol is already running.
func (t *Tenant) StartScrub(opts migrate.ScrubOptions) error {
	t.scrubMu.Lock()
	defer t.scrubMu.Unlock()
	if t.scrub != nil {
		return fmt.Errorf("copnet: tenant %q scrubber already running", t.name)
	}
	t.scrub = migrate.NewScrubber(t.batched, opts)
	t.scrub.Start()
	return nil
}

func (t *Tenant) stopScrub() {
	t.scrubMu.Lock()
	sc := t.scrub
	t.scrub = nil
	t.scrubMu.Unlock()
	if sc != nil {
		sc.Stop()
	}
}

// --- request execution ---------------------------------------------------

// execBatch runs the decoded request frame in sc against the tenant and
// returns the response frame (backed by sc.resp). Every frame, a one-op
// frame included, runs through execWindowed: consecutive read/write runs
// ride one group window (one shard-lock hold per touched shard), and each
// barrier op waits the open window out first. A window error is
// conservatively attributed to every operation in that window (the group
// reports only the first), so no failed write is ever acknowledged.
//
// Every read payload is carved out of sc.arena — one slab per frame
// instead of one make per op — and the response is appended into sc.resp,
// so a steady-state frame touches the heap only when a slab has to grow.
func (t *Tenant) execBatch(sc *frameScratch) []byte {
	ops := sc.ops
	sc.results = growResults(sc.results, len(ops))
	results := sc.results

	// Payload arena: size once, slice per op. decodeRequestInto rejected
	// any frame whose read payload exceeds maxFrameBytes, so the arena and
	// the response hint stay within that cap.
	need := 0
	for i := range ops {
		switch ops[i].kind {
		case OpRead:
			need += BlockBytes
		case OpReadRange:
			need += int(ops[i].n)
		}
	}
	sc.arena = grow(sc.arena, need)
	off := 0
	for i := range ops {
		switch ops[i].kind {
		case OpRead:
			results[i].data = sc.arena[off : off+BlockBytes : off+BlockBytes]
			off += BlockBytes
		case OpReadRange:
			n := int(ops[i].n)
			results[i].data = sc.arena[off : off+n : off+n]
			off += n
		}
	}

	t.execWindowed(ops, results, sc)

	encStart := time.Now()
	resp := grow(sc.resp, respSizeHint(ops))[:0]
	resp = append(resp, wireMagic, wireVersion)
	for i := range ops {
		resp = appendResult(resp, ops[i].kind, &results[i])
	}
	sc.resp = resp
	sc.stageNs[trace.StageEncode] += uint64(time.Since(encStart))
	return resp
}

// respSizeHint estimates the response frame size to avoid regrows.
func respSizeHint(ops []reqOp) int {
	n := 2
	for i := range ops {
		switch ops[i].kind {
		case OpRead:
			n += 1 + packedInfoLen + BlockBytes
		case OpReadRange:
			n += 5 + int(ops[i].n)
		default:
			n += 2
		}
	}
	return n
}

// execWindowed executes ops through the tenant's memory. Read payload
// buffers are preassigned in results[i].data, and each read's decoder
// verdict lands in results[i].info.
//
// Stage attribution: ring-wait is the time spent buffering a window's ops
// into the group (the stage keeps its name because dashboards and the
// serve benchmark read it); window is Wait — the shard-lock waits plus
// the execution — plus any synchronous barrier execution. Per-op latency
// for window ops is the window duration they rode — each op's completion
// latency is its window's, which is what a caller actually experiences.
// Traced frames thread each op's derived span id into the group (span 0,
// a fresh flow, when untraced), so the flight recorder joins the wire
// frame to its shard batches and DRAM accesses.
func (t *Tenant) execWindowed(ops []reqOp, results []opResult, sc *frameScratch) {
	b := t.batched
	g := b.NewGroup()
	var ringWait, window uint64
	segStart := time.Now() // first enqueue of the open window
	start := 0             // first op of the open window
	flush := func(end int) {
		waitStart := time.Now()
		ringWait += uint64(waitStart.Sub(segStart))
		err := g.Wait()
		waitEnd := time.Now()
		d := uint64(waitEnd.Sub(waitStart))
		window += d
		segStart = waitEnd
		for i := start; i < end; i++ {
			t.tel.op[ops[i].kind].Observe(d)
			if err != nil && ops[i].isWindowOp() && results[i].err == nil {
				results[i].err = err
			}
		}
		start = end
	}
	for i := range ops {
		op := &ops[i]
		r := &results[i]
		var span uint64
		if sc.traced {
			span = OpSpan(sc.traceID, i)
		}
		switch op.kind {
		case OpRead:
			g.ReadFlow(r.data, op.addr, span, &r.info)
		case OpWrite:
			g.WriteFlow(op.addr, op.data, span)
		default:
			flush(i)
			opStart := time.Now()
			t.execOne(op, r)
			d := uint64(time.Since(opStart))
			window += d
			t.tel.op[op.kind].Observe(d)
			segStart = time.Now()
			start = i + 1
		}
	}
	flush(len(ops))
	b.PutGroup(g)
	sc.stageNs[trace.StageRingWait] += ringWait
	sc.stageNs[trace.StageWindow] += window
}

// execOne executes a barrier op synchronously.
func (t *Tenant) execOne(op *reqOp, r *opResult) {
	b := t.batched
	switch op.kind {
	case OpFlush:
		r.err = b.Flush()
	case OpReadRange:
		// r.data is the arena slice execBatch preassigned (len op.n).
		r.err = b.ReadBytesInto(r.data, op.addr)
	case OpWriteRange:
		r.err = b.WriteBytes(op.addr, op.data)
	case OpSettle:
		r.err = b.Settle(op.addr)
	case OpStoredKind:
		r.flag = byte(b.StoredKind(op.addr))
	case OpInjectBit:
		if b.InjectBitFlip(op.addr, int(op.arg)) {
			r.flag = 1
		}
	case OpInjectChip:
		if b.InjectChipFailure(op.addr, int(op.arg), op.pat) {
			r.flag = 1
		}
	default:
		r.err = fmt.Errorf("unexpected op %v", op.kind)
	}
}

// --- HTTP surface --------------------------------------------------------

// Handler returns the service's full HTTP surface: the /v1 datapath, the
// /admin control plane, /healthz + /readyz probes, and the telemetry
// handler (/metrics, /snapshot, /debug/*, and /trace* when a tracer is
// mounted) as the fallback for everything else.
func (s *Server) Handler() http.Handler { return s.handler }

func (s *Server) buildHandler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.Ready() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte("ready\n"))
	})

	mux.HandleFunc("POST /v1/tenants/{tenant}/batch", s.gated(s.handleBatch))

	mux.HandleFunc("GET /admin/tenants", s.gated(s.handleTenantList))
	mux.HandleFunc("PUT /admin/tenants/{tenant}", s.gated(s.handleTenantCreate))
	mux.HandleFunc("DELETE /admin/tenants/{tenant}", s.gated(s.handleTenantDelete))
	mux.HandleFunc("POST /admin/tenants/{tenant}/migrate", s.gated(s.handleMigrate))
	mux.HandleFunc("POST /admin/tenants/{tenant}/reshard", s.gated(s.handleReshard))
	mux.HandleFunc("POST /admin/tenants/{tenant}/scrub", s.gated(s.handleScrub))

	// Service-aware telemetry endpoints: /metrics adds per-tenant label
	// variants next to the merged families, /snapshot takes a ?tenant=
	// filter, /debug/slowlog is the tail-latency capture log. Everything
	// else (/debug/*, /trace* with a tracer) falls through to the shared
	// telemetry handler.
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /snapshot", s.handleSnapshot)
	mux.HandleFunc("/debug/slowlog", s.handleSlowlog)
	mux.Handle("/", telemetry.HandlerWithTracer(s, s.tracer))
	return mux
}

// handleMetrics writes the Prometheus exposition: every family once, with
// the merged service totals as the unlabeled sample and one
// tenant-labeled sample per tenant, then the Go runtime health gauges.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	variants := []telemetry.PromVariant{{Snap: s.Snapshot()}}
	for _, t := range s.sortedTenants() {
		variants = append(variants, telemetry.PromVariant{
			Labels: []telemetry.Label{{Name: "tenant", Value: t.name}},
			Snap:   t.snapshot(),
		})
	}
	_ = telemetry.WritePrometheusVariants(w, variants...)
	_ = telemetry.WriteRuntimeMetrics(w)
}

// handleSnapshot serves the merged service snapshot, or one tenant's tree
// with ?tenant=name.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if name := r.URL.Query().Get("tenant"); name != "" {
		t, ok := s.Tenant(name)
		if !ok {
			http.Error(w, fmt.Sprintf("no tenant %q", name), http.StatusNotFound)
			return
		}
		writeJSON(w, t.snapshot())
		return
	}
	writeJSON(w, s.Snapshot())
}

// handleSlowlog serves the slow-frame capture ring (GET) and retunes the
// live threshold (POST {"threshold_ns": n}; 0 disables). The threshold is
// POSTable even when the server started without WithSlowFrames, so an
// operator can arm capture on a live service.
func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		entries, total := s.slowlog.snapshot()
		writeJSON(w, map[string]any{
			"threshold_ns": s.slowNs.Load(),
			"adaptive":     s.slowCfg.Adaptive,
			"total":        total,
			"entries":      entries,
		})
	case http.MethodPost:
		var req struct {
			ThresholdNs int64 `json:"threshold_ns"`
		}
		if err := decodeJSON(r, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if req.ThresholdNs < 0 {
			http.Error(w, "threshold_ns must be >= 0", http.StatusBadRequest)
			return
		}
		s.slowNs.Store(req.ThresholdNs)
		writeJSON(w, map[string]int64{"threshold_ns": req.ThresholdNs})
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// gated wraps a handler with the drain fence: reject once draining,
// otherwise account the request so Drain waits it out. Admitted requests
// also feed the Net inflight level and its high-water mark.
func (s *Server) gated(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.drainMu.RLock()
		if s.draining.Load() {
			s.drainMu.RUnlock()
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		s.inflight.Add(1)
		s.drainMu.RUnlock()
		defer s.inflight.Done()
		s.net.Inflight.Add(1)
		s.net.MaxInflight.Observe(uint64(s.net.Inflight.Load()))
		defer s.net.Inflight.Add(-1)
		h(w, r)
	}
}

func (s *Server) pathTenant(w http.ResponseWriter, r *http.Request) (*Tenant, bool) {
	name := r.PathValue("tenant")
	t, ok := s.Tenant(name)
	if !ok {
		http.Error(w, fmt.Sprintf("no tenant %q", name), http.StatusNotFound)
		return nil, false
	}
	return t, true
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	t, ok := s.pathTenant(w, r)
	if !ok {
		return
	}
	start := time.Now()
	sc := s.getScratch()
	defer s.putScratch(sc)
	var err error
	sc.body, err = readBodyInto(sc.body, r, maxFrameBytes)
	tRead := time.Now()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sc.ops, sc.traceID, err = decodeRequestInto(sc.ops[:0], sc.body)
	tParse := time.Now()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sc.stageNs = [trace.NumServeStages]uint64{}
	sc.traced = sc.traceID != 0 && s.netTH.Enabled()
	var frameSpan uint64
	if sc.traced {
		frameSpan = FrameSpan(sc.traceID)
		s.netTH.RecordFlow(trace.KindNetFrameBegin, frameSpan, 0,
			uint32(len(sc.ops)), 0, sc.traceID, 0, 0)
	}

	resp := t.execBatch(sc)

	t.tel.net.Frames.Inc()
	t.tel.net.Ops.Add(uint64(len(sc.ops)))
	t.tel.net.BytesIn.Add(uint64(len(sc.body)))
	t.tel.net.BytesOut.Add(uint64(len(resp)))
	s.net.Frames.Inc()
	s.net.Ops.Add(uint64(len(sc.ops)))
	s.net.BytesIn.Add(uint64(len(sc.body)))
	s.net.BytesOut.Add(uint64(len(resp)))
	w.Header().Set("Content-Type", "application/octet-stream")
	// An explicit length keeps the response out of chunked encoding: one
	// frame, one write, and the client can presize its read buffer.
	w.Header().Set("Content-Length", strconv.Itoa(len(resp)))
	wStart := time.Now()
	_, _ = w.Write(resp)
	end := time.Now()

	sc.stageNs[trace.StageRead] = uint64(tRead.Sub(start))
	sc.stageNs[trace.StageParse] = uint64(tParse.Sub(tRead))
	sc.stageNs[trace.StageWrite] = uint64(end.Sub(wStart))
	total := uint64(end.Sub(start))
	t.tel.frame.Observe(total)
	for i := range sc.stageNs {
		t.tel.stage[i].Observe(sc.stageNs[i])
	}
	if sc.traced {
		for i := range sc.stageNs {
			s.netTH.RecordFlow(trace.KindServeStage, frameSpan, 0,
				uint32(i), 0, sc.stageNs[i], 0, 0)
		}
		s.netTH.RecordFlow(trace.KindNetFrameEnd, frameSpan, 0,
			uint32(len(sc.ops)), 0, total, 0, 0)
	}
	s.noteFrame(t, sc, total)
}

// noteFrame runs the slow-frame detector after a batch frame completes.
// The disabled path is one atomic load and a compare. Adaptive mode
// re-derives the threshold from the tenant's own frame histogram every
// 1024 frames (after a 256-frame warmup): 2x the live p99.9, floored at
// the configured threshold.
func (s *Server) noteFrame(t *Tenant, sc *frameScratch, totalNs uint64) {
	thr := s.slowNs.Load()
	if s.slowCfg.Adaptive {
		if c := t.tel.frame.Count(); c >= 256 && c&1023 == 0 {
			adaptive := int64(2 * t.tel.frame.Quantile(0.999))
			if floor := int64(s.slowCfg.Threshold); adaptive < floor {
				adaptive = floor
			}
			if adaptive > 0 {
				s.slowNs.Store(adaptive)
				thr = adaptive
			}
		}
	}
	if thr <= 0 || totalNs < uint64(thr) {
		return
	}
	t.tel.slow.Inc()
	s.slowlog.add(SlowFrame{
		UnixNano: time.Now().UnixNano(),
		Tenant:   t.name,
		TraceID:  sc.traceID,
		Ops:      len(sc.ops),
		TotalNs:  totalNs,
		Stages:   slowStagesFrom(&sc.stageNs),
	})
	if s.slowCfg.Freeze && s.tracer != nil {
		s.tracer.TriggerAnomaly(trace.ReasonSlowFrame, sc.traceID)
	}
}

func (s *Server) handleTenantList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.TenantInfos())
}

func (s *Server) handleTenantCreate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("tenant")
	var cfg TenantConfig
	if err := decodeJSON(r, &cfg); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if _, err := s.CreateTenant(name, cfg); err != nil {
		code := http.StatusConflict
		if errors.Is(err, errTenantConfig) {
			code = http.StatusBadRequest
		}
		http.Error(w, err.Error(), code)
		return
	}
	w.WriteHeader(http.StatusCreated)
}

func (s *Server) handleTenantDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.RemoveTenant(r.PathValue("tenant")); err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleMigrate(w http.ResponseWriter, r *http.Request) {
	t, ok := s.pathTenant(w, r)
	if !ok {
		return
	}
	var req struct {
		Scheme      string `json:"scheme"`
		ChunkBlocks int    `json:"chunk_blocks,omitempty"`
	}
	if err := decodeJSON(r, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := migrate.MigrateTo(t.batched, req.Scheme, migrate.Options{ChunkBlocks: req.ChunkBlocks}); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, map[string]string{"scheme": req.Scheme})
}

func (s *Server) handleReshard(w http.ResponseWriter, r *http.Request) {
	t, ok := s.pathTenant(w, r)
	if !ok {
		return
	}
	var req struct {
		Shards int `json:"shards"`
	}
	if err := decodeJSON(r, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if req.Shards > maxTenantShards {
		http.Error(w, fmt.Sprintf("%d shards exceed the %d-shard ceiling", req.Shards, maxTenantShards), http.StatusBadRequest)
		return
	}
	if err := t.batched.Reshard(req.Shards); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, map[string]int{"shards": t.batched.NumShards()})
}

func (s *Server) handleScrub(w http.ResponseWriter, r *http.Request) {
	t, ok := s.pathTenant(w, r)
	if !ok {
		return
	}
	var req struct {
		Action      string `json:"action"`
		IntervalUS  int    `json:"interval_us,omitempty"`
		ChunkBlocks int    `json:"chunk_blocks,omitempty"`
	}
	if err := decodeJSON(r, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	switch req.Action {
	case "start":
		opts := migrate.ScrubOptions{ChunkBlocks: req.ChunkBlocks}
		if req.IntervalUS > 0 {
			opts.Interval = time.Duration(req.IntervalUS) * time.Microsecond
		}
		if err := t.StartScrub(opts); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
	case "stop":
		t.stopScrub()
	default:
		http.Error(w, fmt.Sprintf("scrub action %q: want start or stop", req.Action), http.StatusBadRequest)
		return
	}
	writeJSON(w, map[string]string{"scrub": req.Action})
}

// readBodyInto reads the request body into buf (reusing its capacity,
// allocation-free once warm), erroring on oversize payloads rather than
// truncating. A declared Content-Length presizes the buffer and reads it
// in full pulls instead of io.ReadAll's doubling loop; chunked bodies
// fall back to incremental appends under the same cap.
func readBodyInto(buf []byte, r *http.Request, limit int) ([]byte, error) {
	if cl := r.ContentLength; cl >= 0 {
		if cl > int64(limit) {
			return buf[:0], fmt.Errorf("request body exceeds %d bytes", limit)
		}
		buf = grow(buf, int(cl))
		if _, err := io.ReadFull(r.Body, buf); err != nil {
			return buf[:0], fmt.Errorf("read body: %w", err)
		}
		return buf, nil
	}
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if len(buf) > limit {
			return buf[:0], fmt.Errorf("request body exceeds %d bytes", limit)
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf[:0], fmt.Errorf("read body: %w", err)
		}
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad JSON body: %w", err)
	}
	return nil
}
