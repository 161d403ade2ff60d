package copnet

import (
	"bytes"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"

	"cop/internal/memctrl"
	"cop/internal/telemetry"
	"cop/internal/trace"
)

// Client talks to a copserve instance. It implements the cop.Store method
// set and faultsim.Target, so everything that drives an in-process memory
// — the load harness, the differential fault campaign — runs unchanged
// over the network: point it at a Client instead of a *shard.Batched and
// the oracle checks span the full client → wire → server → memory path.
//
// Single-op methods ride one-op batch frames. For throughput, build
// multi-op frames with NewBatch: one HTTP request becomes one group
// window on the server (deep per-shard batches), which is the network
// analogue of shard.Group.
//
// A Client is safe for concurrent use; each Batch is single-submitter,
// like the shard.Group it maps onto. For pipelining, run several batches
// concurrently — Batch.Start issues a frame without blocking, so one
// goroutine can keep N frames in flight over N batches (HTTP/2 multiplexes
// them onto one connection; HTTP/1.1 falls back to pooled connections).
type Client struct {
	base   string
	tenant string
	hc     *http.Client

	// batches recycles Batch objects (wire buffer, response body, result
	// table) across the single-op Store/Target methods, so a steady-state
	// Read/Write rebuilds no buffers.
	batches sync.Pool

	// th is the flight-recorder handle traced batches record into (nil
	// without WithClientTracer — every use is through the nil-safe Handle
	// methods, so the untraced cost is one nil check per frame). traceCtr
	// feeds nextTraceID.
	tracer   *trace.Tracer
	th       *trace.Handle
	traceCtr atomic.Uint64
}

// ClientOption configures Dial.
type ClientOption func(*Client)

// WithTenant selects the namespace (default "default").
func WithTenant(name string) ClientOption {
	return func(c *Client) { c.tenant = name }
}

// WithHTTPClient substitutes the transport wholesale.
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) { c.hc = hc }
}

// WithServerCert trusts exactly the given PEM certificate (the one
// copserve printed with -tls-cert-out) and enables HTTP/2 via ALPN.
func WithServerCert(certPEM []byte) ClientOption {
	return func(c *Client) {
		pool := x509.NewCertPool()
		pool.AppendCertsFromPEM(certPEM)
		c.hc = &http.Client{Transport: &http.Transport{
			TLSClientConfig:   &tls.Config{RootCAs: pool},
			ForceAttemptHTTP2: true,
		}}
	}
}

// WithClientTracer attaches a flight recorder to the client: while it is
// recording, every batch becomes a version-2 traced frame carrying a
// fresh 64-bit trace id, the client records submit/send/receive events
// under the derived span ids, and a server sharing the tracer (or merged
// later via trace.MergeAligned) joins its own records to the same flows.
func WithClientTracer(tr *trace.Tracer) ClientOption {
	return func(c *Client) {
		c.tracer = tr
		if tr != nil {
			c.th = tr.Handle(0)
		}
	}
}

// nextTraceID allocates a nonzero wire trace id. Sequential counter values
// are scrambled through mix64 so concurrent clients' ids (and the span
// runs derived from them) spread across the flow-id space.
func (c *Client) nextTraceID() uint64 {
	id := mix64(c.traceCtr.Add(1))
	if id == 0 {
		id = 1
	}
	return id
}

// WithInsecureTLS skips certificate verification (self-signed dev certs);
// still negotiates HTTP/2.
func WithInsecureTLS() ClientOption {
	return func(c *Client) {
		c.hc = &http.Client{Transport: &http.Transport{
			TLSClientConfig:   &tls.Config{InsecureSkipVerify: true},
			ForceAttemptHTTP2: true,
		}}
	}
}

// Dial builds a client for the service at base (e.g. "https://127.0.0.1:7070"
// or "http://..." for the plaintext listener). No connection is made until
// the first request.
//
// The default transport keeps a deep per-host idle pool: many Clients (or
// one Client with many frames in flight) would thrash connections through
// http.DefaultTransport's two-per-host idle cap, paying a dial plus
// handshake on most frames.
func Dial(base string, opts ...ClientOption) (*Client, error) {
	if base == "" {
		return nil, fmt.Errorf("copnet: empty base URL")
	}
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	hc := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 256,
		ForceAttemptHTTP2:   true,
	}}
	c := &Client{base: strings.TrimRight(base, "/"), tenant: "default", hc: hc}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// Tenant returns the namespace this client addresses.
func (c *Client) Tenant() string { return c.tenant }

func (c *Client) url(path string) string { return c.base + path }

func (c *Client) tenantURL(suffix string) string {
	return c.base + "/v1/tenants/" + c.tenant + suffix
}

// maxJSONResponseBytes caps the admin/telemetry JSON bodies the client
// will buffer; binary batch responses carry a per-batch bound instead.
const maxJSONResponseBytes = 1 << 24

// maxErrMsgBytes is the per-op error-message allowance folded into a
// batch's response-size bound (server messages are short; the slack only
// widens the bound, it never allocates).
const maxErrMsgBytes = 4096

// do issues a request and returns the whole response body; non-2xx
// statuses become errors carrying the server's message.
func (c *Client) do(method, url, contentType string, body []byte) ([]byte, error) {
	return c.doInto(nil, method, url, contentType, body, maxJSONResponseBytes)
}

// doInto issues a request and reads the response into dst (capacity
// reused), bounding the read at limit bytes — the response analogue of
// the server's readBodyInto, so a misbehaving or hostile server cannot
// balloon the client. Non-2xx statuses become errors carrying the
// server's message.
func (c *Client) doInto(dst []byte, method, url, contentType string, body []byte, limit int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		// Error bodies are human-readable lines; buffer at most the
		// message allowance and truncate the rest — the status must
		// surface whatever the body's size claims.
		buf := grow(dst, maxErrMsgBytes)
		n, _ := io.ReadFull(resp.Body, buf)
		return buf[:0], fmt.Errorf("copnet: %s %s: %s: %s",
			method, url, resp.Status, strings.TrimSpace(string(buf[:n])))
	}
	return readRespInto(dst, resp, limit)
}

// readRespInto reads an HTTP response body into buf (capacity reused),
// erroring if it exceeds limit. A declared Content-Length presizes the
// buffer and reads it in full pulls; chunked bodies fall back to
// incremental appends under the same cap.
func readRespInto(buf []byte, resp *http.Response, limit int) ([]byte, error) {
	if cl := resp.ContentLength; cl >= 0 {
		if cl > int64(limit) {
			return buf[:0], fmt.Errorf("copnet: response of %d bytes exceeds the %d-byte cap", cl, limit)
		}
		buf = grow(buf, int(cl))
		if _, err := io.ReadFull(resp.Body, buf); err != nil {
			return buf[:0], fmt.Errorf("copnet: read response: %w", err)
		}
		return buf, nil
	}
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := resp.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if len(buf) > limit {
			return buf[:0], fmt.Errorf("copnet: response exceeds the %d-byte cap", limit)
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf[:0], fmt.Errorf("copnet: read response: %w", err)
		}
	}
}

// --- batches -------------------------------------------------------------

// Batch accumulates operations for one request frame. Read/Write runs map
// onto one server-side group window; Flush/Settle/StoredKind/Inject* are
// barriers, exactly as in shard.Group. Build, then Do (blocking) or Start
// (pipelined).
//
// A Batch is reusable: Do resets it keeping every buffer's capacity, so a
// loop of fill→Do→fill→Do reaches a steady state with zero allocations on
// the client frame path.
type Batch struct {
	c     *Client
	buf   []byte
	kinds []OpKind

	// trace is the frame's wire trace id: nonzero exactly when the owning
	// client has a recording tracer, in which case the frame went out as
	// a version-2 header and per-op span ids derive from it.
	trace uint64

	// respBound is the proven upper bound on this frame's response size:
	// per op, the larger of its success payload and the error-message
	// allowance. It bounds doInto's read — never allocated, only checked.
	respBound int

	body    []byte   // reused response frame buffer
	results []Result // reused result table (Data fields alias body)
}

// Result is one operation's outcome. Data aliases the response buffer
// (valid until the next Do on a reused batch); Info is a read's decoder
// verdict — the memctrl.ReadInfo the server's window filled for it — and
// zero for every other op; Flag carries StoredKind values and inject
// hit/miss.
type Result struct {
	Err  error
	Info memctrl.ReadInfo
	Data []byte
	Flag byte
}

// NewBatch starts an empty operation frame against the client's tenant.
func (c *Client) NewBatch() *Batch {
	b := &Batch{c: c}
	b.Reset()
	return b
}

// Reset clears the batch for refilling, keeping every buffer's capacity.
// Do calls it automatically; explicit Reset is only needed to abandon a
// half-built frame. While the owning client's tracer records, the frame
// starts as a version-2 header carrying a fresh trace id.
func (b *Batch) Reset() {
	b.trace = 0
	if c := b.c; c != nil && c.th.Enabled() {
		b.trace = c.nextTraceID()
		b.buf = appendU64(append(b.buf[:0], wireMagic, wireVersionTraced), b.trace)
	} else {
		b.buf = append(b.buf[:0], wireMagic, wireVersion)
	}
	b.kinds = b.kinds[:0]
	b.respBound = 2 // responses are always version 1
}

// TraceID returns the wire trace id the current frame carries (0 when
// untraced). Valid until the next Reset/Do.
func (b *Batch) TraceID() uint64 { return b.trace }

// add records an enqueued op and folds its response-size contribution
// into the frame bound: the larger of the op's success payload and an
// error result (status + length + capped message). Traced frames record
// the submission under the op's derived span id — the same id the server
// threads into the shard window, which is what joins client submit to
// server execution in the merged trace.
func (b *Batch) add(kind OpKind, okBytes int) {
	if b.trace != 0 {
		b.c.th.RecordFlow(trace.KindNetOp, OpSpan(b.trace, len(b.kinds)), 0,
			uint32(kind), 0, uint64(len(b.kinds)), 0, 0)
	}
	b.kinds = append(b.kinds, kind)
	b.respBound += max(okBytes, 1+4+maxErrMsgBytes)
}

// Read enqueues a 64-byte block read.
func (b *Batch) Read(addr uint64) *Batch {
	b.buf = appendRead(b.buf, addr)
	b.add(OpRead, 1+packedInfoLen+BlockBytes)
	return b
}

// Write enqueues a 64-byte block write.
func (b *Batch) Write(addr uint64, data []byte) *Batch {
	b.buf = appendWrite(b.buf, addr, data)
	b.add(OpWrite, 1)
	return b
}

// ReadRange enqueues an n-byte range read at addr (barrier op).
func (b *Batch) ReadRange(addr uint64, n int) *Batch {
	b.buf = appendReadRange(b.buf, addr, uint32(n))
	b.add(OpReadRange, 1+4+n)
	return b
}

// WriteRange enqueues a byte-range write (barrier op).
func (b *Batch) WriteRange(addr uint64, data []byte) *Batch {
	b.buf = appendWriteRange(b.buf, addr, data)
	b.add(OpWriteRange, 1)
	return b
}

// Flush enqueues a full LLC write-back barrier.
func (b *Batch) Flush() *Batch {
	b.buf = appendFlush(b.buf)
	b.add(OpFlush, 1)
	return b
}

// Settle enqueues a single-block write-back barrier.
func (b *Batch) Settle(addr uint64) *Batch {
	b.buf = appendAddrOp(b.buf, OpSettle, addr)
	b.add(OpSettle, 1)
	return b
}

// StoredKind enqueues a ground-truth DRAM image query; the result's Flag
// holds the memctrl.StoredKind.
func (b *Batch) StoredKind(addr uint64) *Batch {
	b.buf = appendAddrOp(b.buf, OpStoredKind, addr)
	b.add(OpStoredKind, 2)
	return b
}

// InjectBit enqueues a single-bit fault injection; Flag 1 means the image
// existed and the flip landed.
func (b *Batch) InjectBit(addr uint64, bit int) *Batch {
	b.buf = appendInjectBit(b.buf, addr, int32(bit))
	b.add(OpInjectBit, 2)
	return b
}

// InjectChip enqueues a whole-chip failure injection.
func (b *Batch) InjectChip(addr uint64, chip int, pattern byte) *Batch {
	b.buf = appendInjectChip(b.buf, addr, int32(chip), pattern)
	b.add(OpInjectChip, 2)
	return b
}

// Len reports the queued operation count.
func (b *Batch) Len() int { return len(b.kinds) }

// Do ships the frame and returns per-op results in enqueue order. A
// non-nil error means the frame itself failed (transport, HTTP status,
// malformed response) and no per-op outcome is known; per-op failures
// land in Result.Err. The batch resets for refilling either way; the
// returned results (and their Data payloads) stay valid until the next
// Do on this batch.
func (b *Batch) Do() ([]Result, error) {
	if len(b.kinds) == 0 {
		return nil, nil
	}
	tid, n := b.trace, len(b.kinds)
	if tid != 0 {
		b.c.th.RecordFlow(trace.KindNetFrameSend, FrameSpan(tid), 0,
			uint32(n), 0, tid, 0, 0)
	}
	body, err := b.c.doInto(b.body[:0], http.MethodPost, b.c.tenantURL("/batch"),
		"application/octet-stream", b.buf, b.respBound)
	b.body = body
	if err != nil {
		b.Reset()
		return nil, err
	}
	if tid != 0 {
		b.c.th.RecordFlow(trace.KindNetFrameRecv, FrameSpan(tid), 0,
			uint32(n), 0, tid, 0, 0)
	}
	results, err := parseResults(body, b.kinds, b.results[:0])
	b.results = results
	b.Reset()
	if err != nil {
		return nil, err
	}
	return results, nil
}

// parseResults decodes a response frame's result stream into out
// (capacity reused), one Result per request op. Data payloads alias body.
func parseResults(body []byte, kinds []OpKind, out []Result) ([]Result, error) {
	rest, err := checkHeader(body)
	if err != nil {
		return out, err
	}
	for i, kind := range kinds {
		var r opResult
		r, rest, err = decodeResult(rest, kind)
		if err != nil {
			return out, fmt.Errorf("copnet: response op %d/%d: %w", i, len(kinds), err)
		}
		out = append(out, Result{Err: r.err, Info: r.info, Data: r.data, Flag: r.flag})
	}
	if len(rest) != 0 {
		return out, fmt.Errorf("copnet: %d trailing bytes after %d results", len(rest), len(kinds))
	}
	return out, nil
}

// PendingBatch is a frame in flight, issued by Batch.Start.
type PendingBatch struct {
	b       *Batch
	results []Result
	err     error
	done    chan struct{}
}

// Start ships the frame without waiting for the response, so one
// goroutine can keep several frames in flight over several batches —
// HTTP/2 multiplexes them as concurrent streams on one connection
// (HTTP/1.1 falls back to pooled connections). The batch must not be
// touched until Wait returns.
func (b *Batch) Start() *PendingBatch {
	p := &PendingBatch{b: b, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		p.results, p.err = b.Do()
	}()
	return p
}

// Wait blocks until the response arrives and returns exactly what the
// underlying Do did. The batch is reset and may be refilled and
// restarted; the results stay valid until its next Do or Start.
func (p *PendingBatch) Wait() ([]Result, error) {
	<-p.done
	return p.results, p.err
}

// --- single-op Store / Target surface ------------------------------------

// getBatch takes a pooled batch (falling back to NewBatch on a cold pool).
func (c *Client) getBatch() *Batch {
	if v := c.batches.Get(); v != nil {
		return v.(*Batch)
	}
	return c.NewBatch()
}

// putBatch recycles b. A batch whose buffers outgrew the retention cap
// (a huge range op) is dropped so the pool does not pin its slabs.
func (c *Client) putBatch(b *Batch) {
	if cap(b.buf) > maxRetainBytes || cap(b.body) > maxRetainBytes {
		return
	}
	c.batches.Put(b)
}

// one runs a single-op frame through a pooled batch and returns its
// result. Any payload is detached from the pooled response buffer by
// copying it into dst (capacity reused; nil allocates exactly), so the
// returned Result outlives the batch's recycling.
func (c *Client) one(dst []byte, build func(*Batch)) (Result, error) {
	b := c.getBatch()
	build(b)
	rs, err := b.Do()
	if err != nil {
		c.putBatch(b)
		return Result{}, err
	}
	r := rs[0]
	if r.Data != nil {
		r.Data = append(dst[:0], r.Data...)
	}
	c.putBatch(b)
	return r, nil
}

// Read fetches one block.
func (c *Client) Read(addr uint64) ([]byte, error) {
	out := make([]byte, BlockBytes)
	if _, err := c.ReadInto(out, addr); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadInto fetches one block into dst (len ≥ BlockBytes), allocation-free
// once the client's batch pool is warm.
func (c *Client) ReadInto(dst []byte, addr uint64) (memctrl.ReadInfo, error) {
	r, err := c.one(dst, func(b *Batch) { b.Read(addr) })
	if err != nil {
		return memctrl.ReadInfo{}, err
	}
	if r.Err != nil {
		return memctrl.ReadInfo{}, r.Err
	}
	copy(dst, r.Data)
	return r.Info, nil
}

// ReadWithInfo fetches one block plus its decode verdict (faultsim.Target).
func (c *Client) ReadWithInfo(addr uint64) ([]byte, memctrl.ReadInfo, error) {
	dst := make([]byte, BlockBytes)
	info, err := c.ReadInto(dst, addr)
	if err != nil {
		return nil, memctrl.ReadInfo{}, err
	}
	return dst, info, nil
}

// Write stores one block.
func (c *Client) Write(addr uint64, data []byte) error {
	r, err := c.one(nil, func(b *Batch) { b.Write(addr, data) })
	if err != nil {
		return err
	}
	return r.Err
}

// Flush writes back every dirty LLC line on the tenant.
func (c *Client) Flush() error {
	r, err := c.one(nil, func(b *Batch) { b.Flush() })
	if err != nil {
		return err
	}
	return r.Err
}

// Settle writes back one block if dirty (faultsim.Target).
func (c *Client) Settle(addr uint64) error {
	r, err := c.one(nil, func(b *Batch) { b.Settle(addr) })
	if err != nil {
		return err
	}
	return r.Err
}

// StoredKind queries the tenant's ground-truth DRAM image
// (faultsim.Target). Transport failures report StoredNone.
func (c *Client) StoredKind(addr uint64) memctrl.StoredKind {
	r, err := c.one(nil, func(b *Batch) { b.StoredKind(addr) })
	if err != nil || r.Err != nil {
		return memctrl.StoredNone
	}
	return memctrl.StoredKind(r.Flag)
}

// InjectBitFlip flips one stored bit in the tenant's DRAM image
// (faultsim.Target); false when no image exists or the frame failed.
func (c *Client) InjectBitFlip(addr uint64, bit int) bool {
	r, err := c.one(nil, func(b *Batch) { b.InjectBit(addr, bit) })
	return err == nil && r.Err == nil && r.Flag == 1
}

// InjectChipFailure corrupts one chip's slice of the stored image.
func (c *Client) InjectChipFailure(addr uint64, chip int, pattern byte) bool {
	r, err := c.one(nil, func(b *Batch) { b.InjectChip(addr, chip, pattern) })
	return err == nil && r.Err == nil && r.Flag == 1
}

// ReadBytes fetches an arbitrary byte range.
func (c *Client) ReadBytes(addr uint64, n int) ([]byte, error) {
	return c.ReadBytesInto(nil, addr, n)
}

// ReadBytesInto fetches an n-byte range into dst's storage (capacity
// reused, reallocated when short; nil allocates exactly), returning the
// filled slice.
func (c *Client) ReadBytesInto(dst []byte, addr uint64, n int) ([]byte, error) {
	r, err := c.one(dst, func(b *Batch) { b.ReadRange(addr, n) })
	if err != nil {
		return nil, err
	}
	if r.Err != nil {
		return nil, r.Err
	}
	return r.Data, nil
}

// WriteBytes stores an arbitrary byte range.
func (c *Client) WriteBytes(addr uint64, data []byte) error {
	r, err := c.one(nil, func(b *Batch) { b.WriteRange(addr, data) })
	if err != nil {
		return err
	}
	return r.Err
}

// Snapshot fetches the tenant's telemetry tree from /snapshot?tenant=.
// Errors yield a zero snapshot — Store.Snapshot carries no error, and
// telemetry must never fail the datapath.
func (c *Client) Snapshot() telemetry.Snapshot {
	var snap telemetry.Snapshot
	body, err := c.do(http.MethodGet, c.url("/snapshot?tenant="+url.QueryEscape(c.tenant)), "", nil)
	if err != nil {
		return snap
	}
	_ = json.Unmarshal(body, &snap)
	return snap
}

// --- admin ---------------------------------------------------------------

// Ready probes /readyz: true while the service accepts traffic.
func (c *Client) Ready() bool {
	_, err := c.do(http.MethodGet, c.url("/readyz"), "", nil)
	return err == nil
}

// Healthy probes /healthz.
func (c *Client) Healthy() bool {
	_, err := c.do(http.MethodGet, c.url("/healthz"), "", nil)
	return err == nil
}

// CreateTenant provisions a namespace with its own protected memory.
func (c *Client) CreateTenant(name string, cfg TenantConfig) error {
	body, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	_, err = c.do(http.MethodPut, c.url("/admin/tenants/"+name), "application/json", body)
	return err
}

// DropTenant drains and removes a namespace.
func (c *Client) DropTenant(name string) error {
	_, err := c.do(http.MethodDelete, c.url("/admin/tenants/"+name), "", nil)
	return err
}

// Tenants lists the service's namespaces.
func (c *Client) Tenants() ([]TenantInfo, error) {
	body, err := c.do(http.MethodGet, c.url("/admin/tenants"), "", nil)
	if err != nil {
		return nil, err
	}
	var infos []TenantInfo
	if err := json.Unmarshal(body, &infos); err != nil {
		return nil, err
	}
	return infos, nil
}

// MigrateTenant live-migrates a namespace to another protection scheme
// while it serves traffic.
func (c *Client) MigrateTenant(name, scheme string, chunkBlocks int) error {
	body, _ := json.Marshal(map[string]any{"scheme": scheme, "chunk_blocks": chunkBlocks})
	_, err := c.do(http.MethodPost, c.url("/admin/tenants/"+name+"/migrate"), "application/json", body)
	return err
}

// ReshardTenant live-changes a namespace's stripe count.
func (c *Client) ReshardTenant(name string, shards int) error {
	body, _ := json.Marshal(map[string]int{"shards": shards})
	_, err := c.do(http.MethodPost, c.url("/admin/tenants/"+name+"/reshard"), "application/json", body)
	return err
}

// ScrubTenant starts ("start") or stops ("stop") the namespace's patrol
// scrubber. intervalUS and chunkBlocks apply to "start" (0: defaults).
func (c *Client) ScrubTenant(name, action string, intervalUS, chunkBlocks int) error {
	body, _ := json.Marshal(map[string]any{
		"action": action, "interval_us": intervalUS, "chunk_blocks": chunkBlocks,
	})
	_, err := c.do(http.MethodPost, c.url("/admin/tenants/"+name+"/scrub"), "application/json", body)
	return err
}

// TraceStart resets the server's flight recorder and begins recording
// (the server must be running with tracing mounted, e.g. copserve -trace).
func (c *Client) TraceStart() error {
	_, err := c.do(http.MethodPost, c.url("/trace/start"), "", nil)
	return err
}

// TraceStop stops the server's flight recorder; the rings keep their
// contents for TraceDump.
func (c *Client) TraceStop() error {
	_, err := c.do(http.MethodPost, c.url("/trace/stop"), "", nil)
	return err
}

// TraceDump fetches the server's ring contents as a binary flight-recorder
// dump. Merge with local client records via trace.MergeAligned to get one
// cross-machine timeline.
func (c *Client) TraceDump() (*trace.Dump, error) {
	body, err := c.do(http.MethodGet, c.url("/trace.bin"), "", nil)
	if err != nil {
		return nil, err
	}
	return trace.ReadDump(bytes.NewReader(body))
}

// ServiceSnapshot fetches the whole-service merged telemetry tree.
func (c *Client) ServiceSnapshot() (telemetry.Snapshot, error) {
	var snap telemetry.Snapshot
	body, err := c.do(http.MethodGet, c.url("/snapshot"), "", nil)
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return snap, err
	}
	return snap, nil
}
