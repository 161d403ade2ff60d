package copnet

// Integration tests run the real server core and the real client against
// each other — over httptest loopback listeners, so the bytes cross the
// full encode → HTTP → decode → shard-window → respond path, exactly as
// the copserve/copload binaries exercise it.

import (
	"bytes"
	"context"
	"crypto/tls"
	"crypto/x509"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cop/internal/cli"
	"cop/internal/faultsim"
	"cop/internal/migrate"
	"cop/internal/reliability"
	"cop/internal/workload"
)

func testServer(t *testing.T, tenants ...string) (*Server, *httptest.Server) {
	t.Helper()
	if len(tenants) == 0 {
		tenants = []string{"default"}
	}
	srv := NewServer()
	for _, name := range tenants {
		// Small LLC so traffic actually reaches the DRAM image; 2 shards
		// keeps the window machinery honest without needing many cores.
		if _, err := srv.CreateTenant(name, TenantConfig{Scheme: "cop-er", Shards: 2, LLCBytes: 64 * 1024, LLCWays: 8}); err != nil {
			t.Fatal(err)
		}
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); _ = srv.Close() })
	return srv, hs
}

func testClient(t *testing.T, hs *httptest.Server, opts ...ClientOption) *Client {
	t.Helper()
	c, err := Dial(hs.URL, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func block(seed byte) []byte {
	b := make([]byte, BlockBytes)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

// TestWireRoundTrip pins the frame codec: every op kind encodes, decodes,
// and round-trips its payload.
func TestWireRoundTrip(t *testing.T) {
	buf := frameHeader()
	buf = appendRead(buf, 64)
	buf = appendWrite(buf, 128, block(3))
	buf = appendReadRange(buf, 0, 100)
	buf = appendWriteRange(buf, 256, []byte("hello, protected memory"))
	buf = appendFlush(buf)
	buf = appendAddrOp(buf, OpSettle, 64)
	buf = appendAddrOp(buf, OpStoredKind, 64)
	buf = appendInjectBit(buf, 64, 17)
	buf = appendInjectChip(buf, 64, 3, 0x5A)

	ops, err := decodeRequest(buf)
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := []OpKind{OpRead, OpWrite, OpReadRange, OpWriteRange, OpFlush, OpSettle, OpStoredKind, OpInjectBit, OpInjectChip}
	if len(ops) != len(wantKinds) {
		t.Fatalf("decoded %d ops, want %d", len(ops), len(wantKinds))
	}
	for i, k := range wantKinds {
		if ops[i].kind != k {
			t.Errorf("op %d: kind %v, want %v", i, ops[i].kind, k)
		}
	}
	if ops[0].addr != 64 || ops[1].addr != 128 {
		t.Errorf("addresses: got %d, %d", ops[0].addr, ops[1].addr)
	}
	if !bytes.Equal(ops[1].data, block(3)) {
		t.Error("write payload mangled")
	}
	if ops[2].n != 100 {
		t.Errorf("range length: got %d, want 100", ops[2].n)
	}
	if string(ops[3].data) != "hello, protected memory" {
		t.Error("range payload mangled")
	}
	if ops[7].arg != 17 {
		t.Errorf("inject bit: got %d, want 17", ops[7].arg)
	}
	if ops[8].arg != 3 || ops[8].pat != 0x5A {
		t.Errorf("inject chip: got arg=%d pat=%#x", ops[8].arg, ops[8].pat)
	}

	// Truncated and corrupted frames must refuse, not panic.
	if _, err := decodeRequest(buf[:len(buf)-3]); err == nil {
		t.Error("truncated frame accepted")
	}
	bad := append([]byte(nil), buf...)
	bad[0] ^= 0xFF
	if _, err := decodeRequest(bad); err == nil {
		t.Error("bad magic accepted")
	}
}

// overPayloadFrame is a hostile frame well under the body cap — 13 bytes
// per op — whose maxFrameOps read-ranges of maxRangeBytes each would ask
// the server for a 64 GiB response.
func overPayloadFrame() []byte {
	frame := frameHeader()
	for i := 0; i < maxFrameOps; i++ {
		frame = appendReadRange(frame, 0, maxRangeBytes)
	}
	return frame
}

// TestDecodeCapsReadPayload: a frame's read payload — 64 bytes per read
// plus n per read-range — may not exceed the body cap, so no frame the
// handler accepts can size a response beyond it.
func TestDecodeCapsReadPayload(t *testing.T) {
	hostile := overPayloadFrame()
	if len(hostile) > maxFrameBytes {
		t.Fatalf("hostile frame is %d bytes, over the %d-byte body cap", len(hostile), maxFrameBytes)
	}
	if _, err := decodeRequest(hostile); err == nil {
		t.Fatal("accepted 65,536 read-ranges of 1 MiB each")
	}
	reads := frameHeader()
	for i := 0; i < maxFrameOps; i++ {
		reads = appendRead(reads, uint64(i)*BlockBytes)
	}
	if ops, err := decodeRequest(reads); err != nil || len(ops) != maxFrameOps {
		t.Fatalf("maximal read frame: %d ops, %v", len(ops), err)
	}
	ranges := frameHeader()
	for i := 0; i < 4; i++ {
		ranges = appendReadRange(ranges, 0, maxRangeBytes)
	}
	if _, err := decodeRequest(ranges); err != nil {
		t.Fatalf("four 1 MiB read-ranges: %v", err)
	}
}

// TestBatchRejectsOversizedReadPayload: the handler answers 400 for a
// frame whose read payload passes the cap, like any malformed frame, and
// serves one just under it.
func TestBatchRejectsOversizedReadPayload(t *testing.T) {
	_, hs := testServer(t)
	for _, tc := range []struct {
		ranges, status int
	}{{5, http.StatusBadRequest}, {4, http.StatusOK}} {
		frame := frameHeader()
		for i := 0; i < tc.ranges; i++ {
			frame = appendReadRange(frame, 0, maxRangeBytes)
		}
		resp, err := hs.Client().Post(hs.URL+"/v1/tenants/default/batch", "application/octet-stream", bytes.NewReader(frame))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("%d read-ranges of 1 MiB: status %d, want %d", tc.ranges, resp.StatusCode, tc.status)
		}
	}
}

// TestClientServerRoundTrip drives writes, reads, flush, and ranges
// through the full network path and checks every byte.
func TestClientServerRoundTrip(t *testing.T) {
	_, hs := testServer(t)
	c := testClient(t, hs)

	want := map[uint64][]byte{}
	for i := 0; i < 64; i++ {
		addr := uint64(i) * BlockBytes
		data := block(byte(i))
		want[addr] = data
		if err := c.Write(addr, data); err != nil {
			t.Fatalf("write %#x: %v", addr, err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for addr, data := range want {
		got, err := c.Read(addr)
		if err != nil {
			t.Fatalf("read %#x: %v", addr, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("read %#x: content mismatch", addr)
		}
	}

	// Multi-op window: interleaved reads and writes in one frame, results
	// in enqueue order, same-block ordering preserved.
	b := c.NewBatch()
	fresh := block(0xAA)
	b.Write(0, fresh).Read(0).Read(64)
	rs, err := b.Do()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("got %d results, want 3", len(rs))
	}
	for i, r := range rs {
		if r.Err != nil {
			t.Fatalf("op %d: %v", i, r.Err)
		}
	}
	if !bytes.Equal(rs[1].Data, fresh) {
		t.Error("windowed read did not observe the same-window write")
	}
	if !bytes.Equal(rs[2].Data, want[64]) {
		t.Error("windowed read of untouched block mangled")
	}

	// Byte ranges across block boundaries.
	payload := []byte("range payload spanning more than one sixty-four byte block boundary")
	if err := c.WriteBytes(1000, payload); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadBytes(1000, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("range round-trip mangled")
	}

	// Telemetry flows back.
	snap := c.Snapshot()
	if snap.Scheme != "cop-er" {
		t.Errorf("snapshot scheme %q, want cop-er", snap.Scheme)
	}
	if snap.Controller.Stores == 0 {
		t.Error("snapshot records no stores")
	}
}

// TestTenantIsolation pins the namespace property: the same address in
// two tenants holds independent content.
func TestTenantIsolation(t *testing.T) {
	_, hs := testServer(t, "red", "blue")
	red := testClient(t, hs, WithTenant("red"))
	blue := testClient(t, hs, WithTenant("blue"))

	if err := red.Write(0, block(0x11)); err != nil {
		t.Fatal(err)
	}
	if err := blue.Write(0, block(0x22)); err != nil {
		t.Fatal(err)
	}
	r, err := red.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	bl, err := blue.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r, block(0x11)) || !bytes.Equal(bl, block(0x22)) {
		t.Fatal("tenants share state")
	}
	if _, err := red.Read(0); err != nil {
		t.Fatal(err)
	}
	if c := testClient(t, hs, WithTenant("ghost")); c.Ready() {
		if _, err := c.Read(0); err == nil {
			t.Fatal("unknown tenant served")
		}
	}
}

// TestAdminLifecycle walks the control plane: create, list, migrate,
// reshard, scrub, drop — against live traffic state.
func TestAdminLifecycle(t *testing.T) {
	_, hs := testServer(t)
	admin := testClient(t, hs)

	if err := admin.CreateTenant("worker", TenantConfig{Scheme: "cop", Shards: 2, LLCBytes: 64 * 1024, LLCWays: 8}); err != nil {
		t.Fatal(err)
	}
	if err := admin.CreateTenant("worker", TenantConfig{}); err == nil {
		t.Fatal("duplicate tenant accepted")
	}
	infos, err := admin.Tenants()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 || infos[0].Name != "default" || infos[1].Name != "worker" {
		t.Fatalf("tenant listing %+v", infos)
	}
	if infos[1].Scheme != "cop" {
		t.Fatalf("worker scheme %q, want cop", infos[1].Scheme)
	}

	// Populate, then migrate live and verify content survives.
	w := testClient(t, hs, WithTenant("worker"))
	want := map[uint64][]byte{}
	for i := 0; i < 32; i++ {
		addr := uint64(i) * BlockBytes
		want[addr] = block(byte(i + 100))
		if err := w.Write(addr, want[addr]); err != nil {
			t.Fatal(err)
		}
	}
	if err := admin.MigrateTenant("worker", "ecc-region", 8); err != nil {
		t.Fatal(err)
	}
	snap := w.Snapshot()
	if snap.Scheme != "ecc-region" {
		t.Fatalf("post-migration scheme %q", snap.Scheme)
	}
	for addr, data := range want {
		got, err := w.Read(addr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("block %#x lost in migration", addr)
		}
	}

	if err := admin.ReshardTenant("worker", 4); err != nil {
		t.Fatal(err)
	}
	for addr, data := range want {
		got, err := w.Read(addr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("block %#x lost in reshard", addr)
		}
	}

	if err := admin.ScrubTenant("worker", "start", 1000, 64); err != nil {
		t.Fatal(err)
	}
	if err := admin.ScrubTenant("worker", "start", 0, 0); err == nil {
		t.Fatal("double scrub start accepted")
	}
	if err := admin.ScrubTenant("worker", "stop", 0, 0); err != nil {
		t.Fatal(err)
	}

	if err := admin.DropTenant("worker"); err != nil {
		t.Fatal(err)
	}
	if infos, _ := admin.Tenants(); len(infos) != 1 {
		t.Fatalf("tenant not dropped: %+v", infos)
	}
}

// TestStartScrubOwnedByTenant pins who owns a patrol started outside the
// admin API, as copserve -scrub starts one: the tenant. An admin start
// then conflicts with it instead of adding a second patrol, and
// Server.Drain stops it, so no scan runs once Drain has returned.
func TestStartScrubOwnedByTenant(t *testing.T) {
	srv, hs := testServer(t)
	b := testClient(t, hs).NewBatch()
	for i := 0; i < 64; i++ {
		b.Write(uint64(i)*BlockBytes, block(byte(i)))
	}
	if _, err := b.Flush().Do(); err != nil {
		t.Fatal(err)
	}
	tn, _ := srv.Tenant("default")
	if err := tn.StartScrub(migrate.ScrubOptions{Interval: 100 * time.Microsecond}); err != nil {
		t.Fatal(err)
	}

	resp, err := hs.Client().Post(hs.URL+"/admin/tenants/default/scrub", "application/json",
		strings.NewReader(`{"action": "start"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("admin scrub start beside a running patrol: status %d, want 409", resp.StatusCode)
	}

	scans := func() uint64 { return tn.Batched().Snapshot().Controller.ScrubScans }
	for deadline := time.Now().Add(5 * time.Second); scans() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("patrol made no scans")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	tn.scrubMu.Lock()
	running := tn.scrub != nil
	tn.scrubMu.Unlock()
	if running {
		t.Error("tenant still holds a patrol after Drain returned")
	}
	before := scans()
	time.Sleep(50 * time.Millisecond)
	if after := scans(); after != before {
		t.Errorf("patrol scanned after Drain returned: %d -> %d scans", before, after)
	}
}

// TestAdminRejectsHostileGeometry sends admin bodies whose sizes would
// make a tenant allocate far more memory than any machine has — the Go
// runtime aborts the process on such an allocation, and recover cannot
// catch it. Each must be refused with a 4xx (400 for an invalid config),
// and the service must go on serving frames.
func TestAdminRejectsHostileGeometry(t *testing.T) {
	_, hs := testServer(t)
	send := func(method, path, body string) int {
		t.Helper()
		req, err := http.NewRequest(method, hs.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := hs.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	// The first and fourth bodies name a field TenantConfig does not have;
	// decodeJSON rejects unknown fields, so they are bad configs too.
	for _, body := range []string{
		`{"ring_size": 268435456}`,
		`{"llc_bytes": 1099511627776}`,
		`{"shards": 1048576}`,
		`{"ring_size": 3}`,
		`{"scheme": "no-such-scheme"}`,
	} {
		if code := send(http.MethodPut, "/admin/tenants/hostile", body); code != http.StatusBadRequest {
			t.Errorf("create with %s: status %d, want 400", body, code)
		}
	}
	// The default tenant's 64 KiB / 8-way LLC has 128 sets, so 4096 shards
	// is over the ceiling and the set count alike.
	for _, body := range []string{`{"shards": 4096}`, `{"shards": 1048576}`} {
		if code := send(http.MethodPost, "/admin/tenants/default/reshard", body); code < 400 || code > 499 {
			t.Errorf("reshard with %s: status %d, want 4xx", body, code)
		}
	}
	// A duplicate name conflicts with existing state; it is not a bad config.
	if code := send(http.MethodPut, "/admin/tenants/default", `{}`); code != http.StatusConflict {
		t.Errorf("duplicate create: status %d, want 409", code)
	}

	c := testClient(t, hs)
	data := block(0x5A)
	rs, err := c.NewBatch().Write(0, data).Read(0).Do()
	if err != nil {
		t.Fatal(err)
	}
	if rs[0].Err != nil || rs[1].Err != nil || !bytes.Equal(rs[1].Data, data) {
		t.Fatalf("frame after hostile admin requests: %+v", rs)
	}
}

// TestDrainUnderFire is the graceful-shutdown durability pin: workers
// hammer batched writes while Drain fires mid-stream; afterwards, every
// write the server ACKED must be durable in the tenant's quiesced memory.
func TestDrainUnderFire(t *testing.T) {
	srv, hs := testServer(t)

	const workers = 4
	type acked struct {
		addr uint64
		data []byte
	}
	var mu sync.Mutex
	var acks []acked
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := testClient(t, hs)
			<-start
			b := c.NewBatch()
			// Unique address per write, so "is it durable" has exactly
			// one right answer per block.
			for seq := 0; ; seq++ {
				var addrs []uint64
				var blocks [][]byte
				for i := 0; i < 8; i++ {
					n := uint64(w)<<32 | uint64(seq*8+i)
					addr := n * BlockBytes
					data := make([]byte, BlockBytes)
					binary.LittleEndian.PutUint64(data, n)
					data[63] = byte(w)
					addrs = append(addrs, addr)
					blocks = append(blocks, data)
					b.Write(addr, data)
				}
				rs, err := b.Do()
				if err != nil {
					return // 503 after the drain fence: nothing acked, clean stop
				}
				mu.Lock()
				for i, r := range rs {
					if r.Err == nil {
						acks = append(acks, acked{addrs[i], blocks[i]})
					}
				}
				mu.Unlock()
			}
		}(w)
	}
	close(start)
	time.Sleep(20 * time.Millisecond) // let traffic build

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()

	tn, _ := srv.Tenant("default")
	if !tn.Batched().Quiesced() {
		t.Fatal("tenant not quiesced after drain")
	}
	// Resume to read back: the drain fenced the shards; verification
	// re-fills every block from the DRAM image the drain flushed.
	tn.Batched().Resume()
	if len(acks) == 0 {
		t.Fatal("no acknowledged writes — test raced drain too early")
	}
	for _, a := range acks {
		got, err := tn.Batched().Read(a.addr)
		if err != nil {
			t.Fatalf("acked block %#x unreadable: %v", a.addr, err)
		}
		if !bytes.Equal(got, a.data) {
			t.Fatalf("acked block %#x not durable", a.addr)
		}
	}
	t.Logf("verified %d acknowledged writes durable across drain", len(acks))

	// The fence stays down: new traffic bounces, readiness reports it.
	if srv.Ready() {
		t.Error("server ready after drain")
	}
	resp, err := http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz status %d after drain, want 503", resp.StatusCode)
	}
	if err := testClient(t, hs).Write(0, block(1)); err == nil {
		t.Error("write accepted after drain")
	}
}

// TestSoakEndToEnd pins the acceptance criterion in-process: a seeded
// fault campaign whose every settle/inject/read crosses the wire, against
// a tenant concurrently serving oracle-checked traffic — zero silent
// corruptions on both planes.
func TestSoakEndToEnd(t *testing.T) {
	_, hs := testServer(t)

	// Verified traffic on a disjoint high range while the campaign runs.
	stopTraffic := make(chan struct{})
	trafficErr := make(chan error, 1)
	go func() {
		c := testClient(t, hs)
		prof := workload.MustGet("gcc")
		const base = uint64(1) << 26
		version := uint32(1)
		for {
			select {
			case <-stopTraffic:
				trafficErr <- nil
				return
			default:
			}
			for i := 0; i < 32; i++ {
				addr := (base + uint64(i)) * BlockBytes
				if err := c.Write(addr, prof.Block(addr, version)); err != nil {
					trafficErr <- fmt.Errorf("traffic write: %w", err)
					return
				}
			}
			for i := 0; i < 32; i++ {
				addr := (base + uint64(i)) * BlockBytes
				got, err := c.Read(addr)
				if err != nil {
					trafficErr <- fmt.Errorf("traffic read: %w", err)
					return
				}
				if !bytes.Equal(got, prof.Block(addr, version)) {
					trafficErr <- fmt.Errorf("traffic oracle mismatch at %#x", addr)
					return
				}
			}
			version++
		}
	}()

	scheme, err := cli.SingleScheme("cop-er")
	if err != nil {
		t.Fatal(err)
	}
	campaign := testClient(t, hs)
	res, err := faultsim.Run(faultsim.Config{
		Mode:       scheme.Mode,
		Seed:       0x50AC,
		Blocks:     512,
		Injections: 80,
		Workload:   "gcc",
		Memory:     campaign,
		Modes:      []reliability.FailureMode{reliability.SingleBit},
	})
	close(stopTraffic)
	if err != nil {
		t.Fatal(err)
	}
	if terr := <-trafficErr; terr != nil {
		t.Fatal(terr)
	}
	if s := res.Outcomes(faultsim.Silent); s != 0 {
		t.Errorf("%d silent corruptions", s)
	}
	if a := res.Outcomes(faultsim.FalseAlias); a != 0 {
		t.Errorf("%d false-alias corruptions", a)
	}
	if res.BackgroundMismatches != 0 {
		t.Errorf("%d background oracle mismatches", res.BackgroundMismatches)
	}
	if got := res.Outcomes(faultsim.Corrected) + res.Outcomes(faultsim.Masked) + res.Outcomes(faultsim.Detected); got == 0 {
		t.Error("campaign classified nothing — injections did not reach the tenant")
	}
}

// TestHTTP2Negotiation pins the stdlib-only h2 path: a TLS listener with
// a self-minted cert negotiates HTTP/2 via ALPN, and the pinned-cert
// client verifies it.
func TestHTTP2Negotiation(t *testing.T) {
	srv := NewServer()
	if _, err := srv.CreateTenant("default", TenantConfig{Scheme: "cop-er", Shards: 2, LLCBytes: 64 * 1024, LLCWays: 8}); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cert, certPEM, err := SelfSignedCert()
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{
		Handler:   srv.Handler(),
		TLSConfig: &tls.Config{Certificates: []tls.Certificate{cert}},
	}
	go func() { _ = hs.ServeTLS(ln, "", "") }()
	defer hs.Close()
	base := "https://" + ln.Addr().String()

	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(certPEM) {
		t.Fatal("certificate PEM rejected")
	}
	hc := &http.Client{Transport: &http.Transport{
		TLSClientConfig:   &tls.Config{RootCAs: pool},
		ForceAttemptHTTP2: true,
	}}
	resp, err := hc.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.ProtoMajor != 2 {
		t.Fatalf("negotiated %s, want HTTP/2", resp.Proto)
	}

	// The copnet client itself over the same pinned-cert h2 path.
	c, err := Dial(base, WithServerCert(certPEM))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(0, block(9)); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, block(9)) {
		t.Fatal("h2 round-trip mangled")
	}
}
