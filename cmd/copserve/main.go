// Command copserve exposes protected memories as a networked block-store
// service: multi-tenant namespaces (each an isolated batched front-end
// with its own protection scheme), a binary batch datapath that maps one
// network request onto one per-shard batch window, live-operations admin
// (scheme migration, resharding, patrol scrubbing), the full telemetry
// surface, readiness probes, and graceful drain on SIGTERM — every
// acknowledged write is durable in the tenants' DRAM images before the
// process exits.
//
// TLS (a self-minted cert by default) is what unlocks HTTP/2: net/http
// negotiates h2 over ALPN, so load generators multiplex many in-flight
// batch frames per connection. A plaintext HTTP/1.1 listener is available
// for curl-style poking.
//
// Usage:
//
//	copserve                                    # h2 on 127.0.0.1:7070, tenant "default" (cop-er)
//	copserve -tls-cert-out cop.pem              # write the cert for copload -ca
//	copserve -tenants red,blue -scheme cop       # two namespaces, plain COP
//	copserve -plain-addr 127.0.0.1:7071         # extra plaintext listener
//	copserve -scrub 50ms                        # patrol scrubber per tenant
//	copserve -trace -slow-threshold 5ms -slow-freeze  # tail-latency black box
//
// Endpoints: POST /v1/tenants/{t}/batch (binary frames), GET|PUT
// /v1/tenants/{t}/block/{addr}, POST .../flush, GET .../snapshot, admin
// under /admin/tenants, probes /healthz + /readyz, telemetry /metrics +
// /snapshot + /debug/*.
package main

import (
	"context"
	"crypto/tls"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cop/internal/cli"
	"cop/internal/copnet"
	"cop/internal/migrate"
	"cop/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "copserve:", err)
		os.Exit(1)
	}
}

// run starts the service and blocks until a termination signal (or ready
// closing, in tests) triggers the drain sequence.
func run(args []string, stdout io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("copserve", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		addr      = fs.String("addr", "127.0.0.1:7070", "TLS+HTTP/2 listen address (empty: disabled)")
		plainAddr = fs.String("plain-addr", "", "plaintext HTTP/1.1 listen address (empty: disabled)")
		certOut   = fs.String("tls-cert-out", "", "write the self-signed certificate PEM here (clients pin it via copload -ca)")
		tenants   = fs.String("tenants", "default", "comma-separated namespaces to provision at boot")
		scrubEach = fs.Duration("scrub", 0, "start a patrol scrubber per tenant with this pass interval (0: off)")
		drainWait = fs.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests during shutdown")
		traceOn   = fs.Bool("trace", false, "mount the execution-trace flight recorder (/trace/start, /trace.json)")
		slowThr   = fs.Duration("slow-threshold", 0, "capture frames slower than this into /debug/slowlog (0: off unless armed via POST /debug/slowlog)")
		slowAdapt = fs.Bool("slow-adaptive", false, "retune the slow-frame threshold to 2x each tenant's live p99.9 (floored at -slow-threshold)")
		slowLog   = fs.Int("slow-log", 0, "slow-frame log capacity in entries (0: default)")
		slowFrz   = fs.Bool("slow-freeze", false, "freeze the flight recorder on a slow frame (black-box dump; needs -trace)")
		mem       = cli.AddMemoryFlags(fs, "cop-er")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" && *plainAddr == "" {
		return fmt.Errorf("nothing to serve: both -addr and -plain-addr empty")
	}

	var opts []copnet.ServerOption
	var tracer *trace.Tracer
	if *traceOn {
		tracer = trace.New(trace.Config{})
		opts = append(opts, copnet.WithServerTracer(tracer))
	}
	if *slowThr > 0 || *slowAdapt || *slowLog > 0 || *slowFrz {
		opts = append(opts, copnet.WithSlowFrames(copnet.SlowFrameConfig{
			Threshold: *slowThr,
			Adaptive:  *slowAdapt,
			LogSize:   *slowLog,
			Freeze:    *slowFrz,
		}))
	}
	srv := copnet.NewServer(opts...)
	cfg := copnet.TenantConfig{
		Scheme:   *mem.Scheme,
		Shards:   *mem.Shards,
		LLCBytes: *mem.LLCBytes,
		LLCWays:  *mem.LLCWays,
	}
	for _, name := range strings.Split(*tenants, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		t, err := srv.CreateTenant(name, cfg)
		if err != nil {
			return err
		}
		if *scrubEach > 0 {
			b := t.Batched()
			sc := migrate.NewScrubber(b, migrate.ScrubOptions{Interval: *scrubEach})
			sc.Start()
			defer sc.Stop()
		}
		fmt.Fprintf(stdout, "copserve: tenant %q scheme=%s shards=%d\n",
			name, t.Store().Snapshot().Scheme, t.Batched().NumShards())
	}

	handler := srv.Handler()
	var servers []*http.Server
	var lns []net.Listener
	baseURL := ""

	if *addr != "" {
		cert, certPEM, err := copnet.SelfSignedCert()
		if err != nil {
			return err
		}
		if *certOut != "" {
			if err := os.WriteFile(*certOut, certPEM, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "copserve: certificate written to %s\n", *certOut)
		}
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return fmt.Errorf("listen %s: %w", *addr, err)
		}
		hs := &http.Server{
			Handler:   handler,
			TLSConfig: &tls.Config{Certificates: []tls.Certificate{cert}},
		}
		go func() { _ = hs.ServeTLS(ln, "", "") }()
		servers = append(servers, hs)
		lns = append(lns, ln)
		baseURL = "https://" + ln.Addr().String()
		fmt.Fprintf(stdout, "copserve: serving %s (HTTP/2 via ALPN)\n", baseURL)
	}
	if *plainAddr != "" {
		ln, err := net.Listen("tcp", *plainAddr)
		if err != nil {
			return fmt.Errorf("listen %s: %w", *plainAddr, err)
		}
		hs := &http.Server{Handler: handler}
		go func() { _ = hs.Serve(ln) }()
		servers = append(servers, hs)
		lns = append(lns, ln)
		if baseURL == "" {
			baseURL = "http://" + ln.Addr().String()
		}
		fmt.Fprintf(stdout, "copserve: serving http://%s (plaintext HTTP/1.1)\n", ln.Addr().String())
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if ready != nil {
		ready <- baseURL
	}
	sig := <-stop
	fmt.Fprintf(stdout, "copserve: %v — draining\n", sig)

	// Drain first: new requests bounce with 503 (load balancers see
	// /readyz go red), admitted requests finish, scrubbers stop, shards
	// fence and LLCs flush. Only then tear the listeners down.
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if n := srv.Snapshot().Net; n != nil {
		fmt.Fprintf(stdout, "copserve: served %d frames carrying %d ops (%d B in, %d B out, peak concurrency %d)\n",
			n.Frames, n.Ops, n.BytesIn, n.BytesOut, n.MaxInflight)
	}
	for _, hs := range servers {
		_ = hs.Shutdown(ctx)
	}
	if err := srv.Close(); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "copserve: drained; all acknowledged writes durable")
	return nil
}
