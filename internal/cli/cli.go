// Package cli is the flag vocabulary shared by the cop binaries
// (copbench, copload, copserve, coptrace): one scheme-name registry, one
// seed syntax, one set of spellings and defaults for the workload,
// worker, and telemetry-server flags — so names and semantics cannot
// drift between binaries.
package cli

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"cop/internal/memctrl"
	"cop/internal/telemetry"
	"cop/internal/trace"
)

// Scheme pairs a command-line scheme name with its protection mode.
type Scheme struct {
	Name string
	Mode memctrl.Mode
}

// Schemes is the canonical scheme registry, in the order "all" runs them:
// baselines first, then the COP family, then the alternatives.
var Schemes = []Scheme{
	{"unprotected", memctrl.Unprotected},
	{"ecc-dimm", memctrl.ECCDIMM},
	{"cop", memctrl.COP},
	{"cop-er", memctrl.COPER},
	{"cop-adaptive", memctrl.COPAdaptive},
	{"cop-chipkill", memctrl.COPChipkill},
	{"ecc-region", memctrl.ECCRegion},
}

// SchemeNames returns the registered names, comma-joined for help text.
func SchemeNames() string {
	names := make([]string, len(Schemes))
	for i, s := range Schemes {
		names[i] = s.Name
	}
	return strings.Join(names, ", ")
}

// ParseSchemes resolves a -scheme argument: "all" yields the full registry
// in canonical order; otherwise a comma-separated list of names.
func ParseSchemes(arg string) ([]Scheme, error) {
	if arg == "all" {
		return append([]Scheme(nil), Schemes...), nil
	}
	var out []Scheme
	for _, name := range strings.Split(arg, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, s := range Schemes {
			if s.Name == name {
				out = append(out, s)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown scheme %q (want one of %s, or 'all')", name, SchemeNames())
		}
	}
	return out, nil
}

// SchemeFlag defines a scheme-selection flag with the registry's shared
// help text, so every binary lists the same names the same way.
func SchemeFlag(fs *flag.FlagSet, name, def, what string) *string {
	return fs.String(name, def, what+" ("+SchemeNames()+", or 'all')")
}

// SingleScheme resolves a -scheme argument that must name exactly one
// scheme ("all" and comma lists are rejected).
func SingleScheme(arg string) (Scheme, error) {
	schemes, err := ParseSchemes(arg)
	if err != nil {
		return Scheme{}, err
	}
	if len(schemes) != 1 {
		return Scheme{}, fmt.Errorf("scheme %q: want exactly one of %s", arg, SchemeNames())
	}
	return schemes[0], nil
}

// MemoryFlags is the shared memory-construction flag bundle for binaries
// that stand up a protected memory to serve or drive (a copserve tenant,
// copload's in-process store). One registration here keeps the spellings,
// defaults, and help text identical across binaries instead of each cmd/
// carrying its own copy.
type MemoryFlags struct {
	Scheme   *string
	Shards   *int
	LLCBytes *int
	LLCWays  *int
}

// AddMemoryFlags registers the memory-construction flags on fs with the
// shared defaults (batched front-end auto-topology, 4 MB/16-way LLC via
// zero values).
func AddMemoryFlags(fs *flag.FlagSet, defScheme string) *MemoryFlags {
	return &MemoryFlags{
		Scheme:   SchemeFlag(fs, "scheme", defScheme, "protection scheme"),
		Shards:   fs.Int("shards", 0, "stripe count, a power of two (0: auto from GOMAXPROCS)"),
		LLCBytes: fs.Int("llc-bytes", 0, "total LLC capacity in bytes across shards (0: 4 MiB)"),
		LLCWays:  fs.Int("llc-ways", 0, "LLC associativity (0: 16)"),
	}
}

// LoadFlags is the shared closed-loop load-harness flag bundle (copload,
// and any future driver that paces traffic at a memory).
type LoadFlags struct {
	Workers  *int
	QPS      *int
	Duration *time.Duration
	Ops      *int
	Keys     *int
	Window   *int
	Pipeline *int
	Mix      *string
	Workload *string
	Seed     *uint64
}

// AddLoadFlags registers the load-harness flags on fs.
func AddLoadFlags(fs *flag.FlagSet) *LoadFlags {
	return &LoadFlags{
		Workers:  WorkersFlag(fs, "workers", "concurrent closed-loop workers, each owning a disjoint key slice"),
		QPS:      fs.Int("qps", 0, "target total operations/second across workers (0: unpaced)"),
		Duration: fs.Duration("duration", 0, "run length (0: until -ops or interrupt)"),
		Ops:      fs.Int("ops", 0, "stop after this many operations per worker (0: unbounded)"),
		Keys:     fs.Int("keys", 1<<14, "footprint in 64-byte blocks across all workers"),
		Window:   fs.Int("window", 8, "operations batched into one request window"),
		Pipeline: fs.Int("pipeline", 1, "request windows each worker keeps in flight (keys partition into per-frame streams, so per-key order is preserved)"),
		Mix:      fs.String("mix", "60/30/5/5", "get/set/delete/increment percentages"),
		Workload: WorkloadFlag(fs, "workload", "gcc", "workload profile supplying block contents and hot-key skew"),
		Seed:     SeedFlag(fs, "seed", 0x10AD, "load-generator seed (same seed, same op stream)"),
	}
}

// ParseMix resolves a get/set/delete/increment percentage mix like
// "60/30/5/5" (the parts must sum to 100; trailing zero parts may be
// omitted).
func ParseMix(arg string) ([4]int, error) {
	var mix [4]int
	parts := strings.Split(arg, "/")
	if len(parts) == 0 || len(parts) > 4 {
		return mix, fmt.Errorf("mix %q: want get/set/delete/increment percentages", arg)
	}
	sum := 0
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 0 {
			return mix, fmt.Errorf("mix %q: bad percentage %q", arg, p)
		}
		mix[i] = v
		sum += v
	}
	if sum != 100 {
		return mix, fmt.Errorf("mix %q: percentages sum to %d, want 100", arg, sum)
	}
	return mix, nil
}

// seedValue is a flag.Value accepting decimal, 0x-hex, 0o-octal, and
// 0b-binary seeds (strconv base 0) and printing in hex.
type seedValue uint64

func (s *seedValue) String() string { return "0x" + strconv.FormatUint(uint64(*s), 16) }

func (s *seedValue) Set(arg string) error {
	v, err := strconv.ParseUint(arg, 0, 64)
	if err != nil {
		return fmt.Errorf("seed %q: %v", arg, err)
	}
	*s = seedValue(v)
	return nil
}

// SeedFlag defines a seed flag on fs that accepts 0x-prefixed hex as well
// as decimal, so "same seed, same table" invocations can be pasted between
// binaries unchanged.
func SeedFlag(fs *flag.FlagSet, name string, def uint64, usage string) *uint64 {
	v := seedValue(def)
	fs.Var(&v, name, usage)
	return (*uint64)(&v)
}

// WorkloadFlag defines a workload-profile flag with the shared default.
func WorkloadFlag(fs *flag.FlagSet, name, def, usage string) *string {
	return fs.String(name, def, usage)
}

// WorkersFlag defines a worker-count flag with the shared default of 1.
func WorkersFlag(fs *flag.FlagSet, name, usage string) *int {
	return fs.Int(name, 1, usage)
}

// TelemetryAddrFlag defines the -telemetry-addr flag: empty (the default)
// disables the server.
func TelemetryAddrFlag(fs *flag.FlagSet) *string {
	return fs.String("telemetry-addr", "",
		"serve /metrics, /snapshot, /debug/vars, and /debug/pprof on this address (e.g. :8080; empty: disabled)")
}

// ServeTelemetry starts the observability server on addr, serving reg
// (point reg at live memories with Registry.Set), and additionally
// publishes reg under expvar. A non-nil tr adds the /trace/start,
// /trace/stop, /trace.json, and /trace.bin flight-recorder endpoints. It
// returns the bound address — useful with ":0" — and never blocks; the
// server runs for the life of the process. An empty addr is a no-op
// returning "".
func ServeTelemetry(addr string, reg *telemetry.Registry, tr *trace.Tracer) (string, error) {
	if addr == "" {
		return "", nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("telemetry-addr %q: %v", addr, err)
	}
	telemetry.PublishExpvar(reg)
	srv := &http.Server{Handler: telemetry.HandlerWithTracer(reg, tr)}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}
