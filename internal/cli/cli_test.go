package cli

import (
	"bytes"
	"flag"
	"io"
	"net/http"
	"strings"
	"testing"

	"cop/internal/memctrl"
	"cop/internal/telemetry"
	"cop/internal/trace"
)

func TestParseSchemes(t *testing.T) {
	all, err := ParseSchemes("all")
	if err != nil || len(all) != len(Schemes) {
		t.Fatalf("all: %v, %d schemes", err, len(all))
	}
	got, err := ParseSchemes("cop-er, ecc-dimm")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Mode != memctrl.COPER || got[1].Mode != memctrl.ECCDIMM {
		t.Errorf("parsed %+v", got)
	}
	if _, err := ParseSchemes("nope"); err == nil || !strings.Contains(err.Error(), "unknown scheme") {
		t.Errorf("want unknown-scheme error, got %v", err)
	}
	if !strings.Contains(SchemeNames(), "cop-chipkill") {
		t.Errorf("SchemeNames() = %q", SchemeNames())
	}
}

func TestSingleScheme(t *testing.T) {
	s, err := SingleScheme("cop-er")
	if err != nil || s.Mode != memctrl.COPER {
		t.Fatalf("cop-er: %+v, %v", s, err)
	}
	if _, err := SingleScheme("all"); err == nil {
		t.Error("'all' should not satisfy SingleScheme")
	}
	if _, err := SingleScheme("cop,ecc-dimm"); err == nil {
		t.Error("a list should not satisfy SingleScheme")
	}
	if _, err := SingleScheme("bogus"); err == nil {
		t.Error("unknown scheme should fail")
	}
}

func TestParseMix(t *testing.T) {
	mix, err := ParseMix("60/30/5/5")
	if err != nil || mix != [4]int{60, 30, 5, 5} {
		t.Fatalf("60/30/5/5: %v, %v", mix, err)
	}
	// Trailing zero parts may be omitted.
	mix, err = ParseMix("70/30")
	if err != nil || mix != [4]int{70, 30, 0, 0} {
		t.Fatalf("70/30: %v, %v", mix, err)
	}
	for _, bad := range []string{"60/30/5", "101", "60/30/5/5/1", "a/b/c/d", "-10/110"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
}

func TestAddMemoryFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	mem := AddMemoryFlags(fs, "cop-er")
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *mem.Scheme != "cop-er" || *mem.Shards != 0 || *mem.LLCBytes != 0 {
		t.Errorf("defaults: scheme=%q shards=%d llc=%d", *mem.Scheme, *mem.Shards, *mem.LLCBytes)
	}
	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	mem = AddMemoryFlags(fs, "cop-er")
	args := []string{"-scheme", "cop", "-shards", "4", "-llc-bytes", "65536", "-llc-ways", "8"}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	if *mem.Scheme != "cop" || *mem.Shards != 4 || *mem.LLCBytes != 65536 || *mem.LLCWays != 8 {
		t.Errorf("parsed bundle %+v", mem)
	}
	// Validation happens when the consumer resolves the scheme name, not
	// at Parse time — a bad value must surface there.
	if _, err := SingleScheme("bogus"); err == nil {
		t.Error("unknown scheme should fail resolution")
	}
}

func TestAddLoadFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	load := AddLoadFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if *load.Keys != 1<<14 || *load.Window != 8 || *load.Mix != "60/30/5/5" ||
		*load.Workload != "gcc" || *load.Seed != 0x10AD || *load.Workers <= 0 {
		t.Errorf("defaults: keys=%d window=%d mix=%q workload=%q seed=%#x workers=%d",
			*load.Keys, *load.Window, *load.Mix, *load.Workload, *load.Seed, *load.Workers)
	}
	if mix, err := ParseMix(*load.Mix); err != nil || mix[0] != 60 {
		t.Errorf("default mix does not parse: %v, %v", mix, err)
	}
	fs = flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	load = AddLoadFlags(fs)
	if err := fs.Parse([]string{"-workers", "3", "-qps", "5000", "-duration", "2s", "-mix", "50/50"}); err != nil {
		t.Fatal(err)
	}
	if *load.Workers != 3 || *load.QPS != 5000 || load.Duration.Seconds() != 2 || *load.Mix != "50/50" {
		t.Errorf("parsed bundle %+v", load)
	}
}

func TestSeedFlag(t *testing.T) {
	for arg, want := range map[string]uint64{"0xC0FFEE": 0xC0FFEE, "42": 42, "0b101": 5} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		seed := SeedFlag(fs, "seed", 7, "u")
		if err := fs.Parse([]string{"-seed", arg}); err != nil {
			t.Fatalf("%q: %v", arg, err)
		}
		if *seed != want {
			t.Errorf("%q: seed = %d, want %d", arg, *seed, want)
		}
	}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	seed := SeedFlag(fs, "seed", 7, "u")
	if err := fs.Parse(nil); err != nil || *seed != 7 {
		t.Errorf("default: seed = %d (%v), want 7", *seed, err)
	}
	if err := fs.Parse([]string{"-seed", "zzz"}); err == nil {
		t.Error("bad seed should fail Parse")
	}
}

func TestServeTelemetry(t *testing.T) {
	if addr, err := ServeTelemetry("", nil, nil); addr != "" || err != nil {
		t.Fatalf("empty addr: %q, %v", addr, err)
	}
	reg := &telemetry.Registry{}
	tr := trace.New(trace.Config{RingSize: 64})
	addr, err := ServeTelemetry("127.0.0.1:0", reg, tr)
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) (int, []byte) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body
	}
	if code, body := get("/snapshot"); code != 200 || !strings.Contains(string(body), "scheme") {
		t.Errorf("/snapshot: %d %s", code, body)
	}
	if code, _ := get("/trace/start"); code != 200 {
		t.Errorf("/trace/start: %d", code)
	}
	if !tr.Enabled() {
		t.Error("tracer not enabled after /trace/start")
	}
	tr.Handle(0).Record(trace.KindLoad, 0x40, 0, 0, 0, 0, 0)
	if code, body := get("/trace.json"); code != 200 {
		t.Errorf("/trace.json: %d", code)
	} else if n, err := trace.ValidateChromeJSON(body); err != nil || n == 0 {
		t.Errorf("/trace.json: %d events, %v", n, err)
	}
	if code, body := get("/trace.bin"); code != 200 {
		t.Errorf("/trace.bin: %d", code)
	} else if d, err := trace.ReadDump(bytes.NewReader(body)); err != nil || len(d.Records) != 1 {
		t.Errorf("/trace.bin: %v (dump %+v)", err, d)
	}
	if code, _ := get("/trace/stop"); code != 200 {
		t.Errorf("/trace/stop: %d", code)
	}
	if tr.Enabled() {
		t.Error("tracer still enabled after /trace/stop")
	}
}
