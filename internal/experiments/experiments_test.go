package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// quick returns cheap options for CI-speed runs.
func quick() Options {
	return Options{Samples: 1500, AliasSamples: 100000, Epochs: 250}
}

// cell parses a percentage or float cell.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSpace(s), "%")
	s = strings.TrimSuffix(s, "x")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

// row finds a row by its first column.
func row(t *testing.T, r *Report, name string) []string {
	t.Helper()
	for _, row := range r.Rows {
		if row[0] == name {
			return row
		}
	}
	t.Fatalf("%s: row %q not found", r.ID, name)
	return nil
}

func col(r *Report, name string) int {
	for i, h := range r.Header {
		if h == name {
			return i
		}
	}
	return -1
}

func TestIDsComplete(t *testing.T) {
	want := []string{"ablations", "alias", "benchmarks", "census", "chipfail",
		"config", "dimmcmp", "energy", "fieldmodes", "fig1", "fig10", "fig10mc",
		"fig11", "fig12", "fig4", "fig8", "fig9", "relatedwork", "sensitivity",
		"table3"}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", got, want)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("fig99", quick()); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

func TestAllExperimentsProduceRows(t *testing.T) {
	for _, id := range IDs() {
		switch id {
		case "fig11", "fig10", "fig10mc", "relatedwork", "energy", "sensitivity":
			continue // exercised separately (slower)
		}
		r, err := Run(id, quick())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(r.Rows) == 0 || len(r.Header) == 0 {
			t.Fatalf("%s: empty report", id)
		}
		for _, row := range r.Rows {
			if len(row) != len(r.Header) {
				t.Fatalf("%s: ragged row %v", id, row)
			}
		}
		if !strings.Contains(r.Format(), r.Title) {
			t.Fatalf("%s: Format misses title", id)
		}
	}
}

func TestFig1Shape(t *testing.T) {
	r, err := Run("fig1", quick())
	if err != nil {
		t.Fatal(err)
	}
	// Monotone non-increasing rows; libquantum collapses past ~10%.
	for _, rw := range r.Rows {
		prev := 101.0
		for _, c := range rw[1:] {
			v := cell(t, c)
			if v > prev+0.01 {
				t.Fatalf("fig1 %s: compressibility rose along the ratio axis: %v", rw[0], rw)
			}
			prev = v
		}
	}
	lq := row(t, r, "libquantum")
	if at5 := cell(t, lq[1]); at5 < 60 {
		t.Fatalf("libquantum at 5%%: %.1f, want mostly compressible", at5)
	}
	if at50 := cell(t, lq[6]); at50 > 30 {
		t.Fatalf("libquantum at 50%%: %.1f, want mostly incompressible", at50)
	}
}

func TestFig4Shape(t *testing.T) {
	r, err := Run("fig4", quick())
	if err != nil {
		t.Fatal(err)
	}
	avg := row(t, r, "Average")
	u, s := cell(t, avg[1]), cell(t, avg[2])
	if s <= u {
		t.Fatalf("shifted (%f) must beat unshifted (%f)", s, u)
	}
	gain := s - u
	if gain < 8 || gain > 30 {
		t.Fatalf("average shift gain %.1f%%, paper reports ~15%%", gain)
	}
}

func TestFig9Shape(t *testing.T) {
	r, err := Run("fig9", quick())
	if err != nil {
		t.Fatal(err)
	}
	avg := row(t, r, "Average")
	combined := cell(t, avg[col(r, "TXT+MSB+RLE")])
	msb := cell(t, avg[col(r, "MSB")])
	rle := cell(t, avg[col(r, "RLE")])
	fpc := cell(t, avg[col(r, "FPC")])
	if combined < 85 {
		t.Fatalf("combined average %.1f%%, paper reports 94%%", combined)
	}
	if msb < 60 || msb > 85 {
		t.Fatalf("MSB average %.1f%%, paper reports ≈70%%", msb)
	}
	if rle < fpc {
		t.Fatalf("RLE (%.1f) should generally outperform FPC (%.1f)", rle, fpc)
	}
	if combined < msb || combined < rle {
		t.Fatal("combined must dominate its components")
	}
	// TXT carries perlbench: combined far above MSB and RLE there.
	pb := row(t, r, "perlbench")
	if cell(t, pb[col(r, "TXT+MSB+RLE")]) < cell(t, pb[col(r, "MSB")])+20 {
		t.Fatal("perlbench should gain dramatically from TXT")
	}
}

func TestFig8LowerThanFig9(t *testing.T) {
	r8, err := Run("fig8", quick())
	if err != nil {
		t.Fatal(err)
	}
	r9, err := Run("fig9", quick())
	if err != nil {
		t.Fatal(err)
	}
	c8 := cell(t, row(t, r8, "Average")[col(r8, "MSB+RLE")])
	c9 := cell(t, row(t, r9, "Average")[col(r9, "TXT+MSB+RLE")])
	if c8 >= c9 {
		t.Fatalf("8-byte combined (%.1f) should trail 4-byte combined (%.1f)", c8, c9)
	}
}

func TestTable3Shape(t *testing.T) {
	r, err := Run("table3", quick())
	if err != nil {
		t.Fatal(err)
	}
	one := cell(t, r.Rows[0][1])
	if one < 0.5 || one > 3 {
		t.Fatalf("1-code-word rate %.3f%%, paper reports 1.4%%", one)
	}
	three := cell(t, r.Rows[2][1])
	four := cell(t, r.Rows[3][1])
	if three > 0.001 || four > 0 {
		t.Fatalf("3/4-code-word rates too high: %f / %f", three, four)
	}
}

func TestAliasAnalytics(t *testing.T) {
	r, err := Run("alias", quick())
	if err != nil {
		t.Fatal(err)
	}
	wordRow := row(t, r, "P(random 128-bit word valid)")
	if a := cell(t, wordRow[1]); a < 0.38 || a > 0.40 {
		t.Fatalf("analytic word probability %.4f%%, want 0.39%%", a)
	}
	if m := cell(t, wordRow[2]); m < 0.3 || m > 0.5 {
		t.Fatalf("measured word probability %.4f%%", m)
	}
}

func TestDimmCompare(t *testing.T) {
	r, err := Run("dimmcmp", quick())
	if err != nil {
		t.Fatal(err)
	}
	ratio := cell(t, r.Rows[0][1])
	if ratio < 5.5 || ratio > 7.5 {
		t.Fatalf("exposure ratio %.1f, paper reports ~6x", ratio)
	}
}

func TestFig10Shape(t *testing.T) {
	r, err := Run("fig10", Options{Samples: 1000, AliasSamples: 1000, Epochs: 200})
	if err != nil {
		t.Fatal(err)
	}
	avg := row(t, r, "Average")
	cop8, cop4, coper := cell(t, avg[1]), cell(t, avg[2]), cell(t, avg[3])
	if cop4 < 80 || cop4 > 99 {
		t.Fatalf("COP-4 average reduction %.1f%%, paper reports 93%%", cop4)
	}
	if cop8 >= cop4 {
		t.Fatalf("COP-8 (%.1f) must trail COP-4 (%.1f): less compressible", cop8, cop4)
	}
	if coper < 99.9 {
		t.Fatalf("COP-ER reduction %.1f%%, want ~100%%", coper)
	}
}

func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scheme 4-core sweep")
	}
	r, err := Run("fig11", Options{Samples: 1000, AliasSamples: 1000, Epochs: 250})
	if err != nil {
		t.Fatal(err)
	}
	geo := row(t, r, "Geomean")
	unprot, cop, coper, eccreg := cell(t, geo[1]), cell(t, geo[2]), cell(t, geo[3]), cell(t, geo[4])
	if unprot != 1.0 {
		t.Fatalf("unprotected should normalize to 1.0, got %f", unprot)
	}
	if cop < 0.95 || cop > 1.02 {
		t.Fatalf("COP geomean %.3f, paper reports ~0.99", cop)
	}
	if coper > cop+0.01 || coper < 0.85 {
		t.Fatalf("COP-ER geomean %.3f vs COP %.3f", coper, cop)
	}
	if eccreg > coper-0.02 {
		t.Fatalf("ECC Reg (%.3f) should clearly trail COP-ER (%.3f)", eccreg, coper)
	}
}

func TestFig12Shape(t *testing.T) {
	r, err := Run("fig12", quick())
	if err != nil {
		t.Fatal(err)
	}
	avg := cell(t, row(t, r, "Average")[5])
	if avg < 50 || avg > 95 {
		t.Fatalf("average storage reduction %.1f%%, paper reports ~80%%", avg)
	}
}

func TestConfigAndBenchmarksTables(t *testing.T) {
	c, err := Run("config", quick())
	if err != nil || len(c.Rows) < 10 {
		t.Fatalf("config table: %v", err)
	}
	b, err := Run("benchmarks", quick())
	if err != nil || len(b.Rows) != 20 {
		t.Fatalf("benchmarks table: %v, rows=%d", err, len(b.Rows))
	}
}

func TestFormatAligned(t *testing.T) {
	r := &Report{ID: "x", Title: "T", Header: []string{"a", "bbbb"},
		Rows: [][]string{{"row1", "1"}, {"r", "22"}}, Notes: []string{"n"}}
	out := r.Format()
	if !strings.Contains(out, "note: n") {
		t.Fatal("note missing")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Fatalf("unexpected line count: %d", len(lines))
	}
}

func TestFig10MonteCarloAgreesWithAnalytic(t *testing.T) {
	r, err := Run("fig10mc", Options{Epochs: 800, Samples: 1, AliasSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, rw := range r.Rows {
		analytic := cell(t, rw[1])
		mc := cell(t, rw[2])
		if d := analytic - mc; d < -8 || d > 8 {
			t.Errorf("%s: analytic %.1f%% vs MC %.1f%% disagree", rw[0], analytic, mc)
		}
		if cell(t, rw[3]) < 200 {
			t.Errorf("%s: too few events (%s)", rw[0], rw[3])
		}
	}
}

func TestCSV(t *testing.T) {
	r := &Report{ID: "x", Title: "T", Header: []string{"a", "b"},
		Rows: [][]string{{"plain", `has "quotes", commas`}}}
	got := r.CSV()
	want := "a,b\nplain,\"has \"\"quotes\"\", commas\"\n"
	if got != want {
		t.Fatalf("CSV:\n%q\nwant\n%q", got, want)
	}
}

func TestAblationsShape(t *testing.T) {
	r, err := Run("ablations", quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("ablation rows = %d", len(r.Rows))
	}
	// The designed choices must win their comparisons where the row
	// encodes coverage percentages.
	for _, rw := range r.Rows {
		if strings.Contains(rw[0], "coverage") {
			a := cell(t, strings.TrimSpace(strings.SplitN(rw[1], ":", 2)[1]))
			b := cell(t, strings.TrimSpace(strings.SplitN(rw[2], ":", 2)[1]))
			if a <= b {
				t.Errorf("%s: designed %.1f should beat alternative %.1f", rw[0], a, b)
			}
		}
	}
}

func TestRelatedWorkShape(t *testing.T) {
	r, err := Run("relatedwork", Options{Samples: 500, AliasSamples: 500, Epochs: 300})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 || len(r.Header) != 8 {
		t.Fatalf("rows=%d cols=%d", len(r.Rows), len(r.Header))
	}
	for _, rw := range r.Rows {
		unprot := cell(t, rw[1])
		dimm := cell(t, rw[2])
		vecc := cell(t, rw[7])
		if unprot != 1.0 || dimm != 1.0 {
			t.Errorf("%s: unprot/dimm should be 1.0: %v", rw[0], rw)
		}
		if vecc >= cell(t, rw[6]) { // VECC <= ECC Reg
			t.Errorf("%s: VECC (%f) should trail ECC Reg (%f)", rw[0], vecc, cell(t, rw[6]))
		}
	}
}

func TestEnergyShape(t *testing.T) {
	r, err := Run("energy", Options{Samples: 500, AliasSamples: 500, Epochs: 250})
	if err != nil {
		t.Fatal(err)
	}
	for _, rw := range r.Rows {
		unprot := cell(t, rw[1])
		dimm := cell(t, rw[len(rw)-1])
		if unprot != 1.0 {
			t.Errorf("%s: unprotected should normalize to 1.0", rw[0])
		}
		// The 9th chip adds ~12.5% energy (all chips participate in every
		// access and burn background power).
		if dimm < 1.08 || dimm > 1.20 {
			t.Errorf("%s: ECC DIMM energy %.3f, want ≈1.125", rw[0], dimm)
		}
		cop := cell(t, rw[2])
		if cop < 0.98 || cop > 1.06 {
			t.Errorf("%s: COP energy %.3f should stay near 1.0", rw[0], cop)
		}
	}
}

func TestSensitivityShape(t *testing.T) {
	r, err := Run("sensitivity", Options{Samples: 500, AliasSamples: 500, Epochs: 250})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 7 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// COP at 1 and 4 cycles should be essentially identical; 64 cycles
	// must not be *better* than 1 cycle by more than noise.
	cop1 := cell(t, r.Rows[0][2])
	cop64 := cell(t, r.Rows[3][2])
	if cop64 > cop1*1.02 {
		t.Fatalf("64-cycle decode (%f) should not beat 1-cycle (%f)", cop64, cop1)
	}
	// A bigger metadata cache should not hurt the ECC-region baseline.
	small := cell(t, r.Rows[4][4])
	large := cell(t, r.Rows[6][4])
	if large < small*0.98 {
		t.Fatalf("4MB metadata cache (%f) worse than 16KB (%f)", large, small)
	}
}

func TestForEach(t *testing.T) {
	// Order-independent execution with full coverage.
	n := 100
	hits := make([]int, n)
	if err := forEach(n, func(i int) error { hits[i]++; return nil }); err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d executed %d times", i, h)
		}
	}
	// Error propagation.
	sentinel := fmt.Errorf("boom")
	if err := forEach(50, func(i int) error {
		if i == 7 {
			return sentinel
		}
		return nil
	}); err != sentinel {
		t.Fatalf("error not propagated: %v", err)
	}
	// Single-item fast path.
	if err := forEach(1, func(i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := forEach(0, func(i int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestCensusShape(t *testing.T) {
	r, err := Run("census", quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 20 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// perlbench is text-heavy; lbm float-heavy; categories must sum ~100.
	pb := row(t, r, "perlbench")
	if cell(t, pb[6]) < 30 {
		t.Errorf("perlbench text share %.0f%% too low", cell(t, pb[6]))
	}
	lbm := row(t, r, "lbm")
	if cell(t, lbm[4]) < 60 {
		t.Errorf("lbm fp=exp share %.0f%% too low", cell(t, lbm[4]))
	}
	for _, rw := range r.Rows {
		sum := 0.0
		for _, c := range rw[1:10] {
			sum += cell(t, c)
		}
		if sum < 95 || sum > 105 {
			t.Errorf("%s: categories sum to %.0f%%", rw[0], sum)
		}
		compRaw := cell(t, rw[10]) + cell(t, rw[11])
		if compRaw < 99 || compRaw > 101 {
			t.Errorf("%s: compressed+raw = %.1f%%", rw[0], compRaw)
		}
	}
}

func TestChart(t *testing.T) {
	r := &Report{ID: "x", Title: "T", Header: []string{"name", "val"},
		Rows: [][]string{{"aa", "50.0%"}, {"bbb", "100.0%"}, {"skip", "n/a"}}}
	out := r.Chart(-1, 10)
	if !strings.Contains(out, "bbb ██████████ 100") {
		t.Fatalf("chart:\n%s", out)
	}
	if !strings.Contains(out, "aa  █████····· 50") {
		t.Fatalf("chart:\n%s", out)
	}
	if strings.Contains(out, "skip") {
		t.Fatal("non-numeric row should be skipped")
	}
	if !strings.Contains(r.Chart(99, 10), "out of range") {
		t.Fatal("bad column not reported")
	}
	empty := &Report{ID: "y", Header: []string{"a", "b"}, Rows: [][]string{{"r", "zz"}}}
	if !strings.Contains(empty.Chart(1, 10), "no numeric data") {
		t.Fatal("empty chart not reported")
	}
}

func TestChipFailShape(t *testing.T) {
	r, err := Run("chipfail", Options{Samples: 512, AliasSamples: 100, Epochs: 50})
	if err != nil {
		t.Fatal(err)
	}
	ck := row(t, r, "COP-CK-ER")
	if cell(t, ck[4]) != 0 {
		t.Fatalf("COP-CK-ER silent rate %s under chip failures", ck[4])
	}
	// Samples/4 blocks, one chip failure each: COP-CK-ER corrects them all.
	if got := cell(t, ck[1]); got != 128 {
		t.Fatalf("COP-CK-ER corrected %v of 128 chip failures", got)
	}
	if cop := row(t, r, "COP"); cell(t, cop[4]) == 0 {
		t.Fatal("plain COP should not survive chip failures")
	}
	unprot := row(t, r, "Unprotected")
	if cell(t, unprot[4]) != 100 {
		t.Fatalf("unprotected silent rate %s", unprot[4])
	}
	dimm := row(t, r, "ECC DIMM")
	if cell(t, dimm[4]) < 5 {
		t.Fatalf("ECC DIMM should show meaningful silent corruption: %s", dimm[4])
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Samples != 20000 || o.AliasSamples != 2_000_000 || o.Epochs != 3000 {
		t.Fatalf("defaults: %+v", o)
	}
	o = Options{Samples: 7, AliasSamples: 8, Epochs: 9}.withDefaults()
	if o.Samples != 7 || o.AliasSamples != 8 || o.Epochs != 9 {
		t.Fatalf("overrides clobbered: %+v", o)
	}
}

func TestParseNumeric(t *testing.T) {
	cases := []struct {
		in   string
		want float64
		ok   bool
	}{
		{"42", 42, true}, {"3.5%", 3.5, true}, {"6.7x", 6.7, true},
		{"  1.0 ", 1, true}, {"", 0, false}, {"n/a", 0, false},
	}
	for _, tc := range cases {
		got, ok := parseNumeric(tc.in)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("parseNumeric(%q) = (%v,%v), want (%v,%v)", tc.in, got, ok, tc.want, tc.ok)
		}
	}
}
