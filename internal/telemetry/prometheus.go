package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Label is one Prometheus exposition label. Values are escaped when
// rendered, so arbitrary tenant names are safe.
type Label struct{ Name, Value string }

// PromVariant is one label-distinguished view of the metric family set: a
// snapshot plus the extra labels its series carry (the snapshot's scheme
// always travels as the first label). The merged service-wide snapshot is
// the variant with no extra labels; per-tenant snapshots add
// {tenant="..."}.
type PromVariant struct {
	Labels []Label
	Snap   Snapshot
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4). Counters become `cop_<section>_<name>_total`,
// gauges become `cop_<section>_<name>`, and histograms become the usual
// cumulative `_bucket{le="..."}` / `_sum` / `_count` triple with
// power-of-two le bounds. The scheme travels as a `scheme` label so one
// scrape endpoint can serve multiple schemes over time.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	return WritePrometheusVariants(w, PromVariant{Snap: s})
}

// WritePrometheusVariants renders several label-distinguished views of the
// same families into one exposition: for each metric, HELP and TYPE are
// emitted once, followed by one sample (or bucket set) per variant that
// carries the metric's section. This is how per-tenant series coexist with
// the merged totals without duplicating family headers.
func WritePrometheusVariants(w io.Writer, variants ...PromVariant) error {
	p := promWriter{w: w, vs: make([]promVariant, 0, len(variants))}
	for i := range variants {
		var b strings.Builder
		b.WriteString(`scheme="`)
		b.WriteString(escapeLabelValue(variants[i].Snap.Scheme))
		b.WriteString(`"`)
		for _, l := range variants[i].Labels {
			b.WriteString(`,`)
			b.WriteString(l.Name)
			b.WriteString(`="`)
			b.WriteString(escapeLabelValue(l.Value))
			b.WriteString(`"`)
		}
		p.vs = append(p.vs, promVariant{labels: b.String(), snap: &variants[i].Snap})
	}
	p.writeAll()
	return p.err
}

// escapeLabelValue applies the exposition-format label escapes: backslash,
// double quote, and newline. Returns its input unchanged (no allocation)
// when nothing needs escaping.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 4)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

type promVariant struct {
	labels string // rendered `scheme="...",tenant="..."` fragment
	snap   *Snapshot
}

type promWriter struct {
	w   io.Writer
	vs  []promVariant
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *promWriter) counter(name, help string, get func(*Snapshot) (uint64, bool)) {
	full := "cop_" + name + "_total"
	header := false
	for _, v := range p.vs {
		n, ok := get(v.snap)
		if !ok {
			continue
		}
		if !header {
			p.printf("# HELP %s %s\n# TYPE %s counter\n", full, help, full)
			header = true
		}
		p.printf("%s{%s} %d\n", full, v.labels, n)
	}
}

func (p *promWriter) gauge(name, help string, get func(*Snapshot) (float64, bool)) {
	full := "cop_" + name
	header := false
	for _, v := range p.vs {
		f, ok := get(v.snap)
		if !ok {
			continue
		}
		if !header {
			p.printf("# HELP %s %s\n# TYPE %s gauge\n", full, help, full)
			header = true
		}
		p.printf("%s{%s} %s\n", full, v.labels, strconv.FormatFloat(f, 'g', -1, 64))
	}
}

func (p *promWriter) histogram(name, help string, get func(*Snapshot) (HistogramSnapshot, bool)) {
	full := "cop_" + name
	header := false
	for _, v := range p.vs {
		h, ok := get(v.snap)
		if !ok {
			continue
		}
		if !header {
			p.printf("# HELP %s %s\n# TYPE %s histogram\n", full, help, full)
			header = true
		}
		p.histogramSamples(full, v.labels, h)
	}
}

// namedHistograms renders a NamedHistogram family: each entry becomes one
// labeled sub-series (`labelName="entry.Name"`) under a single family
// header shared by all variants.
func (p *promWriter) namedHistograms(name, help, labelName string, get func(*Snapshot) []NamedHistogram) {
	full := "cop_" + name
	header := false
	for _, v := range p.vs {
		for _, nh := range get(v.snap) {
			if !header {
				p.printf("# HELP %s %s\n# TYPE %s histogram\n", full, help, full)
				header = true
			}
			labels := v.labels + `,` + labelName + `="` + escapeLabelValue(nh.Name) + `"`
			p.histogramSamples(full, labels, nh.Nanos)
		}
	}
}

func (p *promWriter) histogramSamples(full, labels string, h HistogramSnapshot) {
	cum := uint64(0)
	for i, c := range h.Buckets {
		cum += c
		p.printf("%s_bucket{%s,le=\"%s\"} %d\n", full, labels, strconv.FormatUint(BucketBound(i), 10), cum)
	}
	p.printf("%s_bucket{%s,le=\"+Inf\"} %d\n", full, labels, h.Count)
	p.printf("%s_sum{%s} %d\n%s_count{%s} %d\n", full, labels, h.Sum, full, labels, h.Count)
}

func (p *promWriter) writeAll() {
	always := func(get func(*Snapshot) uint64) func(*Snapshot) (uint64, bool) {
		return func(s *Snapshot) (uint64, bool) { return get(s), true }
	}
	alwaysF := func(get func(*Snapshot) float64) func(*Snapshot) (float64, bool) {
		return func(s *Snapshot) (float64, bool) { return get(s), true }
	}

	p.counter("controller_loads", "block loads issued to the controller", always(func(s *Snapshot) uint64 { return s.Controller.Loads }))
	p.counter("controller_stores", "block stores issued to the controller", always(func(s *Snapshot) uint64 { return s.Controller.Stores }))
	p.counter("controller_fills", "LLC miss fills decoded from DRAM", always(func(s *Snapshot) uint64 { return s.Controller.Fills }))
	p.counter("controller_writebacks", "dirty lines written back to DRAM", always(func(s *Snapshot) uint64 { return s.Controller.Writebacks }))
	p.counter("controller_stored_compressed", "writebacks stored compressed with inline ECC", always(func(s *Snapshot) uint64 { return s.Controller.StoredCompressed }))
	p.counter("controller_stored_raw", "writebacks stored raw", always(func(s *Snapshot) uint64 { return s.Controller.StoredRaw }))
	p.counter("controller_alias_retained", "writebacks rejected as incompressible aliases", always(func(s *Snapshot) uint64 { return s.Controller.AliasRetained }))
	p.counter("controller_corrected_errors", "fills with at least one corrected error", always(func(s *Snapshot) uint64 { return s.Controller.CorrectedErrors }))
	p.counter("controller_uncorrectable_errors", "fills that raised an uncorrectable error", always(func(s *Snapshot) uint64 { return s.Controller.UncorrectableErrors }))
	p.counter("controller_region_reads", "ECC-region metadata block accesses", always(func(s *Snapshot) uint64 { return s.Controller.RegionReads }))
	p.counter("controller_scrubs", "corrected images rewritten to DRAM", always(func(s *Snapshot) uint64 { return s.Controller.Scrubs }))
	p.counter("controller_scrub_scans", "DRAM images examined by background scrub and migration", always(func(s *Snapshot) uint64 { return s.Controller.ScrubScans }))
	p.counter("controller_scrub_corrected", "errors corrected on background scrub rather than on read", always(func(s *Snapshot) uint64 { return s.Controller.ScrubCorrected }))
	p.counter("controller_scrub_uncorrectable", "uncorrectable images found by background scrub", always(func(s *Snapshot) uint64 { return s.Controller.ScrubUncorrectable }))
	p.counter("controller_migrated_blocks", "DRAM images re-encoded by live scheme migration", always(func(s *Snapshot) uint64 { return s.Controller.MigratedBlocks }))
	p.counter("controller_ever_incompressible", "distinct blocks ever stored raw", always(func(s *Snapshot) uint64 { return s.Controller.EverIncompressible }))
	p.counter("controller_dimm_check_bytes_written", "ECC-DIMM ninth-chip bytes written", always(func(s *Snapshot) uint64 { return s.Controller.DIMMCheckBytesWritten }))
	p.histogram("controller_valid_codewords", "decoder zero-syndrome code-word count per fill", func(s *Snapshot) (HistogramSnapshot, bool) { return s.Controller.ValidCodewords, true })

	p.counter("cache_hits", "LLC hits", always(func(s *Snapshot) uint64 { return s.Cache.Hits }))
	p.counter("cache_misses", "LLC misses", always(func(s *Snapshot) uint64 { return s.Cache.Misses }))
	p.counter("cache_evictions", "LLC evictions", always(func(s *Snapshot) uint64 { return s.Cache.Evictions }))
	p.counter("cache_writebacks", "dirty LLC evictions handed to the controller", always(func(s *Snapshot) uint64 { return s.Cache.Writebacks }))
	p.counter("cache_alias_pins", "victim selections that skipped an alias line", always(func(s *Snapshot) uint64 { return s.Cache.AliasPins }))
	p.counter("cache_spills", "alias lines spilled to set overflow lists", always(func(s *Snapshot) uint64 { return s.Cache.Spills }))
	p.counter("cache_overflow_searches", "misses that walked an overflow list", always(func(s *Snapshot) uint64 { return s.Cache.OverflowSearches }))
	p.counter("cache_overflow_hits", "overflow-list hits", always(func(s *Snapshot) uint64 { return s.Cache.OverflowHits }))
	p.histogram("cache_overflow_occupancy", "overflow-list length observed at each spill", func(s *Snapshot) (HistogramSnapshot, bool) { return s.Cache.OverflowOccupancy, true })

	p.counter("region_reads", "region block reads", func(s *Snapshot) (uint64, bool) {
		if s.Region == nil {
			return 0, false
		}
		return s.Region.Reads, true
	})
	p.counter("region_writes", "region block writes", func(s *Snapshot) (uint64, bool) {
		if s.Region == nil {
			return 0, false
		}
		return s.Region.Writes, true
	})
	p.counter("region_allocs", "region entries allocated", func(s *Snapshot) (uint64, bool) {
		if s.Region == nil {
			return 0, false
		}
		return s.Region.Allocs, true
	})
	p.counter("region_frees", "region entries freed", func(s *Snapshot) (uint64, bool) {
		if s.Region == nil {
			return 0, false
		}
		return s.Region.Frees, true
	})
	p.gauge("region_live_entries", "currently live region entries", func(s *Snapshot) (float64, bool) {
		if s.Region == nil {
			return 0, false
		}
		return float64(s.Region.Live), true
	})
	p.gauge("region_high_water_entries", "maximum simultaneously live region entries", func(s *Snapshot) (float64, bool) {
		if s.Region == nil {
			return 0, false
		}
		return float64(s.Region.HighWater), true
	})
	p.gauge("region_blocks_used", "64-byte blocks occupied by the region", func(s *Snapshot) (float64, bool) {
		if s.Region == nil {
			return 0, false
		}
		return float64(s.Region.BlocksUsed), true
	})

	p.counter("dram_reads", "DRAM read accesses", func(s *Snapshot) (uint64, bool) {
		if s.DRAM == nil {
			return 0, false
		}
		return s.DRAM.Reads, true
	})
	p.counter("dram_writes", "DRAM write accesses", func(s *Snapshot) (uint64, bool) {
		if s.DRAM == nil {
			return 0, false
		}
		return s.DRAM.Writes, true
	})
	p.counter("dram_row_hits", "row-buffer hits", func(s *Snapshot) (uint64, bool) {
		if s.DRAM == nil {
			return 0, false
		}
		return s.DRAM.RowHits, true
	})
	p.counter("dram_row_misses", "row-buffer misses", func(s *Snapshot) (uint64, bool) {
		if s.DRAM == nil {
			return 0, false
		}
		return s.DRAM.RowMisses, true
	})
	p.counter("dram_row_conflicts", "row misses that also required a precharge", func(s *Snapshot) (uint64, bool) {
		if s.DRAM == nil {
			return 0, false
		}
		return s.DRAM.RowConflicts, true
	})
	p.counter("dram_total_latency_cycles", "summed access latency in memory-bus cycles", func(s *Snapshot) (uint64, bool) {
		if s.DRAM == nil {
			return 0, false
		}
		return s.DRAM.TotalLatency, true
	})
	p.counter("dram_total_queue_delay_cycles", "summed queue delay in memory-bus cycles", func(s *Snapshot) (uint64, bool) {
		if s.DRAM == nil {
			return 0, false
		}
		return s.DRAM.TotalQueueDelay, true
	})
	p.gauge("dram_max_concurrent", "largest batch of simultaneous requests observed", func(s *Snapshot) (float64, bool) {
		if s.DRAM == nil {
			return 0, false
		}
		return float64(s.DRAM.MaxConcurrent), true
	})
	p.histogram("dram_access_latency_cycles", "per-access latency in memory-bus cycles", func(s *Snapshot) (HistogramSnapshot, bool) {
		if s.DRAM == nil {
			return HistogramSnapshot{}, false
		}
		return s.DRAM.AccessLatency, true
	})
	p.histogram("dram_queue_delay_cycles", "per-access queue delay in memory-bus cycles", func(s *Snapshot) (HistogramSnapshot, bool) {
		if s.DRAM == nil {
			return HistogramSnapshot{}, false
		}
		return s.DRAM.QueueDelay, true
	})

	p.counter("batch_enqueued", "group-window operations executed", func(s *Snapshot) (uint64, bool) {
		if s.Batch == nil {
			return 0, false
		}
		return s.Batch.Enqueued, true
	})
	p.counter("batch_batches", "shard-lock holds that executed window operations", func(s *Snapshot) (uint64, bool) {
		if s.Batch == nil {
			return 0, false
		}
		return s.Batch.Batches, true
	})
	p.counter("batch_drains", "completed shard drain fences", func(s *Snapshot) (uint64, bool) {
		if s.Batch == nil {
			return 0, false
		}
		return s.Batch.Drains, true
	})
	p.gauge("batch_max_depth", "largest window hold ever executed", func(s *Snapshot) (float64, bool) {
		if s.Batch == nil {
			return 0, false
		}
		return float64(s.Batch.MaxDepth), true
	})
	p.histogram("batch_depth", "window operations per shard-lock hold", func(s *Snapshot) (HistogramSnapshot, bool) {
		if s.Batch == nil {
			return HistogramSnapshot{}, false
		}
		return s.Batch.Depth, true
	})

	p.counter("migration_scheme_migrations", "completed live scheme migrations", func(s *Snapshot) (uint64, bool) {
		if s.Migration == nil {
			return 0, false
		}
		return s.Migration.SchemeMigrations, true
	})
	p.counter("migration_reshards", "completed online reshards", func(s *Snapshot) (uint64, bool) {
		if s.Migration == nil {
			return 0, false
		}
		return s.Migration.Reshards, true
	})
	p.counter("migration_chunks", "bounded-pause conversion steps applied", func(s *Snapshot) (uint64, bool) {
		if s.Migration == nil {
			return 0, false
		}
		return s.Migration.Chunks, true
	})
	p.counter("migration_blocks_migrated", "blocks re-encoded by scheme migration", func(s *Snapshot) (uint64, bool) {
		if s.Migration == nil {
			return 0, false
		}
		return s.Migration.BlocksMigrated, true
	})
	p.counter("migration_blocks_moved", "blocks copied between stripes by resharding", func(s *Snapshot) (uint64, bool) {
		if s.Migration == nil {
			return 0, false
		}
		return s.Migration.BlocksMoved, true
	})
	p.gauge("migration_active", "reconfigurations currently in progress", func(s *Snapshot) (float64, bool) {
		if s.Migration == nil {
			return 0, false
		}
		return float64(s.Migration.Active), true
	})

	p.counter("net_frames", "request frames executed by the serve datapath", func(s *Snapshot) (uint64, bool) {
		if s.Net == nil {
			return 0, false
		}
		return s.Net.Frames, true
	})
	p.counter("net_ops", "operations carried by executed request frames", func(s *Snapshot) (uint64, bool) {
		if s.Net == nil {
			return 0, false
		}
		return s.Net.Ops, true
	})
	p.counter("net_bytes_in", "request frame bytes received", func(s *Snapshot) (uint64, bool) {
		if s.Net == nil {
			return 0, false
		}
		return s.Net.BytesIn, true
	})
	p.counter("net_bytes_out", "response frame bytes sent", func(s *Snapshot) (uint64, bool) {
		if s.Net == nil {
			return 0, false
		}
		return s.Net.BytesOut, true
	})
	p.counter("net_pool_hits", "frame-scratch acquisitions served from the pool", func(s *Snapshot) (uint64, bool) {
		if s.Net == nil {
			return 0, false
		}
		return s.Net.PoolHits, true
	})
	p.counter("net_pool_misses", "frame-scratch acquisitions that allocated", func(s *Snapshot) (uint64, bool) {
		if s.Net == nil {
			return 0, false
		}
		return s.Net.PoolMisses, true
	})
	p.gauge("net_inflight", "admitted requests currently executing", func(s *Snapshot) (float64, bool) {
		if s.Net == nil {
			return 0, false
		}
		return float64(s.Net.Inflight), true
	})
	p.gauge("net_max_inflight", "highest request concurrency observed", func(s *Snapshot) (float64, bool) {
		if s.Net == nil {
			return 0, false
		}
		return float64(s.Net.MaxInflight), true
	})

	p.histogram("serve_frame_nanos", "end-to-end wall-clock per request frame (ns)", func(s *Snapshot) (HistogramSnapshot, bool) {
		if s.Serve == nil {
			return HistogramSnapshot{}, false
		}
		return s.Serve.Frame, true
	})
	p.namedHistograms("serve_stage_nanos", "per-stage serve-datapath wall-clock (ns)", "stage", func(s *Snapshot) []NamedHistogram {
		if s.Serve == nil {
			return nil
		}
		return s.Serve.Stages
	})
	p.namedHistograms("serve_op_nanos", "per-op-kind serve wall-clock (ns)", "op", func(s *Snapshot) []NamedHistogram {
		if s.Serve == nil {
			return nil
		}
		return s.Serve.Ops
	})
	p.counter("serve_slow_frames", "frames that crossed the slow-frame threshold", func(s *Snapshot) (uint64, bool) {
		if s.Serve == nil {
			return 0, false
		}
		return s.Serve.SlowFrames, true
	})

	p.gauge("derived_llc_hit_rate", "cache hits over lookups", alwaysF(func(s *Snapshot) float64 { return s.Derived.LLCHitRate }))
	p.gauge("derived_compressed_fraction", "compressed writebacks over all stored blocks", alwaysF(func(s *Snapshot) float64 { return s.Derived.CompressedFraction }))
	p.gauge("derived_corrected_per_million_loads", "corrected errors per million loads", alwaysF(func(s *Snapshot) float64 { return s.Derived.CorrectedPerMillionLoads }))
	p.gauge("derived_row_hit_rate", "DRAM row-buffer hit rate", alwaysF(func(s *Snapshot) float64 { return s.Derived.RowHitRate }))
	p.gauge("derived_avg_access_latency_cycles", "mean DRAM access latency", alwaysF(func(s *Snapshot) float64 { return s.Derived.AvgAccessLatency }))
}
