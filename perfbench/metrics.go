package main

// The metric catalogue: every metric the benchmark prints, its unit and
// direction, and for per-layer metrics the end-to-end metric it should
// move and the workloads where it should and should not move it.
// BENCHMARK.json repeats the gated part of this table; a test keeps the
// two in step.

const (
	wMemlink = "memlink-mix4"
	wMesh    = "mesh16-fault"
	wCodec   = "codec-roundtrip"
	wFigs    = "paper-figs"
)

var allWorkloads = []string{wMemlink, wMesh, wCodec, wFigs}

// Seeds: DefaultSeed is used while a change is developed; HeldOutSeed
// verifies a claim on inputs the change was not tuned on.
const (
	DefaultSeed = 1
	HeldOutSeed = 7919
)

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// Layer, Moves, On and FlatOn form the metric-interaction map of
	// a per-layer metric.
	Layer  string   `json:"layer,omitempty"`
	Moves  []string `json:"moves,omitempty"`
	On     []string `json:"moves_on,omitempty"`
	FlatOn []string `json:"flat_on,omitempty"`
	Def    string   `json:"definition"`
}

// endToEnd are the gated metrics: printed by every untraced run, for
// every workload, and never zero.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Def: "median over setup rounds of building the inputs from the seed plus one warm-up repetition"},
	{Name: "lines_per_s", Unit: "lines/s", Better: "higher", Bound: 0.24,
		Def: "64-byte lines through CABLE link ends per host second, median over repetitions"},
	{Name: "cable_ratio", Unit: "x", Better: "higher", Bound: 0.05,
		Def: "simulated CABLE link compression ratio (deterministic for a seed)"},
	{Name: "allocs_per_line", Unit: "allocs", Better: "lower", Bound: 0.1,
		Def: "runtime Mallocs delta over the timed repetitions per line"},
	{Name: "alloc_bytes_per_line", Unit: "B", Better: "lower", Bound: 0.1,
		Def: "runtime TotalAlloc delta over the timed repetitions per line"},
	{Name: "peak_rss_MB", Unit: "MB", Better: "lower", Bound: 0.24,
		Def: "process maximum resident set size from getrusage"},
}

// reported are end-to-end metrics that exist on some workloads only,
// or that are zero on a correct run. They are printed in the report
// lines but cannot be gated, because a gated metric must be present
// and non-zero on every workload.
var reported = []metricDef{
	{Name: "encode_MBps", Unit: "MB/s", Better: "higher", On: []string{wCodec},
		Def: "plaintext through the stream encoder's Write and Close per host second"},
	{Name: "decode_MBps", Unit: "MB/s", Better: "higher", On: []string{wCodec},
		Def: "plaintext out of the stream decoder's Read until io.EOF per host second"},
	{Name: "frame_encode_us_p50", Unit: "us", Better: "lower", On: []string{wCodec},
		Def: "latency of one frame-sized Write, median over every Write of the run"},
	{Name: "frame_encode_us_p99", Unit: "us", Better: "lower", On: []string{wCodec},
		Def: "latency of one frame-sized Write, 99th percentile over every Write of the run"},
	{Name: "cable_speedup", Unit: "x", Better: "higher", On: []string{wMesh, wFigs},
		Def: "simulated raw makespan over CABLE makespan, or fig14a mean/cable"},
	{Name: "failed_share", Unit: "fraction", Better: "lower", On: allWorkloads,
		Def: "failed repetitions over attempted ones; also carried by the result's attempted/failed keys"},
}

var (
	simWorkloads = []string{wMemlink, wMesh, wFigs}
	notCodec     = []string{wCodec}
)

// perLayer are printed by the traced run, for every workload; a layer
// a workload does not reach reads 0.
var perLayer = []metricDef{
	{Name: "workload.cpu_share", Unit: "fraction", Better: "lower", Layer: "workload",
		Moves: []string{"lines_per_s"}, On: simWorkloads, FlatOn: notCodec,
		Def: "CPU profile share charged to workload and workload/spec"},
	{Name: "workload.next_ns_per_line", Unit: "ns", Better: "lower", Layer: "workload",
		Moves: []string{"lines_per_s"}, On: []string{wMemlink}, FlatOn: notCodec,
		Def: "time in spec Mix.Next per line (memlink-mix4 only)"},
	{Name: "workload.line_data_ns_per_line", Unit: "ns", Better: "lower", Layer: "workload",
		Moves: []string{"lines_per_s"}, On: []string{wMemlink}, FlatOn: notCodec,
		Def: "time in the chip's fill callback (Mix.LineData) per line (memlink-mix4 only)"},
	{Name: "workload.linecache_hit_ratio", Unit: "fraction", Better: "higher", Layer: "workload",
		Moves: []string{"lines_per_s"}, On: []string{wMemlink, wFigs}, FlatOn: notCodec,
		Def: "workload.linecache_hits over hits plus misses (0 on mesh16-fault, whose content generators report into a throwaway registry)"},
	{Name: "workload.materialized_per_line", Unit: "count", Better: "lower", Layer: "workload",
		Moves: []string{"lines_per_s"}, On: []string{wMemlink, wFigs}, FlatOn: notCodec,
		Def: "workload.linecache_misses (line materializations) per line (0 on mesh16-fault, as above)"},

	{Name: "sim.access_self_ns_per_line", Unit: "ns", Better: "lower", Layer: "sim",
		Moves: []string{"lines_per_s"}, On: []string{wMemlink}, FlatOn: notCodec,
		Def: "Chip.Access span minus its fill-callback child spans, per line (memlink-mix4 only)"},
	{Name: "sim.cpu_share", Unit: "fraction", Better: "lower", Layer: "sim",
		Moves: []string{"lines_per_s"}, On: []string{wMemlink}, FlatOn: notCodec,
		Def: "CPU profile share charged to sim"},
	{Name: "sim.meter_ns_per_line", Unit: "ns", Better: "lower", Layer: "sim",
		Moves: []string{"lines_per_s"}, On: []string{wFigs}, FlatOn: []string{wMemlink, wCodec},
		Def: "profiled CPU ns under a sim baseline meter per line"},

	{Name: "core.cpu_share", Unit: "fraction", Better: "lower", Layer: "core",
		Moves: []string{"lines_per_s", "encode_MBps"}, On: []string{wCodec, wMemlink},
		Def: "CPU profile share charged to core (home and remote link ends)"},
	{Name: "core.candidates_per_fill", Unit: "count", Better: "lower", Layer: "core",
		Moves: []string{"lines_per_s", "encode_MBps"}, On: []string{wCodec, wMemlink},
		Def: "core.candidates_read per core.fills"},
	{Name: "core.sigs_per_fill", Unit: "count", Better: "lower", Layer: "core",
		Moves: []string{"lines_per_s", "encode_MBps"}, On: []string{wCodec, wMemlink},
		Def: "core.sigs_searched per core.fills"},
	{Name: "core.ht_hit_ratio", Unit: "x", Better: "higher", Layer: "core",
		Moves: []string{"cable_ratio"}, On: allWorkloads,
		Def: "core.ht_hits (LineIDs returned) over core.ht_probes; above 1 when a probe returns several"},
	{Name: "core.wmt_hit_ratio", Unit: "fraction", Better: "higher", Layer: "core",
		Moves: []string{"cable_ratio"}, On: allWorkloads,
		Def: "core.wmt_hits over WMT hits plus misses"},
	{Name: "core.diff_share", Unit: "fraction", Better: "higher", Layer: "core",
		Moves: []string{"cable_ratio"}, On: allWorkloads,
		Def: "core.outcome_diff per core.fills"},
	{Name: "core.raw_share", Unit: "fraction", Better: "lower", Layer: "core",
		Moves: []string{"cable_ratio"}, On: allWorkloads,
		Def: "core.outcome_raw per core.fills"},
	{Name: "core.standalone_share", Unit: "fraction", Better: "higher", Layer: "core",
		Moves: []string{"cable_ratio"}, On: allWorkloads,
		Def: "core.outcome_standalone per core.fills"},
	{Name: "core.threshold_skip_share", Unit: "fraction", Better: "higher", Layer: "core",
		Moves: []string{"cable_ratio"}, On: allWorkloads,
		Def: "core.threshold_skips per core.fills"},
	{Name: "core.payload_bits_per_line", Unit: "bits", Better: "lower", Layer: "core",
		Moves: []string{"cable_ratio"}, On: allWorkloads,
		Def: "core.payload_bits per core.fills"},
	{Name: "core.wb_diff_share", Unit: "fraction", Better: "higher", Layer: "core",
		Moves: []string{"cable_ratio"}, On: []string{wMemlink, wFigs},
		Def: "remote.wb_diff over remote.writebacks"},

	{Name: "compress.cpu_share", Unit: "fraction", Better: "lower", Layer: "compress",
		Moves: []string{"lines_per_s", "encode_MBps"}, On: []string{wFigs, wCodec},
		Def: "CPU profile share charged to compress"},
	{Name: "compress.ops_per_line", Unit: "count", Better: "lower", Layer: "compress",
		Moves: []string{"lines_per_s", "encode_MBps"}, On: []string{wFigs, wCodec},
		Def: "compress.ops per line"},
	{Name: "compress.out_bits_per_op", Unit: "bits", Better: "lower", Layer: "compress",
		Moves: []string{"cable_ratio"}, On: allWorkloads,
		Def: "compress.out_bits over compress.ops"},

	{Name: "cache.cpu_share", Unit: "fraction", Better: "lower", Layer: "cache",
		Moves: []string{"encode_MBps", "decode_MBps", "lines_per_s"}, On: []string{wCodec, wMemlink},
		Def: "CPU profile share charged to cache"},
	{Name: "sig.cpu_share", Unit: "fraction", Better: "lower", Layer: "sig",
		Moves: []string{"encode_MBps", "decode_MBps", "lines_per_s"}, On: []string{wCodec, wMemlink},
		Def: "CPU profile share charged to sig"},
	{Name: "bits.cpu_share", Unit: "fraction", Better: "lower", Layer: "bits",
		Moves: []string{"encode_MBps", "decode_MBps", "lines_per_s"}, On: []string{wCodec, wMemlink},
		Def: "CPU profile share charged to bits"},

	{Name: "link.cpu_share", Unit: "fraction", Better: "lower", Layer: "link",
		Moves: []string{"lines_per_s"}, On: []string{wFigs}, FlatOn: notCodec,
		Def: "CPU profile share charged to link"},
	{Name: "link.wire_bits_per_line", Unit: "bits", Better: "lower", Layer: "link",
		Moves: []string{"cable_ratio"}, On: simWorkloads, FlatOn: notCodec,
		Def: "link.wire_bits per line"},
	{Name: "link.toggles_per_line", Unit: "count", Better: "lower", Layer: "link",
		Moves: []string{"lines_per_s"}, On: []string{wFigs}, FlatOn: notCodec,
		Def: "link.toggles per line"},

	{Name: "fault.cpu_share", Unit: "fraction", Better: "lower", Layer: "fault",
		Moves: []string{"lines_per_s"}, On: []string{wMesh}, FlatOn: []string{wMemlink, wCodec, wFigs},
		Def: "CPU profile share charged to fault"},
	{Name: "fault.corrupted_share", Unit: "fraction", Better: "lower", Layer: "fault",
		Moves: []string{"lines_per_s"}, On: []string{wMesh}, FlatOn: []string{wMemlink, wCodec, wFigs},
		Def: "fault.corrupted over fault.images"},

	{Name: "topo.cpu_share", Unit: "fraction", Better: "lower", Layer: "topo",
		Moves: []string{"lines_per_s", "allocs_per_line"}, On: []string{wMesh}, FlatOn: []string{wMemlink, wCodec, wFigs},
		Def: "CPU profile share charged to topo"},
	{Name: "topo.run_ms", Unit: "ms", Better: "lower", Layer: "topo",
		Moves: []string{"lines_per_s"}, On: []string{wMesh}, FlatOn: []string{wMemlink, wCodec, wFigs},
		Def: "RunTopology span, median over traced repetitions"},
	{Name: "topo.raw_fallback_share", Unit: "fraction", Better: "lower", Layer: "topo",
		Moves: []string{"cable_ratio", "cable_speedup"}, On: []string{wMesh}, FlatOn: []string{wMemlink, wCodec, wFigs},
		Def: "topo.raw_fallbacks over topo.link_transfers"},
	{Name: "topo.decode_error_share", Unit: "fraction", Better: "lower", Layer: "topo",
		Moves: []string{"cable_ratio", "cable_speedup"}, On: []string{wMesh}, FlatOn: []string{wMemlink, wCodec, wFigs},
		Def: "topo.decode_errors over topo.link_transfers"},
	{Name: "topo.remote_hit_ratio", Unit: "fraction", Better: "higher", Layer: "topo",
		Moves: []string{"cable_ratio", "cable_speedup"}, On: []string{wMesh}, FlatOn: []string{wMemlink, wCodec, wFigs},
		Def: "topo.remote_hits (header-only transfers) over topo.link_transfers"},

	{Name: "codec.cpu_share", Unit: "fraction", Better: "lower", Layer: "codec",
		Moves: []string{"encode_MBps", "decode_MBps"}, On: []string{wCodec}, FlatOn: simWorkloads,
		Def: "CPU profile share charged to codec"},
	{Name: "codec.write_ns_per_line", Unit: "ns", Better: "lower", Layer: "codec",
		Moves: []string{"encode_MBps", "frame_encode_us_p50", "frame_encode_us_p99"}, On: []string{wCodec}, FlatOn: simWorkloads,
		Def: "Write and Close spans per corpus line"},
	{Name: "codec.sink_ns_per_frame", Unit: "ns", Better: "lower", Layer: "codec",
		Moves: []string{"encode_MBps"}, On: []string{wCodec}, FlatOn: simWorkloads,
		Def: "time in the wire io.Writer per write the encoder issues"},
	{Name: "codec.read_ns_per_line", Unit: "ns", Better: "lower", Layer: "codec",
		Moves: []string{"decode_MBps"}, On: []string{wCodec}, FlatOn: simWorkloads,
		Def: "Read spans per corpus line"},
	{Name: "codec.raw_frame_share", Unit: "fraction", Better: "lower", Layer: "codec",
		Moves: []string{"encode_MBps", "cable_ratio"}, On: []string{wCodec}, FlatOn: simWorkloads,
		Def: "raw frames over all frames"},
	{Name: "codec.out_bytes_per_line", Unit: "B", Better: "lower", Layer: "codec",
		Moves: []string{"cable_ratio"}, On: []string{wCodec}, FlatOn: simWorkloads,
		Def: "encoded bytes per corpus line"},

	{Name: "experiments.cpu_share", Unit: "fraction", Better: "lower", Layer: "experiments",
		Moves: []string{"lines_per_s"}, On: []string{wFigs}, FlatOn: []string{wMemlink, wMesh, wCodec},
		Def: "CPU profile share charged to experiments"},
	{Name: "experiments.cells", Unit: "count", Better: "higher", Layer: "experiments",
		Moves: []string{"lines_per_s"}, On: []string{wFigs}, FlatOn: []string{wMemlink, wMesh, wCodec},
		Def: "experiments.cells per repetition"},
	{Name: "experiments.fig13_s", Unit: "s", Better: "lower", Layer: "experiments",
		Moves: []string{"lines_per_s"}, On: []string{wFigs}, FlatOn: []string{wMemlink, wMesh, wCodec},
		Def: "fig13 wall clock as StreamExperiments reports it, median over traced repetitions"},
	{Name: "experiments.fig14a_s", Unit: "s", Better: "lower", Layer: "experiments",
		Moves: []string{"lines_per_s"}, On: []string{wFigs}, FlatOn: []string{wMemlink, wMesh, wCodec},
		Def: "fig14a wall clock as StreamExperiments reports it, median over traced repetitions"},

	{Name: "runtime.cpu_share", Unit: "fraction", Better: "lower", Layer: "runtime",
		Moves: []string{"lines_per_s"}, On: allWorkloads,
		Def: "CPU profile share of runtime stacks with no layer frame (GC workers, scheduler)"},
	{Name: "runtime.gc_cpu_share", Unit: "fraction", Better: "lower", Layer: "runtime",
		Moves: []string{"lines_per_s", "allocs_per_line"}, On: allWorkloads,
		Def: "CPU profile share of GC work, wherever it is charged"},
	{Name: "host.cpu_per_wall", Unit: "x", Better: "higher", Layer: "runtime",
		Moves: []string{"lines_per_s"}, On: []string{wMesh, wFigs},
		Def: "process CPU seconds per wall second over the traced repetitions"},

	{Name: "trace.overhead_share", Unit: "fraction", Better: "lower", Layer: "trace",
		Def: "traced median repetition time over untraced median, minus one"},
}

// unitOf returns a catalogued metric's unit.
func unitOf(name string) string {
	for _, set := range [][]metricDef{endToEnd, reported, perLayer} {
		for _, m := range set {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	panic("perfbench: uncatalogued metric " + name)
}
