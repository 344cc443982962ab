// Command perfbench is the repository's benchmark: four closed-loop
// workloads driven through the public cable entry points, end-to-end
// metrics from an untraced run, and per-layer metrics from a separate
// traced run. See README.md for usage.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// scale multiplies repetition sizes; the tests shrink it.
	scale     float64
	spansDir  string // where the traced run writes its spans
	stdout    io.Writer
	startTime time.Time
	// setupRounds is how many times set-up runs; setup_s is their
	// median. minReps is the fewest timed repetitions a phase runs,
	// however long each takes, so that every median has a middle.
	setupRounds, minReps int
}

func main() {
	opt := options{scale: 1, spansDir: ".bench_build/perfbench-spans", stdout: os.Stdout, startTime: time.Now(),
		setupRounds: 3, minReps: 3}
	var trace int
	var list bool
	flag.StringVar(&opt.workload, "workload", "", "workload to run: "+fmt.Sprint(allWorkloads)+" or all")
	flag.Uint64Var(&opt.seed, "seed", DefaultSeed, fmt.Sprintf("input seed (held-out seed for verifying a claim: %d)", HeldOutSeed))
	flag.Float64Var(&opt.seconds, "seconds", 10, "measured seconds (the traced run splits them between untraced and traced repetitions)")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	flag.BoolVar(&list, "list", false, "print the workload and metric catalogue as JSON and exit")
	flag.Parse()
	if list {
		if err := writeCatalogue(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	opt.trace = trace == 1
	names := []string{opt.workload}
	if opt.workload == "all" {
		names = allWorkloads
	}
	ok := true
	for _, name := range names {
		res, err := run(name, opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Reported holds the metrics printed only in the report lines.
	Reported map[string]metricValue `json:"-"`
}

// phase is the outcome of one closed loop of repetitions.
type phase struct {
	reps      []repOut
	durs      []time.Duration
	attempted int
	failures  []string
}

// loop runs repetitions back to back until d has passed and at least
// minReps have run.
func loop(inst instance, d time.Duration, minReps int) phase {
	var ph phase
	start := time.Now()
	for ph.attempted < minReps || time.Since(start) < d {
		runtime.GC()
		ph.runOne(inst, nil, ph.digest())
	}
	return ph
}

// runOne runs and times one repetition. A repetition that errors,
// panics, or reports a digest other than want (when want is set)
// counts as failed. Callers collect the heap first, outside the timed
// region, so that the previous repetition's garbage inflates neither
// this one's GC work nor the peak RSS.
func (ph *phase) runOne(inst instance, tr *tracer, want string) {
	ph.attempted++
	if tr != nil {
		tr.rep++
	}
	t0 := time.Now()
	out, err := safeRep(inst, tr)
	dur := time.Since(t0)
	if err == nil && want != "" && out.digest != want {
		err = fmt.Errorf("digest %q differs from %q", out.digest, want)
	}
	if err != nil {
		ph.failures = append(ph.failures, fmt.Sprintf("repetition %d: %v", ph.attempted, err))
		return
	}
	ph.reps = append(ph.reps, out)
	ph.durs = append(ph.durs, dur)
}

// safeRep runs one repetition, turning a Verify panic on this
// goroutine into a failed repetition.
func safeRep(inst instance, tr *tracer) (out repOut, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return inst.rep(tr)
}

func (ph phase) digest() string {
	if len(ph.reps) == 0 {
		return ""
	}
	return ph.reps[0].digest
}

func (ph phase) lines() uint64 {
	var n uint64
	for _, r := range ph.reps {
		n += r.lines
	}
	return n
}

func (ph phase) medianDur() float64 {
	xs := make([]float64, len(ph.durs))
	for i, d := range ph.durs {
		xs[i] = d.Seconds()
	}
	return quantile(xs, 0.5)
}

// perRep returns f over every successful repetition.
func (ph phase) perRep(f func(repOut, time.Duration) float64) []float64 {
	xs := make([]float64, len(ph.reps))
	for i, r := range ph.reps {
		xs[i] = f(r, ph.durs[i])
	}
	return xs
}

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func run(name string, opt options) (result, error) {
	wl, ok := findWorkload(name)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want one of %v or all)", name, allWorkloads)
	}
	if opt.seconds <= 0 {
		return result{}, errors.New("--seconds must be positive")
	}
	p := params{seed: opt.seed, scale: opt.scale, workers: runtime.NumCPU()}
	out := opt.stdout
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%g trace=%v scale=%g gomaxprocs=%d ncpu=%d %s\n",
		name, opt.seed, opt.seconds, opt.trace, opt.scale, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	fmt.Fprintf(out, "why: %s\nseed reaches: %s\n", wl.why, wl.seedReach)

	var (
		inst   instance
		setups []float64
	)
	for r := 0; r < opt.setupRounds; r++ {
		t0 := time.Now()
		var err error
		if inst, err = wl.setup(p); err == nil {
			err = inst.warm()
		}
		if err != nil {
			return result{}, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	fmt.Fprintf(out, "setup rounds (s): %v; process start to first repetition %.3f s\n",
		setups, time.Since(opt.startTime).Seconds())

	d := time.Duration(opt.seconds * float64(time.Second))
	var res result
	if opt.trace {
		res = traced(name, inst, d, opt)
	} else {
		res = untraced(name, inst, d, quantile(setups, 0.5), opt)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "%s\n", line)
	return res, nil
}

func (ph phase) report(out io.Writer, label string) {
	var total time.Duration
	for _, d := range ph.durs {
		total += d
	}
	fmt.Fprintf(out, "%s: %d repetitions attempted, %d failed, %.3f s in successful ones\n",
		label, ph.attempted, len(ph.failures), total.Seconds())
	fmt.Fprintf(out, "  repetition ms:")
	for _, d := range ph.durs {
		fmt.Fprintf(out, " %.1f", float64(d.Microseconds())/1e3)
	}
	fmt.Fprintln(out)
	for _, f := range ph.failures {
		fmt.Fprintln(out, "  FAILED", f)
	}
	if len(ph.reps) > 0 {
		fmt.Fprintf(out, "  digest %s\n", ph.digest())
	}
}

func untraced(name string, inst instance, d time.Duration, setup float64, opt options) result {
	out := opt.stdout
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	ph := loop(inst, d, opt.minReps)
	runtime.ReadMemStats(&m1)
	ph.report(out, "untraced")

	lines := float64(ph.lines())
	perLine := func(x uint64) float64 {
		if lines == 0 {
			return 0
		}
		return float64(x) / lines
	}
	res := result{
		Correct:   len(ph.failures) == 0 && len(ph.reps) > 0,
		Attempted: ph.attempted,
		Failed:    len(ph.failures),
		Metrics:   map[string]metricValue{},
	}
	set := func(name string, v float64) { res.Metrics[name] = metricValue{v, unitOf(name)} }
	set("setup_s", setup)
	set("lines_per_s", quantile(ph.perRep(func(r repOut, d time.Duration) float64 {
		return float64(r.lines) / d.Seconds()
	}), 0.5))
	if len(ph.reps) > 0 {
		set("cable_ratio", ph.reps[0].ratio)
	}
	set("allocs_per_line", perLine(m1.Mallocs-m0.Mallocs))
	set("alloc_bytes_per_line", perLine(m1.TotalAlloc-m0.TotalAlloc))
	set("peak_rss_MB", peakRSSMB())
	for _, def := range endToEnd {
		v, ok := res.Metrics[def.Name]
		if !ok || v.Value == 0 || math.IsNaN(v.Value) {
			res.Correct = false
			fmt.Fprintf(out, "  missing or zero end-to-end metric %s\n", def.Name)
		}
	}

	// The reported-only metrics go to the report lines: the result
	// line carries exactly the gated set.
	res.Reported = map[string]metricValue{}
	put := func(name string, v float64) { res.Reported[name] = metricValue{v, unitOf(name)} }
	put("failed_share", float64(len(ph.failures))/float64(ph.attempted))
	if name == wCodec && len(ph.reps) > 0 {
		put("encode_MBps", quantile(ph.perRep(func(r repOut, _ time.Duration) float64 {
			return float64(r.plainBytes) / 1e6 / r.encode.Seconds()
		}), 0.5))
		put("decode_MBps", quantile(ph.perRep(func(r repOut, _ time.Duration) float64 {
			return float64(r.plainBytes) / 1e6 / r.decode.Seconds()
		}), 0.5))
		var lat []float64
		for _, r := range ph.reps {
			for _, l := range r.writeLat {
				lat = append(lat, float64(l)/1e3)
			}
		}
		put("frame_encode_us_p50", quantile(lat, 0.5))
		put("frame_encode_us_p99", quantile(lat, 0.99))
		fmt.Fprintf(out, "  frame latency samples: %d Writes of %d bytes\n", len(lat), frameBytes)
	}
	if (name == wMesh || name == wFigs) && len(ph.reps) > 0 {
		put("cable_speedup", ph.reps[0].speedup)
	}
	printMetrics(out, "end-to-end", res.Metrics)
	printMetrics(out, "reported", res.Reported)
	return res
}

func printMetrics(out io.Writer, label string, ms map[string]metricValue) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-10s %-32s %14.6g %s\n", label, n, ms[n].Value, ms[n].Unit)
	}
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// traced alternates untraced and traced repetitions for d. The
// untraced ones are the overhead baseline and the reference digest
// (for memlink-mix4 it holds the CABLE ratio's exact bit counts). The
// traced ones record spans from the benchmark's own wrappers, obs
// counter deltas, and a CPU profile that runs only while they do.
// Alternating keeps drift within the run out of the overhead figure.
func traced(name string, inst instance, d time.Duration, opt options) result {
	out := opt.stdout
	var base, ph phase
	tr := newTracer()
	deltas := map[string]float64{}
	split := profileSplit{byLayer: map[string]float64{}}
	var cpu, wall float64
	var profErr error
	start := time.Now()
	for ph.attempted < opt.minReps || time.Since(start) < d {
		runtime.GC()
		base.runOne(inst, nil, base.digest())
		runtime.GC()
		c0 := counters()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			profErr = err
		}
		cpu0, wall0 := cpuSeconds(), time.Now()
		ph.runOne(inst, tr, base.digest())
		cpu += cpuSeconds() - cpu0
		wall += time.Since(wall0).Seconds()
		pprof.StopCPUProfile()
		for k, v := range counters() {
			deltas[k] += float64(v - c0[k])
		}
		if err := split.add(prof.Bytes()); err != nil {
			profErr = err
		}
	}
	base.report(out, "untraced baseline")
	ph.report(out, "traced")

	res := result{
		Correct:   len(base.failures) == 0 && len(ph.failures) == 0 && len(ph.reps) > 0,
		Attempted: base.attempted + ph.attempted,
		Failed:    len(base.failures) + len(ph.failures),
		Metrics:   map[string]metricValue{},
	}
	if len(ph.reps) > 0 && len(base.reps) > 0 {
		fmt.Fprintf(out, "traced cable_ratio %v, untraced %v\n", ph.reps[0].ratio, base.reps[0].ratio)
		if ph.reps[0].ratio != base.reps[0].ratio {
			res.Correct = false
		}
	}
	if profErr != nil {
		fmt.Fprintln(out, "cpu profile:", profErr)
		res.Correct = false
	}

	vals := layerMetrics(name, ph, tr, split, deltas, ratio(cpu, wall))
	if b := base.medianDur(); b > 0 {
		vals["trace.overhead_share"] = ph.medianDur()/b - 1
	}
	for _, def := range perLayer {
		v := vals[def.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[def.Name] = metricValue{v, def.Unit}
	}
	printMetrics(out, "per-layer", res.Metrics)
	fmt.Fprintf(out, "  profile: %.3f CPU s sampled; other (benchmark code, stdlib-only stacks) %.4f\n",
		split.total/1e9, split.share(layerOther))

	for _, f := range sanityChecks(name, vals) {
		fmt.Fprintln(out, "  SANITY FAIL", f)
		res.Correct = false
	}
	if err := tr.write(filepath.Join(opt.spansDir, fmt.Sprintf("spans-%s-seed%d.json", name, opt.seed))); err != nil {
		fmt.Fprintln(out, "spans:", err)
	}
	return res
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics derives every per-layer metric a traced phase supports;
// the ones it does not reach stay absent and print as 0.
func layerMetrics(name string, ph phase, tr *tracer, split profileSplit, c map[string]float64, cpuPerWall float64) map[string]float64 {
	lines := float64(ph.lines())
	v := map[string]float64{}
	for _, l := range layers {
		v[l+".cpu_share"] = split.share(l)
	}
	v["runtime.cpu_share"] = split.share(layerRuntime)
	v["runtime.gc_cpu_share"] = ratio(split.gc, split.total)
	v["host.cpu_per_wall"] = cpuPerWall

	ns := func(span string) float64 { return float64(tr.total[span].Nanoseconds()) }
	v["workload.next_ns_per_line"] = ratio(ns("workload.next"), lines)
	v["workload.line_data_ns_per_line"] = ratio(ns("workload.line_data"), lines)
	v["workload.linecache_hit_ratio"] = ratio(c["workload.linecache_hits"], c["workload.linecache_hits"]+c["workload.linecache_misses"])
	v["workload.materialized_per_line"] = ratio(c["workload.linecache_misses"], lines)
	v["sim.access_self_ns_per_line"] = ratio(ns("sim.access")-tr.childTotal("sim.access", "workload.line_data"), lines)
	// Profile weights are CPU nanoseconds.
	v["sim.meter_ns_per_line"] = ratio(split.meter, lines)

	fills := c["core.fills"]
	v["core.candidates_per_fill"] = ratio(c["core.candidates_read"], fills)
	v["core.sigs_per_fill"] = ratio(c["core.sigs_searched"], fills)
	v["core.ht_hit_ratio"] = ratio(c["core.ht_hits"], c["core.ht_probes"])
	v["core.wmt_hit_ratio"] = ratio(c["core.wmt_hits"], c["core.wmt_hits"]+c["core.wmt_misses"])
	v["core.diff_share"] = ratio(c["core.outcome_diff"], fills)
	v["core.raw_share"] = ratio(c["core.outcome_raw"], fills)
	v["core.standalone_share"] = ratio(c["core.outcome_standalone"], fills)
	v["core.threshold_skip_share"] = ratio(c["core.threshold_skips"], fills)
	v["core.payload_bits_per_line"] = ratio(c["core.payload_bits"], fills)
	v["core.wb_diff_share"] = ratio(c["remote.wb_diff"], c["remote.writebacks"])

	v["compress.ops_per_line"] = ratio(c["compress.ops"], lines)
	v["compress.out_bits_per_op"] = ratio(c["compress.out_bits"], c["compress.ops"])
	v["link.wire_bits_per_line"] = ratio(c["link.wire_bits"], lines)
	v["link.toggles_per_line"] = ratio(c["link.toggles"], lines)
	v["fault.corrupted_share"] = ratio(c["fault.corrupted"], c["fault.images"])

	transfers := c["topo.link_transfers"]
	v["topo.raw_fallback_share"] = ratio(c["topo.raw_fallbacks"], transfers)
	v["topo.decode_error_share"] = ratio(c["topo.decode_errors"], transfers)
	v["topo.remote_hit_ratio"] = ratio(c["topo.remote_hits"], transfers)
	v["topo.run_ms"] = ratio(ns("topo.run"), float64(tr.count["topo.run"])) / 1e6

	var frames, raw, wire float64
	for _, r := range ph.reps {
		frames += float64(r.cableFrames + r.rawFrames)
		raw += float64(r.rawFrames)
		wire += float64(r.wireBytes)
	}
	v["codec.write_ns_per_line"] = ratio(ns("codec.write"), lines)
	v["codec.sink_ns_per_frame"] = ratio(ns("codec.sink"), float64(tr.count["codec.sink"]))
	v["codec.read_ns_per_line"] = ratio(ns("codec.read"), lines)
	v["codec.raw_frame_share"] = ratio(raw, frames)
	v["codec.out_bytes_per_line"] = ratio(wire, lines)

	v["experiments.cells"] = ratio(c["experiments.cells"], float64(len(ph.reps)))
	if name == wFigs {
		for _, id := range figIDs {
			v["experiments."+id+"_s"] = quantile(ph.perRep(func(r repOut, _ time.Duration) float64 {
				return r.figElapsed[id].Seconds()
			}), 0.5)
		}
	}
	return v
}

// sanityChecks verify that the layer split measures what it claims.
func sanityChecks(name string, v map[string]float64) []string {
	var bad []string
	switch name {
	case wMemlink:
		for _, l := range append(layers, layerRuntime) {
			if l != "workload" && v[l+".cpu_share"] >= v["workload.cpu_share"] {
				bad = append(bad, fmt.Sprintf("workload.cpu_share %.4f is not the largest layer share (%s %.4f)",
					v["workload.cpu_share"], l, v[l+".cpu_share"]))
			}
		}
	case wCodec:
		if v["workload.cpu_share"] >= 0.05 {
			bad = append(bad, fmt.Sprintf("workload.cpu_share %.4f >= 0.05 on %s", v["workload.cpu_share"], name))
		}
	}
	if (v["topo.cpu_share"] > 0) != (name == wMesh) {
		bad = append(bad, fmt.Sprintf("topo.cpu_share %.4f should be non-zero only on %s", v["topo.cpu_share"], wMesh))
	}
	if (v["experiments.cells"] > 0) != (name == wFigs) {
		bad = append(bad, fmt.Sprintf("experiments.cells %.0f should be non-zero only on %s", v["experiments.cells"], wFigs))
	}
	return bad
}

// writeCatalogue prints the workloads, seeds and metric map.
func writeCatalogue(w io.Writer) error {
	type wl struct {
		Name      string `json:"name"`
		Why       string `json:"why"`
		SeedReach string `json:"seed_reaches"`
	}
	cat := struct {
		DefaultSeed uint64      `json:"default_seed"`
		HeldOutSeed uint64      `json:"held_out_seed"`
		Workloads   []wl        `json:"workloads"`
		EndToEnd    []metricDef `json:"end_to_end"`
		Reported    []metricDef `json:"reported"`
		PerLayer    []metricDef `json:"per_layer"`
	}{DefaultSeed: DefaultSeed, HeldOutSeed: HeldOutSeed, EndToEnd: endToEnd, Reported: reported, PerLayer: perLayer}
	for _, x := range workloads {
		cat.Workloads = append(cat.Workloads, wl{x.name, x.why, x.seedReach})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cat)
}

// ---- spans ----

// span is one recorded layer-boundary call. Spans of one repetition
// share Rep; Parent is the ID of the enclosing span, or -1.
type span struct {
	Name   string `json:"name"`
	Rep    int    `json:"rep"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the spans kept in memory; totals and counts stay
// exact past it.
const maxSpans = 1 << 16

// tracer records spans in memory. A nil *tracer records nothing, so
// untraced code paths call it unconditionally.
type tracer struct {
	t0       time.Time
	rep      int
	spans    []span
	total    map[string]time.Duration
	count    map[string]int
	children map[[2]string]time.Duration // (parent name, child name) -> child time
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), total: map[string]time.Duration{}, count: map[string]int{},
		children: map[[2]string]time.Duration{}}
}

// spanHandle is an open span. The zero handle means "no parent".
type spanHandle struct {
	name   string
	id     int32
	parent string
	start  time.Duration
}

func (t *tracer) begin(name string, parent spanHandle) spanHandle {
	if t == nil {
		return spanHandle{}
	}
	h := spanHandle{name: name, id: -1, parent: parent.name, start: time.Since(t.t0)}
	if len(t.spans) < maxSpans {
		h.id = int32(len(t.spans))
		pid := int32(-1)
		if parent.name != "" {
			pid = parent.id
		}
		t.spans = append(t.spans, span{Name: name, Rep: t.rep, ID: h.id, Parent: pid, Start: int64(h.start)})
	}
	return h
}

func (t *tracer) end(h spanHandle) {
	if t == nil {
		return
	}
	e := time.Since(t.t0)
	d := e - h.start
	t.total[h.name] += d
	t.count[h.name]++
	if h.parent != "" {
		t.children[[2]string{h.parent, h.name}] += d
	}
	if h.id >= 0 {
		t.spans[h.id].End = int64(e)
	}
}

// childTotal is the time child spans named child spent inside spans
// named parent.
func (t *tracer) childTotal(parent, child string) float64 {
	return float64(t.children[[2]string{parent, child}].Nanoseconds())
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Totals map[string]time.Duration `json:"totals_ns"`
		Counts map[string]int           `json:"counts"`
		Spans  []span                   `json:"spans"`
	}{t.total, t.count, t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
