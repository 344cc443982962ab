package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"time"

	"cable"
	"cable/internal/obs"
	"cable/internal/sim"
	"cable/internal/stats"
	"cable/internal/workload/spec"
)

// params are the inputs every workload is built from. The seed is the
// only source of randomness; scale multiplies repetition sizes so the
// benchmark's own tests can run every workload in milliseconds.
type params struct {
	seed    uint64
	scale   float64
	workers int
}

func (p params) size(n int) int {
	if s := int(float64(n) * p.scale); s > 0 {
		return s
	}
	return 1
}

// repOut is what one repetition reports. digest canonically encodes
// the repetition's deterministic simulated outputs.
type repOut struct {
	lines   uint64
	ratio   float64
	speedup float64 // 0 where the workload has no timing model
	digest  string

	// codec-roundtrip only.
	plainBytes     uint64
	encode, decode time.Duration
	writeLat       []time.Duration
	cableFrames    uint64
	rawFrames      uint64
	wireBytes      uint64

	// paper-figs only: each experiment's wall clock.
	figElapsed map[string]time.Duration
}

// instance is a workload whose inputs are built. warm runs a reduced
// repetition during set-up; rep runs one timed repetition, recording
// spans into tr when it is non-nil.
type instance interface {
	warm() error
	rep(tr *tracer) (repOut, error)
}

type workloadDef struct {
	name      string
	why       string
	seedReach string
	setup     func(params) (instance, error)
}

var workloads = []workloadDef{
	{wMemlink,
		"CABLE protocol path of RunMemoryLink over a four-client spec mix; workload RNG dominates its CPU, sjeng keeps the raw path busy",
		"spec seed", setupMemlink},
	{wMesh,
		"only workload with the topo DES, the parallel per-link encode pass and fault recovery (16-chip mesh, bit-flip rate 1e-3)",
		"topo Seed and Fault.Seed", setupMesh},
	{wCodec,
		"real bytes through both stream-codec link ends; no workload RNG in the timed region, so RNG fixes must leave it flat",
		"spec seed of the corpus", setupCodec},
	{wFigs,
		"figure path users run: experiments runner, sim multichip and timing drivers, baseline meters (fig13 + fig14a, quick, memo off)",
		"none: the paper's fixed cells", setupFigs},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// mixSpec is the four-client workload spec behind memlink-mix4 and the
// codec corpus: zero-dominant (mcf), pointer (gcc), FP-prototype
// (dealII) and random (sjeng) content, all with poisson arrivals.
func mixSpec(seed uint64) (*cable.WorkloadSpec, error) {
	type client struct {
		ID      string            `json:"id"`
		Arrival map[string]string `json:"arrival"`
		Content map[string]string `json:"content"`
	}
	doc := struct {
		Version int      `json:"version"`
		Name    string   `json:"name"`
		Seed    uint64   `json:"seed"`
		Clients []client `json:"clients"`
	}{Version: 1, Name: "perfbench-mix4", Seed: seed}
	for _, b := range []string{"mcf", "gcc", "dealII", "sjeng"} {
		doc.Clients = append(doc.Clients, client{
			ID:      b,
			Arrival: map[string]string{"process": "poisson"},
			Content: map[string]string{"base": b},
		})
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	return cable.ParseWorkloadSpec(data)
}

// counters reads every counter total of the default obs registry,
// where the simulators and the codec report.
func counters() map[string]uint64 { return obs.Default().Snapshot(false).Counters }

// since returns a reader of counter deltas from c0 to now.
func since(c0 map[string]uint64) func(string) uint64 {
	c1 := counters()
	return func(name string) uint64 { return c1[name] - c0[name] }
}

func digestOf(format string, args ...any) string {
	s := fmt.Sprintf(format, args...)
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x %s", h.Sum64(), s)
}

// ---- memlink-mix4 ----

const memlinkAccesses = 15000 // per client

type memlink struct {
	spec     *cable.WorkloadSpec
	accesses int
}

func setupMemlink(p params) (instance, error) {
	w, err := mixSpec(p.seed)
	if err != nil {
		return nil, err
	}
	return &memlink{spec: w, accesses: p.size(memlinkAccesses)}, nil
}

func (m *memlink) config(accesses int) cable.MemoryLinkConfig {
	cfg := cable.DefaultMemoryLinkConfig()
	cfg.Workload = m.spec
	cfg.AccessesPerProgram = accesses
	cfg.WithMeters = false
	cfg.Chip.Verify = true
	return cfg
}

func (m *memlink) warm() error {
	_, err := cable.RunMemoryLink(m.config(max(1, m.accesses/8)))
	return err
}

func (m *memlink) rep(tr *tracer) (repOut, error) {
	c0 := counters()
	var (
		ratio                 stats.Ratio
		wbs, upgrades, fillsC uint64
	)
	if tr == nil {
		res, err := cable.RunMemoryLink(m.config(m.accesses))
		if err != nil {
			return repOut{}, err
		}
		ratio = res.Total["cable"]
		wbs, upgrades, fillsC = res.Chip.WBs, res.Chip.Upgrades, res.Chip.Fills
	} else {
		chip, err := m.tracedLoop(tr)
		if err != nil {
			return repOut{}, err
		}
		ratio = chip.CableTotal()
		wbs, upgrades, fillsC = chip.WBs, chip.Upgrades, chip.Fills
	}
	d := since(c0)
	return repOut{
		lines: d("core.fills"),
		ratio: ratio.Value(),
		digest: digestOf("source_bits=%d wire_bits=%d fills=%d wbs=%d upgrades=%d raw=%d standalone=%d diff=%d",
			ratio.SourceBits, ratio.WireBits, fillsC, wbs, upgrades,
			d("core.outcome_raw"), d("core.outcome_standalone"), d("core.outcome_diff")),
	}, nil
}

// tracedLoop is RunMemoryLink's driver loop rebuilt from its public
// pieces (the same mix, chip configuration and access order) so that
// spans can bracket the workload and sim layers.
func (m *memlink) tracedLoop(tr *tracer) (*sim.Chip, error) {
	cfg := m.config(m.accesses)
	total := cfg.AccessesPerProgram * len(m.spec.Clients)
	mix, err := spec.NewMix(m.spec, spec.MixOptions{Budget: uint64(total)})
	if err != nil {
		return nil, err
	}
	chipCfg := cfg.Chip
	if cfg.ScaleCachesByPrograms {
		chipCfg.LLCBytes *= len(m.spec.Clients)
		chipCfg.L4Bytes *= len(m.spec.Clients)
	}
	var access spanHandle // the open Chip.Access span, parent of fills
	fill := func(addr uint64) []byte {
		h := tr.begin("workload.line_data", access)
		d := mix.LineData(addr)
		tr.end(h)
		return d
	}
	chip, err := sim.NewChip(chipCfg, fill)
	if err != nil {
		return nil, err
	}
	for step := 0; step < total; step++ {
		h := tr.begin("workload.next", spanHandle{})
		e, err := mix.Next()
		tr.end(h)
		if err != nil {
			return nil, fmt.Errorf("access %d: %w", step, err)
		}
		access = tr.begin("sim.access", spanHandle{})
		chip.Access(e.Access, e.Client)
		tr.end(access)
		access = spanHandle{}
	}
	return chip, nil
}

// ---- mesh16-fault ----

const meshTransfers = 200000

type mesh struct{ cfg cable.TopologyConfig }

func setupMesh(p params) (instance, error) {
	cfg := cable.DefaultTopologyConfig("dealII")
	cfg.Transfers = p.size(meshTransfers)
	cfg.Seed = p.seed
	cfg.Fault = cable.FaultConfig{BitRate: 1e-3, Seed: p.seed}
	cfg.Parallelism = p.workers
	cfg.Verify = true
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &mesh{cfg: cfg}, nil
}

func (m *mesh) warm() error {
	cfg := m.cfg
	cfg.Transfers = max(1, cfg.Transfers/8)
	_, err := cable.RunTopology(cfg)
	return err
}

func (m *mesh) rep(tr *tracer) (repOut, error) {
	h := tr.begin("topo.run", spanHandle{})
	res, err := cable.RunTopology(m.cfg)
	tr.end(h)
	if err != nil {
		return repOut{}, err
	}
	return repOut{
		lines:   res.LinkTransfers,
		ratio:   res.Ratio(),
		speedup: res.Speedup(),
		digest: digestOf("source_bits=%d wire_bits=%d raw_makespan=%d cable_makespan=%d transfers=%d remote_hits=%d faults=%d decode_errors=%d raw_fallbacks=%d toggles=%d",
			res.Total.SourceBits, res.Total.WireBits, res.RawMakespan, res.CableMakespan, res.LinkTransfers,
			res.RemoteHits, res.FaultsInjected, res.DecodeErrors, res.RawFallbacks, res.Toggles),
	}, nil
}

// ---- codec-roundtrip ----

const (
	codecLines = 100000
	lineSize   = 64
	// frameBytes is one default encoder frame: Batch (32) lines of
	// LineSize bytes. Each Write hands the encoder exactly one frame.
	frameBytes = 32 * lineSize
)

var errMismatch = errors.New("codec output differs from its input")

type codecRT struct {
	corpus []byte
	wire   bytes.Buffer
	out    []byte
}

// setupCodec builds the corpus: the line contents the memlink-mix4
// spec emits for the seed, in emission order.
func setupCodec(p params) (instance, error) {
	w, err := mixSpec(p.seed)
	if err != nil {
		return nil, err
	}
	n := p.size(codecLines)
	mix, err := spec.NewMix(w, spec.MixOptions{Budget: uint64(n)})
	if err != nil {
		return nil, err
	}
	corpus := make([]byte, 0, n*lineSize)
	for i := 0; i < n; i++ {
		e, err := mix.Next()
		if err != nil {
			return nil, err
		}
		corpus = append(corpus, mix.LineData(e.Access.LineAddr)...)
	}
	// out has a frame of headroom so a decoder that yields too many
	// bytes shows as a length mismatch.
	return &codecRT{corpus: corpus, out: make([]byte, len(corpus)+frameBytes)}, nil
}

func (c *codecRT) warm() error {
	_, err := c.roundTrip(c.corpus[:len(c.corpus)/8/lineSize*lineSize], nil)
	return err
}

func (c *codecRT) rep(tr *tracer) (repOut, error) { return c.roundTrip(c.corpus, tr) }

func (c *codecRT) roundTrip(in []byte, tr *tracer) (repOut, error) {
	c.wire.Reset()
	var sink io.Writer = &c.wire
	if tr != nil {
		sink = &timedWriter{w: sink, tr: tr}
	}
	out := repOut{
		lines:      uint64(len(in) / lineSize),
		plainBytes: uint64(len(in)),
		writeLat:   make([]time.Duration, 0, len(in)/frameBytes+1),
	}
	t0 := time.Now()
	enc, err := cable.NewStreamEncoder(sink, cable.StreamOptions{})
	if err != nil {
		return out, err
	}
	for off := 0; off < len(in); off += frameBytes {
		chunk := in[off:min(off+frameBytes, len(in))]
		h := tr.begin("codec.write", spanHandle{})
		ws := time.Now()
		_, err := enc.Write(chunk)
		out.writeLat = append(out.writeLat, time.Since(ws))
		tr.end(h)
		if err != nil {
			return out, err
		}
	}
	h := tr.begin("codec.write", spanHandle{})
	err = enc.Close()
	tr.end(h)
	if err != nil {
		return out, err
	}
	out.encode = time.Since(t0)
	st := enc.Stats

	t0 = time.Now()
	var src io.Reader = bytes.NewReader(c.wire.Bytes())
	if tr != nil {
		src = &timedReader{r: src, tr: tr}
	}
	dec := cable.NewStreamDecoder(src)
	got := c.out[:0]
	for len(got) <= len(in) {
		h := tr.begin("codec.read", spanHandle{})
		n, err := dec.Read(got[len(got):min(len(got)+frameBytes, cap(got))])
		tr.end(h)
		got = got[:len(got)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return out, err
		}
	}
	out.decode = time.Since(t0)
	if !bytes.Equal(got, in) {
		return out, fmt.Errorf("%w: %d bytes out for %d in", errMismatch, len(got), len(in))
	}
	out.ratio = st.Ratio()
	out.cableFrames, out.rawFrames, out.wireBytes = st.CableFrames, st.RawFrames, st.OutBytes
	sum := fnv.New64a()
	sum.Write(c.wire.Bytes())
	out.digest = digestOf("wire_fnv=%016x in=%d out=%d cable_frames=%d raw_frames=%d",
		sum.Sum64(), st.InBytes, st.OutBytes, st.CableFrames, st.RawFrames)
	return out, nil
}

// timedWriter and timedReader record a span around every call the
// codec makes into its wire.
type timedWriter struct {
	w  io.Writer
	tr *tracer
}

func (t *timedWriter) Write(p []byte) (int, error) {
	h := t.tr.begin("codec.sink", spanHandle{})
	n, err := t.w.Write(p)
	t.tr.end(h)
	return n, err
}

type timedReader struct {
	r  io.Reader
	tr *tracer
}

func (t *timedReader) Read(p []byte) (int, error) {
	h := t.tr.begin("codec.source", spanHandle{})
	n, err := t.r.Read(p)
	t.tr.end(h)
	return n, err
}

// ---- paper-figs ----

var figIDs = []string{"fig13", "fig14a"}

type figs struct{ opt cable.ExperimentOptions }

func setupFigs(p params) (instance, error) {
	return &figs{opt: cable.ExperimentOptions{Quick: true, DisableCellMemo: true, Parallelism: p.workers}}, nil
}

// warm runs fig13 alone: the full pair is the repetition itself.
func (f *figs) warm() error {
	_, err := cable.RunExperiments(figIDs[:1], f.opt)
	return err
}

func (f *figs) rep(tr *tracer) (repOut, error) {
	c0 := counters()
	out := repOut{figElapsed: map[string]time.Duration{}}
	results := make([]*cable.ExperimentResult, len(figIDs))
	var err error
	// The stream is drained even after an error, so no runner
	// goroutine is left blocked on it.
	for sr := range cable.StreamExperiments(figIDs, f.opt) {
		if sr.Err != nil && err == nil {
			err = fmt.Errorf("%s: %w", sr.ID, sr.Err)
		}
		results[sr.Index] = sr.Result
		out.figElapsed[sr.ID] = sr.Elapsed
	}
	if err != nil {
		return out, err
	}
	out.lines = since(c0)("core.fills")
	out.ratio = results[0].Table.Get("mean", "cable")
	out.speedup = results[1].Table.Get("mean", "cable")
	tables := fnv.New64a()
	tables.Write([]byte(results[0].Table.String() + results[1].Table.String()))
	out.digest = digestOf("fig13_mean_cable=%v fig14a_mean_cable=%v tables_fnv=%016x",
		out.ratio, out.speedup, tables.Sum64())
	return out, nil
}
