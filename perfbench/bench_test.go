package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// testRun runs one workload at a small size and decodes the result
// line, which must be the last line of the output.
func testRun(t *testing.T, name string, trace bool, scale, seconds float64) result {
	t.Helper()
	var out bytes.Buffer
	opt := options{
		workload: name, seed: DefaultSeed, seconds: seconds, trace: trace, scale: scale,
		spansDir: t.TempDir(), stdout: &out, startTime: time.Now(), setupRounds: 1, minReps: 1,
	}
	res, err := run(name, opt)
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("%s: last line is not the result: %v", name, err)
	}
	if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d\n%s", name, last.Correct, last.Attempted, last.Failed, out.String())
	}
	last.Reported = res.Reported
	return last
}

func TestEveryWorkloadPrintsItsEndToEndMetrics(t *testing.T) {
	for _, w := range allWorkloads {
		t.Run(w, func(t *testing.T) {
			res := testRun(t, w, false, 0.02, 0.01)
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics on the result line, want the %d gated ones", len(res.Metrics), len(endToEnd))
			}
			for _, def := range endToEnd {
				m, ok := res.Metrics[def.Name]
				if !ok || m.Unit != def.Unit || m.Value == 0 {
					t.Errorf("%s = %+v, want a non-zero value in %s", def.Name, m, def.Unit)
				}
			}
			for _, def := range reported {
				m, ok := res.Reported[def.Name]
				applies := false
				for _, on := range def.On {
					applies = applies || on == w
				}
				switch {
				case applies && (!ok || m.Unit != def.Unit):
					t.Errorf("reported %s missing or without unit: %+v", def.Name, m)
				case !applies && ok:
					t.Errorf("reported %s printed on a workload it does not apply to", def.Name)
				}
			}
			if fs := res.Reported["failed_share"]; fs.Value != 0 {
				t.Errorf("failed_share = %v", fs.Value)
			}
		})
	}
}

// TestTracedRunPassesSanityChecks runs each traced workload long
// enough for the CPU profile to see every layer it exercises; run
// fails the result when a layer-split sanity check fails.
func TestTracedRunPassesSanityChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("traced runs take about a minute")
	}
	sizes := map[string]float64{wMemlink: 0.2, wMesh: 0.1, wCodec: 0.2, wFigs: 1}
	for _, w := range allWorkloads {
		t.Run(w, func(t *testing.T) {
			res := testRun(t, w, true, sizes[w], 1)
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			for _, def := range perLayer {
				if m, ok := res.Metrics[def.Name]; !ok || m.Unit != def.Unit {
					t.Errorf("%s missing or without unit: %+v", def.Name, m)
				}
			}
		})
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	for _, set := range [][]metricDef{endToEnd, reported, perLayer} {
		for _, m := range set {
			check(m.Name)
			if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
				t.Errorf("%s: bad unit %q or direction %q", m.Name, m.Unit, m.Better)
			}
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the
// metric catalogue in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalogue", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, catalogue %q %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the catalogue", kind, len(got), len(want))
			return
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s %d: BENCHMARK.json %s/%s/%s/%v, catalogue %s/%s/%s/%v",
					kind, i, g.Name, g.Unit, g.Better, g.Bound, w.Name, w.Unit, w.Better, w.Bound)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

func TestAttribute(t *testing.T) {
	cases := []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"math/rand.seedrand", "math/rand.(*rngSource).Seed", "math/rand.(*Rand).Seed",
			"cable/internal/workload.(*Generator).materializeInto", "cable/internal/workload.(*Generator).LineData",
			"cable/internal/sim.(*Chip).Access"}, "workload"},
		{[]string{"container/heap.down", "container/heap.Pop", "cable/internal/topo.(*engine).simulate",
			"cable/internal/topo.Run"}, "topo"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2",
			"runtime.systemstack", "runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"runtime.mallocgc", "runtime.makeslice", "cable/internal/obs.(*Counter).Add",
			"cable/internal/core.(*HomeEnd).EncodeFill"}, "core"},
		{[]string{"cable/internal/workload/spec.(*Mix).Next", "main.(*memlink).tracedLoop"}, "workload"},
		{[]string{"bytes.Equal", "main.(*codecRT).roundTrip"}, "other"},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
	if !isGC(cases[2].stack) || isGC(cases[0].stack) {
		t.Error("isGC misclassifies the GC worker stack or the RNG stack")
	}
}

//go:noinline
func burn(n int) uint64 {
	x := uint64(1)
	for i := 0; i < n; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}

var sink uint64

// TestDecodeProfile checks the protobuf reader against a real CPU
// profile from this process.
func TestDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		sink += burn(1 << 20)
	}
	pprof.StopCPUProfile()
	stacks, weights, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var inBurn, total float64
	for i, st := range stacks {
		total += weights[i]
		if len(st) > 0 && strings.HasSuffix(st[0], ".burn") {
			inBurn += weights[i]
		}
	}
	if total == 0 || inBurn/total < 0.5 {
		t.Fatalf("burn holds %.0f of %.0f profiled ns across %d samples", inBurn, total, len(stacks))
	}
}
