package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"
)

// testScale shrinks every workload so a full traced run takes seconds.
var testScale = scale{
	bookings:   3_000,
	lcBookings: 2_000,
	loners:     50,
	history:    3_000,
	poolPages:  8,
	warmOps:    100,
	setups:     1,
	writeEvery: 5 * time.Millisecond,
}

func testEnv(t *testing.T, seed int64) *env {
	t.Setenv("TMPDIR", t.TempDir()) // heap files of non-durable systems
	return &env{seed: seed, dir: t.TempDir(), sc: testScale}
}

func TestSameSeedSameOperations(t *testing.T) {
	for _, sp := range specs {
		take := func(seed int64) []op {
			s := newOpStream(seed, 0, 2, sp.mix, 10_000, 48)
			out := make([]op, 500)
			for i := range out {
				out[i] = s.next()
			}
			return out
		}
		if a, b := take(7), take(7); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different operation sequences", sp.name)
		}
		if a, b := take(7), take(8); reflect.DeepEqual(a, b) {
			t.Errorf("%s: seeds 7 and 8 gave the same operation sequence", sp.name)
		}
	}
	e := &env{seed: 7}
	a, _ := newGen(e, 2, 0).PairQueries(3)
	b, _ := newGen(e, 2, 0).PairQueries(3)
	if a != b {
		t.Errorf("same seed rendered different arrival texts:\n%s\n%s", a, b)
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	samples := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(n-i) * time.Microsecond
		}
		return out
	}
	for _, c := range []struct {
		p       float64
		n       int
		wantErr bool
	}{
		{99, 999, true}, {99, 1000, false},
		{90, 99, true}, {90, 100, false},
		{50, 19, true}, {50, 20, false},
	} {
		v, err := percentile(samples(c.n), c.p)
		if (err != nil) != c.wantErr {
			t.Errorf("p%g of %d samples: err = %v, want error %v", c.p, c.n, err, c.wantErr)
		}
		if err == nil && v <= 0 {
			t.Errorf("p%g of %d samples = %v", c.p, c.n, v)
		}
	}
	if v, _ := percentile(samples(1000), 50); v != 500 {
		t.Errorf("p50 of 1..1000 us = %v, want 500", v)
	}
}

// metricName is the benchmark contract's rule for metric names.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkFile is the subset of BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestRunsEmitDeclaredMetrics runs every workload traced at test scale and
// checks that its outputs are correct and that it reports exactly the
// metrics BENCHMARK.json declares, with valid names and units.
func TestRunsEmitDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := readBenchmarkFile(t)
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	declared := func(ms []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			if !metricName.MatchString(m.Name) {
				t.Errorf("metric name %q does not match %s", m.Name, metricName)
			}
			if _, dup := out[m.Name]; dup {
				t.Errorf("metric %q declared twice", m.Name)
			}
			out[m.Name] = m.Unit
		}
		return out
	}
	e2e, layer := declared(bf.EndToEnd), declared(bf.PerLayer)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, sp := range specs {
		want = append(want, sp.name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}

	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			e := testEnv(t, 3)
			r, err := runWorkload(sp, runOpts{seed: 3, dur: 6 * time.Second, traced: true, sc: testScale, dir: e.dir})
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
			}
			check := func(kind string, got *metricSet, want map[string]string) {
				if len(got.names) != len(want) {
					t.Errorf("%s: reported %d metrics, BENCHMARK.json declares %d", kind, len(got.names), len(want))
				}
				for _, n := range got.names {
					if unit, ok := want[n]; !ok {
						t.Errorf("%s: metric %q is not declared", kind, n)
					} else if got.vals[n].Unit != unit {
						t.Errorf("%s: metric %q unit %q, declared %q", kind, n, got.vals[n].Unit, unit)
					}
				}
			}
			check("end-to-end", r.e2e, e2e)
			check("per-layer", r.layer, layer)
			for _, n := range r.e2e.names {
				if r.e2e.vals[n].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", n, r.e2e.vals[n].Value)
				}
			}
			if got := r.layer.vals["coord.pending"].Value; int(got) != map[string]int{"loaded-coord": testScale.loners}[sp.name] {
				t.Errorf("coord.pending = %v", got)
			}
		})
	}
}

func TestAttributionRepeatsExactly(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every workload twice")
	}
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			e := testEnv(t, 5)
			a, err := attribute(e, sp)
			if err != nil {
				t.Fatal(err)
			}
			b, err := attribute(e, sp)
			if err != nil {
				t.Fatal(err)
			}
			if ca, cb := a.exactCounts(), b.exactCounts(); !reflect.DeepEqual(ca, cb) {
				t.Errorf("attribution counts differ between two same-seed runs:\n%v\n%v", a, b)
			}
			if n := a.counts["arrival.coord_nodes"]; n <= 0 {
				t.Errorf("arrival.coord_nodes = %v, want > 0", n)
			}
			if sp.pool && a.counts["arrival.pool_misses"] != 0 {
				t.Errorf("pairs touched the disk heaps: %v misses per arrival with Flights pinned", a.counts["arrival.pool_misses"])
			}
		})
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer(16, 4)
	root := tr.begin("op.arrival", 1, -1)
	a := tr.begin("core.submit_a", 1, root)
	b := tr.begin("core.submit_b", 1, root)
	// Fix the clock: root [0,100], children [10,40] and [30,60] overlap.
	tr.ops.spans[root].start, tr.ops.spans[root].end = 0, 100_000
	tr.ops.spans[a].start, tr.ops.spans[a].end = 10_000, 40_000
	tr.ops.spans[b].start, tr.ops.spans[b].end = 30_000, 60_000
	tr.ops.next.Store(3)
	var buf bytes.Buffer
	if err := tr.dump(&buf); err != nil {
		t.Fatal(err)
	}
	spans, err := readSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, r := range selfTimes(spans) {
		got[r.Name] = r.SelfUS
	}
	want := map[string]float64{"op.arrival": 50, "core.submit_a": 30, "core.submit_b": 30}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}
