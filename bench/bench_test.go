package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"hyperq/internal/qlang/qval"
	"hyperq/internal/wire/qipc"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // unsorted input
	}
	if got := percentile(xs, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190 (ten samples beyond it)", got)
	}
	if got := percentile(xs, 100); got != 200 {
		t.Errorf("p100 = %v, want 200", got)
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("p95 of one sample = %v", got)
	}
	if got := percentile(nil, 95); got != 0 {
		t.Errorf("p95 of nothing = %v", got)
	}
}

func TestMedianGeomean(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := geomean([]float64{1, 10, 100}); !near(got, 10) {
		t.Errorf("geomean = %v, want 10", got)
	}
	// each query counts once however slow: one 1000x outlier moves the
	// geometric mean of four by 1000^(1/4), not by 250x like the mean
	if got := geomean([]float64{1, 1, 1, 1000}); !near(got, math.Pow(1000, 0.25)) {
		t.Errorf("geomean with outlier = %v", got)
	}
	if got := geomean([]float64{1, 0, 2}); got != 0 {
		t.Errorf("geomean with a zero = %v, want 0", got)
	}
}

// TestMedianOfRounds: one spoiled round does not move the reported rate.
func TestMedianOfRounds(t *testing.T) {
	w := &window{rates: []float64{100, 101, 12, 99, 100}}
	m := map[string]float64{}
	latencyMetrics(w, nil, m)
	if m["qps"] != 100 {
		t.Errorf("qps = %v, want the median round 100", m["qps"])
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10.5}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{5, 1, 2, 8, 9}, 1.5, 8.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v, %v; python gives %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{5, 1, 2, 8, 9}); !near(got, 7.0/5) {
		t.Errorf("spread = %v, want 1.4", got)
	}
}

func TestMachineSpeed(t *testing.T) {
	if got := machineSpeed(nil); got != 1 {
		t.Errorf("no calibration: speed %v, want 1", got)
	}
	twice := make([]float64, 20)
	for i := range twice {
		twice[i] = 2 * calibRefMs
	}
	if got := machineSpeed(twice); !near(got, 0.5) {
		t.Errorf("calibration twice the reference: speed %v, want 0.5", got)
	}
	// one stalled repeat in twenty is trimmed away
	twice[7] = 500
	if got := machineSpeed(twice); !near(got, 0.5) {
		t.Errorf("with one stall: speed %v, want 0.5", got)
	}
	w := &window{rates: []float64{100}, calibMs: twice}
	m := map[string]float64{}
	latencyMetrics(w, nil, m)
	if !near(m["qps"], 200) || !near(m["raw.qps"], 100) {
		t.Errorf("half-speed machine: qps %v (raw %v), want 200 (100)", m["qps"], m["raw.qps"])
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "client.request", Req: 1, ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "endpoint.handler", Req: 1, ID: 1, Parent: 0, Start: 10, End: 90},
		{Name: "pool.session_exec", Req: 1, ID: 2, Parent: 1, Start: 20, End: 50},
		{Name: "pool.session_exec", Req: 1, ID: 3, Parent: 1, Start: 50, End: 80},
		{Name: "gateway.exec", Req: 1, ID: 4, Parent: 2, Start: 22, End: 48},
		// another request with the same span IDs must not be mixed in
		{Name: "client.request", Req: 2, ID: 0, Parent: -1, Start: 200, End: 230},
		{Name: "endpoint.handler", Req: 2, ID: 1, Parent: 0, Start: 205, End: 225},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"client.request":    20 + 10,
		"endpoint.handler":  20 + 20,
		"pool.session_exec": 4 + 30,
		"gateway.exec":      26,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if sum != 130 {
		t.Errorf("self times sum to %v, the client spans to 130", sum)
	}
}

func TestReqTraceNesting(t *testing.T) {
	tr := newTracer(1)
	r := tr.newRequest(0)
	a := r.begin("a")
	b := r.begin("b")
	r.end(b)
	c := r.begin("c")
	r.end(c)
	r.end(a)
	if r.spans[b].Parent != a || r.spans[c].Parent != a || r.spans[a].Parent != -1 {
		t.Errorf("parents: %+v", r.spans)
	}
}

// TestOpListsFollowSeed: same seed, same bytes; another seed, other literals
// and another order.
func TestOpListsFollowSeed(t *testing.T) {
	sz := smokeSizes
	for _, sp := range specs {
		ds := sp.data(sz)
		for c := 0; c < sp.clients; c++ {
			a, b := sp.pass(7, sz, ds, c, 3), sp.pass(7, sz, ds, c, 3)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s: same seed, client and pass gave different op lists", sp.name)
			}
			if len(a) == 0 {
				t.Errorf("%s: empty pass", sp.name)
			}
			if other := sp.pass(8, sz, ds, c, 3); reflect.DeepEqual(a, other) {
				t.Errorf("%s: seeds 7 and 8 gave the same op list", sp.name)
			}
		}
		if !reflect.DeepEqual(sp.warm(7, sz, ds), sp.warm(7, sz, ds)) {
			t.Errorf("%s: warm-up list is not a function of the seed", sp.name)
		}
		// every key a pass uses was verified in the warm-up
		keys := map[string]bool{}
		for _, o := range sp.warm(7, sz, ds) {
			keys[o.key] = true
		}
		for _, o := range sp.pass(7, sz, ds, 0, 0) {
			if !keys[o.key] {
				t.Errorf("%s: op %q has key %q the warm-up never verified", sp.name, o.q, o.key)
			}
		}
	}
}

func TestPointLookupLiterals(t *testing.T) {
	sz := smokeSizes
	seen := map[string]bool{}
	hits, misses := 0, 0
	for p := 0; p < 3; p++ {
		for c := 0; c < 2; c++ {
			for _, o := range pointLookups.pass(1, sz, nil, c, p) {
				switch o.class {
				case "hit":
					hits++
				case "miss":
					misses++
					if seen[o.q] {
						t.Fatalf("miss text sent twice: %q", o.q)
					}
					seen[o.q] = true
				}
			}
		}
	}
	if hits == 0 || misses == 0 || math.Abs(float64(hits-misses)) > float64(hits)/5 {
		t.Errorf("hits %d, misses %d: want about half each", hits, misses)
	}
	other := map[string]bool{}
	for _, o := range pointLookups.pass(2, sz, nil, 0, 0) {
		other[o.q] = true
	}
	for q := range seen {
		if other[q] {
			t.Fatalf("seeds 1 and 2 share the text %q", q)
		}
	}
	if n := len(distinctKeys(pointHits(1))); n == 0 || len(pointHits(1)) != pointHitTexts {
		t.Errorf("hit texts: %d", len(pointHits(1)))
	}
}

func TestCheckFrame(t *testing.T) {
	frame := func(typ qipc.MsgType, v qval.Value) []byte {
		path := filepath.Join(t.TempDir(), "f")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := qipc.WriteMessage(f, typ, v); err != nil {
			t.Fatal(err)
		}
		f.Close()
		b, _ := os.ReadFile(path)
		return b
	}
	ok := frame(qipc.Response, qval.Long(42))
	if err := checkFrame(ok, len(ok)); err != nil {
		t.Errorf("good frame: %v", err)
	}
	if err := checkFrame(ok, len(ok)+1); err == nil {
		t.Error("wrong length accepted")
	}
	if err := checkFrame(frame(qipc.Sync, qval.Long(42)), -1); err == nil {
		t.Error("non-response accepted")
	}
	if err := checkFrame(frame(qipc.Response, &qval.QError{Msg: "type"}), -1); err == nil {
		t.Error("q error accepted")
	}
	if v, err := decodeFrame(ok); err != nil || v != qval.Value(qval.Long(42)) {
		t.Errorf("decodeFrame = %v, %v", v, err)
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the lists this package reports.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d specs", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: %q / %q does not match spec %q / %q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics, want %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end_to_end %d: %+v does not match %+v", i, m, d)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics, want %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: %+v does not match %+v", i, m, d)
		}
	}
}

// TestSmoke runs every workload at tiny sizes, spawned and traced: it breaks
// when an API the benchmark calls is renamed, when a reply diverges from the
// interpreter, or when the in-process stack and the binaries disagree.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns the servers")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	binDir, err := buildServers(root)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{root: root, binDir: binDir, scratch: t.TempDir()}
	ctx := context.Background()
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			r, err := runOne(ctx, e, sp, smokeSizes, 1, 0.3, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.name, traced, err)
			}
			if !r.correct || r.failed != 0 || r.attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%v", sp.name, traced, r.correct, r.attempted, r.failed, r.notes)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			for _, d := range defs {
				v, ok := r.metrics[d.name]
				if !traced && (!ok || v <= 0) {
					t.Errorf("%s: end-to-end metric %s = %v", sp.name, d.name, v)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: %s = %v", sp.name, d.name, v)
				}
			}
		}
	}
}
