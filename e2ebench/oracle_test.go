package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	div "repro"
)

// Five points on the x-axis. With y = 0, δdis is |Δx|/10⁶:
//
//	     A    B    C    D    E
//	x    0   .1   .5   .9   1.0   (×10⁶)
//	w   .9   .5   .1   .2   .8
var five = []point{
	{ID: 1, X: 0, W: 0.9},
	{ID: 2, X: 100000, W: 0.5},
	{ID: 3, X: 500000, W: 0.1},
	{ID: 4, X: 900000, W: 0.2},
	{ID: 5, X: 1000000, W: 0.8},
}

func fiveMirror() *mirror {
	m := newMirror()
	for _, p := range five {
		m.add(p)
	}
	return m
}

func TestGreedyHandWorked(t *testing.T) {
	in := euclidInstance(five)
	for _, tc := range []struct {
		s    shape
		want []int // positions, in pick order
		f    float64
	}{
		// FMS k=2: gains start at (k−1)(1−λ)w = .5w, A leads (.45); adding
		// d(A,·) gives E 1.4, the largest. F = .5(.9+.8) + 1.0 = 1.85.
		{shape{2, 0.5, "max-sum"}, []int{0, 4}, 1.85},
		// FMS k=3: gains start at w, A (.9); then E (.8+1.0); then
		// B (.5+.1+.9 = 1.5) beats D (.2+.9+.1) and C (.1+.5+.5).
		// F = (.9+.8+.5) + (1.0+.1+.9) = 4.2.
		{shape{3, 0.5, "max-sum"}, []int{0, 4, 1}, 4.2},
		// FMM k=3: seed A (w .9); E scores .4+.5; then B and C tie at .3
		// and the lower position, B, wins. F = .5·.5 + .5·.1 = .3.
		{shape{3, 0.5, "max-min"}, []int{0, 4, 1}, 0.3},
		// FMM with λ = 0: pure relevance, A E B by w.
		{shape{3, 0, "max-min"}, []int{0, 4, 1}, 0.5},
	} {
		got := in.greedy(tc.s)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: picks %v, want %v", tc.s, got, tc.want)
		}
		if f := flatValue(in, tc.s); math.Abs(f-tc.f) > 1e-12 {
			t.Errorf("%s: F = %.15g, want %g", tc.s, f, tc.f)
		}
	}
}

func TestCategoricalValue(t *testing.T) {
	u := []point{{ID: 1, Cat: 1, W: 0.5}, {ID: 2, Cat: 1, W: 0.25}, {ID: 3, Cat: 2, W: 1}}
	dis := func(a, b point) float64 { return categorical(a.Cat, b.Cat) }
	// FMS: (k−1)(1−λ)Σw + λ·2·Σ pairs = 2·.5·1.75 + .5·2·2 = 3.75.
	if f := value(shape{3, 0.5, "max-sum"}, u, dis); f != 3.75 {
		t.Errorf("FMS = %g, want 3.75", f)
	}
	// FMM: (1−λ)·min w + λ·min δdis = .5·.25 + 0 = .125.
	if f := value(shape{3, 0.5, "max-min"}, u, dis); f != 0.125 {
		t.Errorf("FMM = %g, want 0.125", f)
	}
}

// response builds a decoded diversify response as the client would see it.
func response(t *testing.T, rows []point, val float64, answers int) *div.Response {
	t.Helper()
	var parts []string
	for _, p := range rows {
		parts = append(parts, fmt.Sprintf(`{"id":%d,"x":%d,"y":%d,"w":%v}`, p.ID, p.X, p.Y, p.W))
	}
	body := fmt.Sprintf(`{"problem":"diversify","route":"greedy","selection":{"rows":[%s],"value":%v,"method":"greedy"},"stats":{"answers":%d},"refresh":{"mode":"rebuild","answers":%d},"generation":7}`,
		strings.Join(parts, ","), val, answers, answers)
	var resp div.Response
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	return &resp
}

func TestCheckExact(t *testing.T) {
	m := fiveMirror()
	all := func(point) bool { return true }
	s := shape{3, 0.5, "max-sum"}
	A, B, C, D, E := five[0], five[1], five[2], five[3], five[4]
	if err := checkExact(response(t, []point{A, E, B}, 4.2, 5), m, all, s); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		resp *div.Response
		pred func(point) bool
	}{
		"swapped row":       {response(t, []point{A, E, D}, 4.2, 5), all},
		"wrong value":       {response(t, []point{A, E, B}, 4.3, 5), all},
		"short selection":   {response(t, []point{A, E}, 1.85, 5), all},
		"duplicate row":     {response(t, []point{A, E, E}, 4.2, 5), all},
		"unknown row":       {response(t, []point{A, E, {ID: 9, X: 1, W: 0.5}}, 4.2, 5), all},
		"changed values":    {response(t, []point{A, E, {ID: 2, X: 100001, W: 0.5}}, 4.2, 5), all},
		"wrong |Q(D)|":      {response(t, []point{A, E, B}, 4.2, 4), all},
		"outside predicate": {response(t, []point{A, E, B}, 4.2, 5), func(p point) bool { return p.ID != C.ID && p.ID != B.ID }},
	} {
		if err := checkExact(tc.resp, m, tc.pred, s); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckHit(t *testing.T) {
	A, B, E := five[0], five[1], five[4]
	miss, err := canonical(response(t, []point{A, E, B}, 4.2, 5))
	if err != nil {
		t.Fatal(err)
	}
	hit := response(t, []point{A, E, B}, 4.2, 5)
	hit.Cached = true
	hit.Elapsed = 1234
	if err := checkHit(hit, miss); err != nil {
		t.Errorf("equal hit rejected: %v", err)
	}
	bad := response(t, []point{A, B, E}, 4.2, 5)
	bad.Cached = true
	if err := checkHit(bad, miss); err == nil {
		t.Error("reordered hit accepted")
	}
}

func TestCheckCluster(t *testing.T) {
	m := newMirror()
	pts := []point{{ID: 1, Cat: 1, W: 0.9}, {ID: 2, Cat: 1, W: 0.8}, {ID: 3, Cat: 2, W: 0.1}}
	for _, p := range pts {
		m.add(p)
	}
	s := shape{2, 0.5, "max-sum"}
	in := catInstance(pts)
	flat := flatValue(in, s) // picks 1 then 3: .5·1.0 + 1 = 1.5
	row := func(p point) string { return fmt.Sprintf(`{"id":%d,"cat":%d,"w":%v}`, p.ID, p.Cat, p.W) }
	mk := func(a, b point, val float64) *div.Response {
		var resp div.Response
		body := fmt.Sprintf(`{"problem":"diversify","selection":{"rows":[%s,%s],"value":%v}}`, row(a), row(b), val)
		if err := json.Unmarshal([]byte(body), &resp); err != nil {
			t.Fatal(err)
		}
		return &resp
	}
	if err := checkCluster(mk(pts[0], pts[2], 1.5), m, s, flat); err != nil {
		t.Errorf("flat greedy's own answer rejected: %v", err)
	}
	// {1, 2}: .5·1.7 + 0 = .85, above half of 1.5.
	if err := checkCluster(mk(pts[0], pts[1], 0.85), m, s, flat); err != nil {
		t.Errorf("answer within the 2-approximation rejected: %v", err)
	}
	if err := checkCluster(mk(pts[0], pts[1], 1.5), m, s, flat); err == nil {
		t.Error("wrong value accepted")
	}
	if err := checkCluster(mk(pts[0], pts[1], 0.85), m, s, 2*flat); err == nil {
		t.Error("answer below half the flat greedy accepted")
	}
}

func TestQuantileMatchesPython(t *testing.T) {
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25],
	// statistics.quantiles(range(1, 11), n=10)[8] == 9.9,
	// statistics.quantiles([5, 1, 4, 2, 3, 9, 7], n=10)[8] == 9.4 (the
	// exclusive method extrapolates past the largest of few values).
	one := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		xs   []float64
		i, n int
		want float64
	}{
		{one, 1, 4, 2.75}, {one, 2, 4, 5.5}, {one, 3, 4, 8.25}, {one, 9, 10, 9.9},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, 9, 10, 9.4},
		{[]float64{3, 1, 2}, 1, 2, 2}, {[]float64{4}, 1, 4, 4}, {nil, 1, 2, 0},
	} {
		if got := quantile(c.xs, c.i, c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %d, %d) = %g, want %g", c.xs, c.i, c.n, got, c.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}}
	if got := selfTime(parent, kids); got != 100-30-10 {
		t.Errorf("self time %d, want 60", got)
	}
}

// TestBenchmarkJSONNames checks that BENCHMARK.json, at the root of the
// repository, names exactly the workloads and metrics a run prints.
func TestBenchmarkJSONNames(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("workloads %v, the benchmark runs %v", names, want)
	}
	var e2e []string
	for _, m := range doc.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if fmt.Sprint(e2e) != fmt.Sprint(e2eNames) {
		t.Errorf("end-to-end metrics %v, a run prints %v", e2e, e2eNames)
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, a traced run prints %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d is %s (%s), a traced run prints %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

// TestRoundMix checks the cluster round's request shapes: the zipf law's
// expected counts in 49 draws, rounded by largest remainder.
func TestRoundMix(t *testing.T) {
	counts := make([]int, len(shapes()))
	mix := roundMix(len(counts), 49)
	for _, i := range mix {
		counts[i]++
	}
	if want := []int{21, 8, 5, 3, 3, 2, 2, 1, 1, 1, 1, 1}; len(mix) != 49 || fmt.Sprint(counts) != fmt.Sprint(want) {
		t.Errorf("%d requests with counts %v, want 49 with %v", len(mix), counts, want)
	}
	if got := len(roundMix(12, 9)); got != 9 {
		t.Errorf("a 9-request round holds %d requests", got)
	}
}
