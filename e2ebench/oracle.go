package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	div "repro"
)

// point is one generated row. The single-engine tables store (id, x, y, w);
// the cluster table stores (id, cat, w).
type point struct {
	ID, X, Y, Cat int64
	W             float64
}

func (p point) row() []interface{}    { return []interface{}{p.ID, p.X, p.Y, p.W} }
func (p point) catRow() []interface{} { return []interface{}{p.ID, p.Cat, p.W} }

// euclid is δdis of the single-engine workloads: Euclidean distance over
// (x, y), scaled so that distances and relevances share a unit range. The
// statement's closure and the oracle both call it, so the program and the
// oracle see bit-identical distances.
func euclid(ax, ay, bx, by int64) float64 {
	dx := float64(ax - bx)
	dy := float64(ay - by)
	return math.Sqrt(dx*dx+dy*dy) / coordMax
}

// categorical is δdis of the cluster workload: 0 when the categories
// agree, 1 otherwise (a metric).
func categorical(a, b int64) float64 {
	if a == b {
		return 0
	}
	return 1
}

// mirror is the benchmark's own copy of one table, kept in step with every
// mutation the benchmark sends, plus the generation the engine should be
// at.
type mirror struct {
	rows map[int64]point
	ids  []int64 // every live id, in no particular order, for sampling
	pos  map[int64]int
	gen  uint64
}

func newMirror() *mirror {
	return &mirror{rows: make(map[int64]point), pos: make(map[int64]int)}
}

func (m *mirror) add(p point) {
	m.rows[p.ID] = p
	m.pos[p.ID] = len(m.ids)
	m.ids = append(m.ids, p.ID)
}

func (m *mirror) remove(id int64) {
	i := m.pos[id]
	last := m.ids[len(m.ids)-1]
	m.ids[i] = last
	m.pos[last] = i
	m.ids = m.ids[:len(m.ids)-1]
	delete(m.pos, id)
	delete(m.rows, id)
}

// answers evaluates a statement's predicate over the mirror: Q(D) in
// canonical (id) order.
func (m *mirror) answers(pred func(point) bool) []point {
	out := make([]point, 0, len(m.rows)/4)
	for _, p := range m.rows {
		if pred(p) {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// shape is one request shape: k, λ and the objective.
type shape struct {
	K         int
	Lambda    float64
	Objective string // "max-sum" or "max-min"
}

func (s shape) String() string { return fmt.Sprintf("k=%d,λ=%g,%s", s.K, s.Lambda, s.Objective) }

// instance is what the oracle solves: the answers, their relevance and a
// distance over answer positions.
type instance struct {
	pts []point
	dis func(a, b point) float64
}

func euclidInstance(pts []point) instance {
	return instance{pts: pts, dis: func(a, b point) float64 { return euclid(a.X, a.Y, b.X, b.Y) }}
}

func catInstance(pts []point) instance {
	return instance{pts: pts, dis: func(a, b point) float64 { return categorical(a.Cat, b.Cat) }}
}

// greedy is the flat greedy over the instance in canonical order. FMS adds
// the candidate with the largest marginal gain (k−1)(1−λ)δrel + 2λΣδdis,
// accumulated in chosen order; FMM seeds with the most relevant answer and
// adds the candidate maximising (1−λ)δrel + λ·min δdis to the chosen set.
// Ties go to the lowest position. It returns the chosen positions.
func (in instance) greedy(s shape) []int {
	n := len(in.pts)
	if s.K <= 0 || s.K > n {
		return nil
	}
	used := make([]bool, n)
	chosen := make([]int, 0, s.K)
	argmax := func(score []float64) int {
		best, bestScore := -1, math.Inf(-1)
		for i := 0; i < n; i++ {
			if !used[i] && score[i] > bestScore {
				best, bestScore = i, score[i]
			}
		}
		return best
	}
	if s.Objective == "max-sum" {
		gain := make([]float64, n)
		for i, p := range in.pts {
			gain[i] = float64(s.K-1) * (1 - s.Lambda) * p.W
		}
		for len(chosen) < s.K {
			b := argmax(gain)
			used[b] = true
			chosen = append(chosen, b)
			for i := range gain {
				if !used[i] {
					gain[i] += s.Lambda * 2 * in.dis(in.pts[b], in.pts[i])
				}
			}
		}
		return chosen
	}
	minDis := make([]float64, n)
	for i := range minDis {
		minDis[i] = math.Inf(1)
	}
	take := func(b int) {
		used[b] = true
		chosen = append(chosen, b)
		for i := range minDis {
			if !used[i] {
				if d := in.dis(in.pts[b], in.pts[i]); d < minDis[i] {
					minDis[i] = d
				}
			}
		}
	}
	seed, seedRel := -1, math.Inf(-1)
	for i, p := range in.pts {
		if p.W > seedRel {
			seed, seedRel = i, p.W
		}
	}
	take(seed)
	score := make([]float64, n)
	for len(chosen) < s.K {
		for i, p := range in.pts {
			score[i] = (1-s.Lambda)*p.W + s.Lambda*minDis[i]
		}
		take(argmax(score))
	}
	return chosen
}

// value is the paper's §3.2 objective F(U) over the given rows: FMS is
// (k−1)(1−λ)Σδrel + λΣ over ordered pairs δdis, FMM is
// (1−λ)·min δrel + λ·min δdis.
func value(s shape, u []point, dis func(a, b point) float64) float64 {
	k := len(u)
	if k == 0 {
		return 0
	}
	if s.Objective == "max-sum" {
		rel, d := 0.0, 0.0
		for i, p := range u {
			rel += p.W
			for j := i + 1; j < k; j++ {
				d += dis(p, u[j])
			}
		}
		return float64(k-1)*(1-s.Lambda)*rel + s.Lambda*2*d
	}
	minRel, minDis := math.Inf(1), 0.0
	for _, p := range u {
		minRel = math.Min(minRel, p.W)
	}
	if k >= 2 {
		minDis = math.Inf(1)
		for i := range u {
			for j := i + 1; j < k; j++ {
				minDis = math.Min(minDis, dis(u[i], u[j]))
			}
		}
	}
	return (1-s.Lambda)*minRel + s.Lambda*minDis
}

// valueTolerance is the relative tolerance of the reported value against
// F(U) recomputed over the returned rows.
const valueTolerance = 1e-6

func closeRel(got, want float64) bool {
	return math.Abs(got-want) <= valueTolerance*math.Max(1, math.Abs(want))
}

// rowNum reads a numeric attribute of a decoded row. The wire decodes a
// float without a fraction as an integer, so both kinds are accepted.
func rowNum(r div.Row, attr string) (float64, bool) {
	switch v := r.Get(attr).(type) {
	case int64:
		return float64(v), true
	case float64:
		return v, true
	}
	return 0, false
}

func rowInt(r div.Row, attr string) (int64, bool) {
	v, ok := r.Get(attr).(int64)
	return v, ok
}

// selected resolves a response's rows against the mirror: each row must
// carry an id the mirror holds, with the mirror's exact values, and ids
// must be distinct. cat selects the cluster schema (id, cat, w).
func selected(resp *div.Response, m *mirror, cat bool) ([]point, error) {
	if resp == nil || resp.Selection == nil {
		return nil, fmt.Errorf("response has no selection")
	}
	out := make([]point, 0, len(resp.Selection.Rows))
	seen := make(map[int64]bool)
	for _, r := range resp.Selection.Rows {
		id, ok := rowInt(r, "id")
		if !ok {
			return nil, fmt.Errorf("row %v has no integer id", r)
		}
		p, ok := m.rows[id]
		if !ok {
			return nil, fmt.Errorf("row id %d is not in the table", id)
		}
		if seen[id] {
			return nil, fmt.Errorf("row id %d selected twice", id)
		}
		seen[id] = true
		w, _ := rowNum(r, "w")
		same := w == p.W
		if cat {
			c, _ := rowInt(r, "cat")
			same = same && c == p.Cat
		} else {
			x, _ := rowInt(r, "x")
			y, _ := rowInt(r, "y")
			same = same && x == p.X && y == p.Y
		}
		if !same {
			return nil, fmt.Errorf("row %v differs from the table's row %+v", r, p)
		}
		out = append(out, p)
	}
	return out, nil
}

// checkExact checks a single-engine diversify answer: k distinct rows of
// Q(D), |Q(D)| as the mirror counts it, the flat greedy's picks, and the
// reported value equal to F(U).
func checkExact(resp *div.Response, m *mirror, pred func(point) bool, s shape) error {
	if resp.Degraded {
		return fmt.Errorf("answer is degraded (%s)", resp.DegradedFrom)
	}
	got, err := selected(resp, m, false)
	if err != nil {
		return err
	}
	if len(got) != s.K {
		return fmt.Errorf("%d rows selected, want k=%d", len(got), s.K)
	}
	for _, p := range got {
		if !pred(p) {
			return fmt.Errorf("row %+v does not satisfy the statement's predicate", p)
		}
	}
	answers := m.answers(pred)
	if resp.Stats.Answers != len(answers) {
		return fmt.Errorf("|Q(D)| = %d, the table gives %d", resp.Stats.Answers, len(answers))
	}
	in := euclidInstance(answers)
	want := make(map[int64]bool, s.K)
	for _, i := range in.greedy(s) {
		want[answers[i].ID] = true
	}
	for _, p := range got {
		if !want[p.ID] {
			return fmt.Errorf("%s: selection %v differs from the flat greedy %v", s, ids(got), sortedIDs(want))
		}
	}
	if f := value(s, got, in.dis); !closeRel(resp.Selection.Value, f) {
		return fmt.Errorf("%s: reported value %.12g, F(U) = %.12g", s, resp.Selection.Value, f)
	}
	return nil
}

// checkCluster checks a coordinator answer: k distinct valid rows, the
// reported value equal to F(U), and at least half the flat greedy's value
// over every shard's rows (the merged greedy's 2-approximation).
func checkCluster(resp *div.Response, m *mirror, s shape, flat float64) error {
	if resp.Degraded {
		return fmt.Errorf("answer is degraded (%s)", resp.DegradedFrom)
	}
	got, err := selected(resp, m, true)
	if err != nil {
		return err
	}
	if len(got) != s.K {
		return fmt.Errorf("%d rows selected, want k=%d", len(got), s.K)
	}
	dis := func(a, b point) float64 { return categorical(a.Cat, b.Cat) }
	f := value(s, got, dis)
	if !closeRel(resp.Selection.Value, f) {
		return fmt.Errorf("%s: reported value %.12g, F(U) = %.12g", s, resp.Selection.Value, f)
	}
	if f < 0.5*flat-valueTolerance {
		return fmt.Errorf("%s: value %.12g is below half the flat greedy's %.12g", s, f, flat)
	}
	return nil
}

// flatValue is F of the flat greedy's selection over the instance.
func flatValue(in instance, s shape) float64 {
	pick := in.greedy(s)
	u := make([]point, len(pick))
	for i, j := range pick {
		u[i] = in.pts[j]
	}
	return value(s, u, in.dis)
}

// canonical renders a response for hit/miss comparison: elapsed_ns and the
// cached marker are dropped, and the refresh report takes the form the
// result cache documents for stored responses (mode "warm" with the
// answer count), since a hit never refreshes.
func canonical(resp *div.Response) ([]byte, error) {
	c := *resp
	c.Elapsed = 0
	c.Cached = false
	if c.Refresh.Mode != "" {
		c.Refresh = div.RefreshInfo{Mode: "warm", Answers: c.Refresh.Answers}
	}
	return json.Marshal(&c)
}

// checkHit compares a cached response with the checked miss of the same
// shape and generation.
func checkHit(resp *div.Response, miss []byte) error {
	got, err := canonical(resp)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, miss) {
		return fmt.Errorf("cached response differs from the checked miss:\n  hit  %s\n  miss %s", got, miss)
	}
	return nil
}

func ids(ps []point) []int64 {
	out := make([]int64, len(ps))
	for i, p := range ps {
		out[i] = p.ID
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedIDs(set map[int64]bool) []int64 {
	out := make([]int64, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
