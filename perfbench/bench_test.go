package main

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/incentive"
	"repro/internal/topic"
)

func TestScheduleRepeatsPerSeed(t *testing.T) {
	a := makeSchedule(7, 200, 20*time.Second, 5)
	b := makeSchedule(7, 200, 20*time.Second, 5)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := makeSchedule(8, 200, 20*time.Second, 5); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	counts := map[reqKind]int{}
	for i, r := range a {
		counts[r.Kind]++
		if r.At < 0 || r.At >= 20*time.Second || (i > 0 && r.At < a[i-1].At) {
			t.Fatalf("request %d sent at %v: outside the span or out of order", i, r.At)
		}
		if r.Kind != kindMutate && (r.Alpha < 0 || r.Alpha >= 5) {
			t.Fatalf("request %d has α key %d", i, r.Alpha)
		}
	}
	if counts[kindSolve] != 176 || counts[kindEvaluate] != 20 || counts[kindMutate] != 4 {
		t.Fatalf("mix %v, want 176 solves, 20 evaluates, 4 mutates", counts)
	}
}

func TestMutationsRepeatPerSeedAndStayValid(t *testing.T) {
	var arcs []arc
	for u := int32(0); u < 30; u++ {
		arcs = append(arcs, arc{u, (u + 1) % 30}, arc{u, (u + 7) % 30})
	}
	a := makeMutations(3, arcs, 40)
	if b := makeMutations(3, arcs, 40); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different mutation lists")
	}
	if c := makeMutations(4, arcs, 40); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same mutation list")
	}
	present := map[arc]bool{}
	for _, e := range arcs {
		present[e] = true
	}
	adds := 0
	for i, m := range a {
		if m.Add == present[m.Arc] {
			t.Fatalf("mutation %d %+v is invalid: arc present = %v", i, m, present[m.Arc])
		}
		present[m.Arc] = m.Add
		if m.Add {
			adds++
		}
	}
	if adds == 0 || adds == len(a) {
		t.Fatalf("%d re-adds in %d mutations, want a mix", adds, len(a))
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 199)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.95); err == nil {
		t.Fatal("p95 of 199 samples (9.95 beyond it) was not refused")
	}
	xs = append(xs, 200)
	p95, err := percentile(xs, 0.95)
	if err != nil {
		t.Fatalf("p95 of 200 samples: %v", err)
	}
	if want := 190.05; math.Abs(p95-want) > 1e-9 {
		t.Fatalf("p95 = %v, want %v", p95, want)
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Fatal("p99 of 200 samples was not refused")
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestSelfTimes(t *testing.T) {
	// op [0,100] holds solve [10,90], whose phases cover [10,30], [25,50]
	// (overlapping) and [60,95] (clipped to the parent at 90); probe
	// [200,210] has no children.
	spans := []span{
		{ID: 1, Name: "bench.op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.solve", Start: 10, End: 90},
		{ID: 3, Parent: 2, Name: "core.init", Start: 10, End: 30},
		{ID: 4, Parent: 2, Name: "core.growth", Start: 25, End: 50},
		{ID: 5, Parent: 2, Name: "core.select", Start: 60, End: 95},
		{ID: 6, Name: "rrset.sample", Start: 200, End: 210},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"bench": 20,                // 100 - 80
		"core":  10 + 20 + 25 + 35, // solve 80-(40+30); init, growth, select have no children
		"rrset": 10,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestParseMetrics(t *testing.T) {
	text := `# HELP rmserved_cache_hits_total Requests served from the cache.
# TYPE rmserved_cache_hits_total counter
rmserved_cache_hits_total 42
rmserved_wal_fsync_seconds 0.012500
rmserved_rrsets_invalidated_total{dataset="a.snap",h="2"} 100
rmserved_rrsets_invalidated_total{dataset="b{x}.snap",h="4"} 23
rmserved_wal_size_bytes 1.5e3
`
	m, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"rmserved_cache_hits_total":         42,
		"rmserved_wal_fsync_seconds":        0.0125,
		"rmserved_rrsets_invalidated_total": 123,
		"rmserved_wal_size_bytes":           1500,
	}
	if !reflect.DeepEqual(m, want) {
		t.Fatalf("parsed %v, want %v", m, want)
	}
	if _, err := parseMetrics(strings.NewReader("rmserved_x{a=\"1\" 3\n")); err == nil {
		t.Fatal("unclosed labels were accepted")
	}
	if d := delta(map[string]float64{"x": 2}, map[string]float64{"x": 5}, "x"); d != 3 {
		t.Fatalf("delta = %v, want 3", d)
	}
}

func TestCheckPayment(t *testing.T) {
	p := &core.Problem{
		Ads:        []topic.Ad{{Budget: 10}},
		Incentives: []*incentive.Table{incentive.Build(incentive.Linear, 1, []float64{1, 2, 4, 8})},
	}
	seeds := []int32{0, 2} // cost 1 + 4
	cases := []struct {
		name                       string
		seeds                      []int32
		revenue, seedCost, payment float64
		over                       float64 // overshoot when the check passes
		fails                      bool
	}{
		{"within budget", seeds, 4, 5, 9, 0, false},
		{"estimated revenue past the budget", seeds, 6, 5, 11, 0.1, false},
		{"seed cost misreported", seeds, 4, 4, 8, 0, true},
		{"payment is not revenue plus cost", seeds, 4, 5, 10, 0, true},
		{"negative revenue", seeds, -1, 5, 4, 0, true},
		{"seed cost alone past the budget", []int32{0, 1, 3}, 0, 11, 11, 0, true},
	}
	for _, c := range cases {
		over, err := checkPayment(p, 0, c.seeds, c.revenue, c.seedCost, c.payment)
		if (err != nil) != c.fails {
			t.Errorf("%s: err = %v, want failure %v", c.name, err, c.fails)
		}
		if err == nil && math.Abs(over-c.over) > 1e-12 {
			t.Errorf("%s: overshoot %v, want %v", c.name, over, c.over)
		}
	}
}
