package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

func durations(n int) samples {
	s := make(samples, n)
	for i := range s {
		s[i] = time.Duration(n-i) * time.Millisecond // reversed: percentile must sort
	}
	return s
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		p    float64
		n    int
		want float64 // ms; 0 means an error is expected
	}{
		{99, 999, 0},
		{99, 1000, 990},
		{99, 2500, 2475},
		{90, 99, 0},
		{90, 100, 90},
		{50, 19, 0},
		{50, 20, 10},
		{50, 0, 0},
	} {
		got, err := durations(c.n).percentile(c.p)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%v of %d samples = %v, want an error (fewer than %d beyond)", c.p, c.n, got, minBeyond)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%v of %d samples = %v, %v; want %v", c.p, c.n, got, err, c.want)
		}
	}
}

func TestGeneratorBacklog(t *testing.T) {
	period := 2 * time.Millisecond
	steady := make([]time.Duration, 400)
	growing := make([]time.Duration, 400)
	for i := range steady {
		steady[i] = time.Duration(i%7) * period // jitter up to six periods
		growing[i] = time.Duration(i) * period / 4
	}
	if err := generatorBacklog(steady, period); err != nil {
		t.Errorf("jitter flagged as a backlog: %v", err)
	}
	if err := generatorBacklog(growing, period); err == nil {
		t.Error("steadily growing lateness not flagged as a backlog")
	}
}

// smokeParams shrinks every workload to a few seconds while keeping
// enough samples for each reported percentile.
func smokeParams() params {
	p := defaultParams(smokeSeconds)
	p.setupReps = 3
	p.segments = 3
	p.recoverReps = 2
	p.recoverTime = 0
	// Windows a sixteenth of the full size keep each range query short
	// enough for the read cycles to reach their sample counts.
	p.batched.frame /= 16
	p.batched.poolFrames = 256
	p.batched.period = 25 * time.Millisecond
	p.mixed.poolFrames = 256
	p.mixed.warm = 6 * time.Second
	p.mixed.readRange = time.Second
	p.mixed.serve = 1.0 / 2
	p.tinyPool = 1 << 14
	p.tinyServe = 1.0 / 2
	p.replayEntries = 1 << 14
	return p
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that each prints every metric BENCHMARK.json names, in its unit:
// the end-to-end metrics untraced, the per-layer metrics traced.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			res, err := run(w.Name, 7, smokeParams(), traced, t.TempDir(), &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w.Name, traced, err, out.String())
			}
			if !res.Correct || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: result %+v", w.Name, traced, res)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			if !strings.HasPrefix(lines[0], `{"meta":`) {
				t.Errorf("%s: first line %q is not the metadata", w.Name, lines[0])
			}
			want := bench.EndToEnd
			if traced {
				want = bench.PerLayer
			}
			for _, m := range want {
				if v, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("%s traced=%v: metric %s not printed", w.Name, traced, m.Name)
				} else if v.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s printed in %s, BENCHMARK.json says %s", w.Name, traced, m.Name, v.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
		}
	}
}
