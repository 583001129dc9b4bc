// Command perfbench is the repository benchmark: three workloads run over
// loopback against an in-process server.New, each checked for correct
// output, printing end-to-end metrics (or, with --trace 1, per-layer
// metrics) as one JSON object on its last line of output.
//
//	perfbench --workload ingest-batched|ingest-tiny|serve-mixed
//	          --seed N --seconds S --trace 0|1 [--dir DIR]
//
// Workloads, metrics and what each per-layer metric should move are
// described in METRICS.md beside this file. The inputs are R-MAT edges
// drawn from --seed before timing starts. With --trace 1 the workload runs
// twice on the same seed, untraced and then traced, so the overhead of
// tracing is measured in the same process; the traced leg's spans are
// written to DIR as gzipped CSV.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

var workloads = map[string]func(*leg) error{
	"ingest-batched": runBatched,
	"ingest-tiny":    runTiny,
	"serve-mixed":    runMixed,
}

// errIncorrect marks a run whose output failed a correctness gate.
var errIncorrect = errors.New("correctness gate failed")

func main() {
	var (
		workload = flag.String("workload", "", "ingest-batched, ingest-tiny or serve-mixed")
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 20, "length of each workload's timed phase")
		trace    = flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
		dir      = flag.String("dir", filepath.Join(".bench_build", "perfbench"), "directory for stores and span files")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(*workload, *seed, defaultParams(*seconds), *trace == 1, *dir, os.Stdout)
	if err != nil && !errors.Is(err, errIncorrect) {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, merr := json.Marshal(res)
	if merr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", merr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run executes one workload and reports its metrics, writing the run's
// metadata and a readable report to w before returning the result line.
func run(workload string, seed uint64, p params, traced bool, dir string, w io.Writer) (*result, error) {
	fn, ok := workloads[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	work := filepath.Join(dir, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	meta := metadata(workload, seed, p, traced)
	m, _ := json.Marshal(map[string]any{"meta": meta})
	fmt.Fprintln(w, string(m))

	plain := &leg{p: p, seed: seed, work: filepath.Join(work, "plain")}
	if err := fn(plain); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	legs := []*leg{plain}
	res := &result{Metrics: map[string]metricValue{}}
	if !traced {
		for _, mt := range plain.metrics {
			if gated[mt.name] {
				res.Metrics[mt.name] = metricValue{mt.value, mt.unit}
			}
		}
		for name := range gated {
			if _, ok := res.Metrics[name]; !ok {
				return nil, fmt.Errorf("%s: end-to-end metric %s not measured", workload, name)
			}
		}
	} else {
		tr := newTracer()
		tl := &leg{p: p, seed: seed, work: filepath.Join(work, "traced"), tr: tr, lg: tr.log(0), layers: map[string]float64{}}
		if err := fn(tl); err != nil {
			return nil, fmt.Errorf("%s traced: %w", workload, err)
		}
		legs = append(legs, tl)
		replay := tl.lg.open(opPhaseReplay, 0)
		if err := replayLayers(tl.layers, tl.frames, tl.flat, tl.lg, tl.lg.id(replay)); err != nil {
			return nil, err
		}
		tl.lg.close(replay)
		stageLayers(tl.layers, tl.scrape)
		tl.layers["client.ship_block_s"] = tr.total(opAppend).Seconds()
		tl.layers["client.flush_s"] = tr.total(opFlush).Seconds()
		// The traced leg's cost over the untraced leg's: above 1 when
		// tracing slows the headline metric.
		if plain.latency {
			tl.layers["trace.overhead_ratio"] = tl.primary / plain.primary
		} else {
			tl.layers["trace.overhead_ratio"] = plain.primary / tl.primary
		}
		for _, nu := range layerNames {
			res.Metrics[nu[0]] = metricValue{tl.layers[nu[0]], nu[1]}
		}
		spans := filepath.Join(dir, "spans-"+workload+".csv.gz")
		if err := tr.write(spans, meta); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(w, "spans: %s\n", spans)
	}

	var problems []string
	for _, l := range legs {
		res.Attempted += l.attempted.Load()
		res.Failed += l.failed.Load()
		problems = append(problems, l.problems...)
	}
	res.Correct = len(problems) == 0 && res.Failed == 0
	report(w, workload, plain.metrics, res)
	if !res.Correct {
		return res, fmt.Errorf("%w: %s", errIncorrect, strings.Join(problems, "; "))
	}
	return res, nil
}

// report prints every metric one per line: the result line's metrics,
// the end-to-end tails that are measured but not gated, and the failure
// ratio the result line carries as counts.
func report(w io.Writer, workload string, measured []metric, res *result) {
	line := func(name string, v float64, unit string) {
		fmt.Fprintf(w, "%-16s %-36s %16.6g %s\n", workload, name, v, unit)
	}
	for _, mt := range measured {
		if !gated[mt.name] {
			line(mt.name, mt.value, mt.unit+" (not gated)")
		}
	}
	for _, nu := range layerNames {
		if v, ok := res.Metrics[nu[0]]; ok {
			line(nu[0], v.Value, v.Unit)
		}
	}
	for _, mt := range measured {
		if v, ok := res.Metrics[mt.name]; ok {
			line(mt.name, v.Value, v.Unit)
		}
	}
	line("ops_failed_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)),
		fmt.Sprintf("failed/attempted (%d of %d)", res.Failed, res.Attempted))
}

// gated names the end-to-end metrics the result line carries and
// BENCHMARK.json bounds; every workload measures each of them. The serve
// phases also report topk_p90_ms, summary_p90_ms, ack_p99_ms and
// lookup_p99_ms where a run gives them enough samples; those are printed
// but not gated (see METRICS.md): a range summary is too slow on the
// windowed workloads for a p90's 100 samples, and the p99s spread between
// runs beyond any bound the result can be held to. ops_failed_ratio is 0
// on every correct run, so it rides the result line as the attempted and
// failed counts.
var gated = map[string]bool{
	"setup_s":              true,
	"ingest_rate":          true,
	"recover_s":            true,
	"mem_bytes_per_entry":  true,
	"disk_bytes_per_entry": true,
	"ack_p50_ms":           true,
	"lookup_p50_ms":        true,
	"topk_p50_ms":          true,
	"summary_p50_ms":       true,
}

// metadata describes the machine and build a result came from.
func metadata(workload string, seed uint64, p params, traced bool) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+dirty"
				}
			}
		}
		if rev != "" {
			commit = rev + dirty
		}
	}
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"workload":   workload,
		"seed":       seed,
		"seconds":    p.seconds.Seconds(),
		"trace":      traced,
		"commit":     commit,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpu,
	}
}
