// Command perfbench is the repository's benchmark. It runs one named
// workload over a fixed, seeded operation sequence against the public
// functions of internal/server, internal/memo, ringlang, internal/exec,
// internal/core, internal/ring and internal/lang, checks every output, and
// prints one JSON result line:
//
//	perfbench --workload serve-zipf --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the same inputs
// untraced, then traced, then replays them one layer down at a time, and
// reports the per-layer metrics. Run it from the repository root through
// perfbench/run.sh, which builds it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
)

// endToEndMetrics are the metrics of an untraced run, with their units.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_wps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// layerMetrics are the metrics of a traced run, with their units. A layer a
// workload does not exercise reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"server.self_us_p50", "us"},
	{"server.non2xx", "count"},
	{"memo.hit_ratio", "ratio"},
	{"memo.evictions", "count"},
	{"memo.lookup_ns_p50", "ns"},
	{"memo.retained_kb_per_entry", "KiB"},
	{"memo.prefix_partial_ratio", "ratio"},
	{"memo.prefix_evictions", "count"},
	{"ringlang.new_client_ms", "ms"},
	{"ringlang.recognize_us_p50", "us"},
	{"ringlang.alloc_kb_per_call", "KiB"},
	{"exec.pool_overhead_pct", "%"},
	{"core.build_nodes_us", "us"},
	{"core.run_us_p50", "us"},
	{"ring.ns_per_delivery", "ns"},
	{"ring.stats_clone_us", "us"},
	{"ring.alloc_bytes_per_run", "B"},
	{"ring.deliveries", "count"},
	{"ring.bits", "count"},
	{"lang.oracle_us", "us"},
	{"go.alloc_kb_per_word", "KiB"},
	{"go.gc_cycles", "count"},
	{"trace.overhead_pct", "%"},
}

// replayShare is the share of a traced run's timed operations that the
// layer replays cover: the first 1/replayShare of them, so a traced run
// stays within a few times the length of an untraced one.
const replayShare = 4

// replayCount is how many of n timed operations the layer replays cover.
func replayCount(n int) int { return max(1, n/replayShare) }

// result is everything one run measured and checked.
type result struct {
	chk                       *checker
	attempted, failed         int
	setupNs                   []float64
	timed                     phase
	runtime                   runtimeCounters // over the untraced timed phase
	coldAttempted, coldFailed int
	non2xx                    int
	// Traced runs only.
	tracedPhase *phase
	tracer      *tracer
	layer       map[string]float64
	detail      map[string]any
}

func newResult(chk *checker) *result {
	return &result{chk: chk, layer: make(map[string]float64), detail: make(map[string]any)}
}

// count records one checked operation.
func (r *result) count(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// coldCheck re-runs a seeded sample of k distinct words cold; each re-run
// is one more checked operation.
func (r *result) coldCheck(seed int64, k int) {
	a, f := r.chk.coldSample(coldSeed(seed), k)
	r.coldAttempted += a
	r.coldFailed += f
	r.attempted += a
	r.failed += f
}

// tailPercentile is the latency tail each workload reports as
// latency_tail_ms: p99 where the sample count supports a steady p99
// (serve-zipf), p90 where the run has too few operations, or a p99 that
// reads rare events and moves from run to run (batch-cold, serve-prefix).
var tailPercentile = map[string]float64{
	wlBatchCold:   90,
	wlServeZipf:   99,
	wlServePrefix: 90,
}

func (r *result) endToEnd(workload string) map[string]float64 {
	lat := r.timed.latenciesMs()
	tailMs, used := tail(lat, tailPercentile[workload])
	r.detail["latency_samples"] = len(lat)
	r.detail["latency_tail_percentile"] = used
	r.detail["setup_samples_s"] = scale(r.setupNs, 1e-9)
	return map[string]float64{
		"setup_s":         median(r.setupNs) / 1e9,
		"throughput_wps":  r.timed.throughput(),
		"latency_p50_ms":  quantile(lat, 50),
		"latency_tail_ms": tailMs,
		"peak_rss_mb":     peakRSSMB(),
	}
}

// perLayer fills the layer metrics every workload derives the same way.
func (r *result) perLayer() map[string]float64 {
	t := r.tracer
	words := float64(r.timed.words())
	r.layer["go.alloc_kb_per_word"] = float64(r.runtime.allocBytes) / 1024 / words
	r.layer["go.gc_cycles"] = float64(r.runtime.gcCycles)
	r.layer["trace.overhead_pct"] = 100 * (r.timed.throughput()/r.tracedPhase.throughput() - 1)
	r.layer["ringlang.new_client_ms"] = median(t.durations("ringlang.new_client")) / 1e6
	r.layer["ringlang.recognize_us_p50"] = median(t.durations("ringlang.recognize")) / 1e3
	r.layer["core.build_nodes_us"] = median(t.durations("core.build_nodes")) / 1e3
	r.layer["core.run_us_p50"] = median(t.durations("core.run")) / 1e3
	r.layer["ring.stats_clone_us"] = median(t.durations("ring.stats_clone")) / 1e3
	r.layer["lang.oracle_us"] = median(t.durations("lang.oracle")) / 1e3
	r.layer["memo.lookup_ns_p50"] = median(append(t.durations("memo.peek"), t.durations("memo.get")...))
	r.layer["server.self_us_p50"] = median(t.selfTimes("server.serve")) / 1e3
	bits, messages := r.chk.totals()
	r.layer["ring.deliveries"] = float64(messages)
	r.layer["ring.bits"] = float64(bits)
	r.detail["spans"] = len(t.spans)
	r.detail["throughput_untraced_wps"] = r.timed.throughput()
	r.detail["throughput_traced_wps"] = r.tracedPhase.throughput()
	return r.layer
}

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	workload := flag.String("workload", "", "workload: batch-cold, serve-zipf or serve-prefix")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "nominal run length; fixes the operation count")
	traceFlag := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	traceDir := flag.String("trace-dir", ".bench_build/traces", "directory a traced run writes its spans to")
	flag.Parse()
	if !slices.Contains(workloadNames, *workload) {
		fatalf("unknown workload %q (want one of %v)", *workload, workloadNames)
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fatalf("--seconds must be ≥ 1 and --trace 0 or 1")
	}
	traced := *traceFlag == 1
	loadStart := loadAvg()

	var r *result
	switch *workload {
	case wlBatchCold:
		r = runBatchCold(*seed, *seconds, traced)
	case wlServeZipf:
		r = runServeZipf(*seed, *seconds, traced)
	case wlServePrefix:
		r = runServePrefix(*seed, *seconds, traced)
	}

	var values map[string]float64
	units := endToEndMetrics
	if traced {
		values = r.perLayer()
		units = layerMetrics
		if err := writeSpans(r.tracer, *traceDir, *workload, *seed); err != nil {
			fatalf("write spans: %v", err)
		}
	} else {
		values = r.endToEnd(*workload)
	}
	out := make(map[string]any, len(units))
	for _, m := range units {
		out[m.name] = map[string]any{"value": values[m.name], "unit": m.unit}
	}
	r.detail["workload"] = *workload
	r.detail["seed"] = *seed
	r.detail["ops"] = len(r.timed.ops)
	r.detail["words"] = r.timed.words()
	r.detail["cold_reruns"] = r.coldAttempted
	r.detail["cold_rerun_mismatches"] = r.coldFailed
	r.detail["failures"] = r.chk.failures
	r.detail["provenance"] = provenance(loadStart)
	emit(map[string]any{"detail": r.detail})
	emit(map[string]any{
		"correct":   r.failed == 0 && len(r.chk.failures) == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   out,
	})
}

func emit(v any) {
	line, err := json.Marshal(v)
	if err != nil {
		fatalf("encode: %v", err)
	}
	fmt.Println(string(line))
}

func writeSpans(t *tracer, dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)))
	if err != nil {
		return err
	}
	if err := t.write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
