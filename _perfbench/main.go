// Command perfbench is the repository's benchmark: one process that builds a
// workload from a seed, measures it for a fixed window, checks every answer
// against an independent oracle, and prints its metrics as one JSON line.
// It runs from the checkout root, where it reads BENCHMARK.json:
//
//	bash _perfbench/run.sh --workload mine-resident --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of BENCHMARK.json; with
// --trace 1 it runs the same workload untraced and then traced, and prints
// the per-layer metrics plus the tracing overhead between the two. See
// README.md for why each workload exists and what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's single output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and accumulates its outcome.
type run struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scratch  string // per-run temp dir under the work dir, removed at exit
	workDir  string // persists across runs: counter records, span files

	attempted int64
	failed    int64
	mu        sync.Mutex
	problems  []string // wrong answers and invalid measurements; guarded by mu
	metrics   map[string]metric
	tr        *tracer
}

// fail records a wrong answer or an invalid measurement; any one makes the
// run incorrect.
func (r *run) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) < 20 {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", msg)
	}
	r.problems = append(r.problems, msg)
}

func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

var workloads = map[string]func(*run) error{
	"mine-resident": func(r *run) error { return runMine(r, false) },
	"mine-tiered":   func(r *run) error { return runMine(r, true) },
	"serve-mixed":   runServe,
}

func main() {
	workload := flag.String("workload", "", "mine-resident, mine-tiered or serve-mixed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "measuring window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints per-layer metrics")
	workDir := flag.String("workdir", ".bench_build/work", "directory for scratch files, counter records and span files")
	flag.Parse()

	wl, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	scratch, err := os.MkdirTemp(*workDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		scratch:  scratch,
		workDir:  *workDir,
		metrics:  make(map[string]metric),
		tr:       &tracer{},
	}
	host := hostFingerprint(r.seed)
	fmt.Printf("host %s\n", host)

	err = wl(r)
	if rmErr := os.RemoveAll(scratch); rmErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: removing scratch:", rmErr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if r.trace {
		path := filepath.Join(r.workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", r.workload, r.seed))
		if err := r.tr.writeFile(path, host); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
	if r.attempted < 1 {
		r.fail("no operation attempted")
		r.attempted = 1
	}
	if err := checkDeclared(r.metrics, r.trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printMetrics(r.metrics)
	out, err := json.Marshal(report{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// printMetrics lists every metric by name with its unit, one per line,
// ahead of the machine-read JSON line.
func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-32s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// hostFingerprint identifies the machine a result came from, so numbers
// from different hosts are never compared silently.
func hostFingerprint(seed int64) string {
	fp := map[string]any{
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        strings.TrimSpace(cpuModel()),
		"seed":       seed,
	}
	b, err := json.Marshal(fp)
	if err != nil {
		return fmt.Sprint(fp)
	}
	return string(b)
}

// checkDeclared makes the printed metric set match BENCHMARK.json exactly:
// the end-to-end metrics untraced, the per-layer metrics traced.
func checkDeclared(got map[string]metric, traced bool) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("reading the metric declarations: %w", err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	if len(want) != len(got) {
		return fmt.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(got), len(want))
	}
	for _, d := range want {
		m, ok := got[d.Name]
		if !ok {
			return fmt.Errorf("metric %s is declared but not measured", d.Name)
		}
		if m.Unit != d.Unit {
			return fmt.Errorf("metric %s: unit %s, declared %s", d.Name, m.Unit, d.Unit)
		}
	}
	return nil
}
