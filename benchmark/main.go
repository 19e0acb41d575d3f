// Command benchmark is the repository's serving-path benchmark. It builds
// cmd/qmlserve, starts real server processes on loopback, drives four
// workloads through the job protocol a client speaks, checks every
// result, and prints every metric by name with its unit. A separate
// traced run times the calls into each layer's public functions
// in-process and writes the spans out. See README.md.
//
//	bash benchmark/run.sh -seed 1                 # every workload, both runs
//	bash benchmark/run.sh -workload serve_mix -seed 1 -seconds 25 -trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

func main() {
	seed := flag.Uint64("seed", 1, "seed every workload's inputs derive from")
	workload := flag.String("workload", "", "run one workload (default: all)")
	seconds := flag.Float64("seconds", 25, "measured seconds per run")
	trace := flag.Int("trace", -1, "0: end-to-end run only, 1: traced per-layer run only (default: both)")
	out := flag.String("out", "", "directory for logs, result.json and trace.json (default: .bench_out in the repository)")
	repeat := flag.Int("repeat", 1, "run the end-to-end set this many times and compare the repeats against the bounds")
	flag.Parse()
	if flag.NArg() != 0 || *seconds <= 0 || *repeat < 1 || *trace < -1 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	selected := workloads
	if *workload != "" {
		w, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		selected = []Workload{w}
	}

	// Children are stopped and temporary directories removed on a signal
	// as on every other exit path.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		stopAll()
		os.Exit(130)
	}()

	code, err := run(selected, *seed, *seconds, *trace, *out, *repeat)
	if err != nil {
		stopAll()
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

// Report is one workload's result in one mode.
type Report struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]Reading `json:"metrics"`
	// Notes are the remarks printed under the table: sample counts behind
	// tails, the file systems measured, the sizes behind the triad.
	Notes []string `json:"notes,omitempty"`
}

// Reading is one metric value with its unit.
type Reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(selected []Workload, seed uint64, seconds float64, trace int, out string, repeat int) (int, error) {
	root, err := repoRoot()
	if err != nil {
		return 0, err
	}
	if out == "" {
		out = filepath.Join(root, ".bench_out")
	}
	dataRoot := filepath.Join(out, "data")
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return 0, err
	}
	// Server logs append over the process lives of one invocation and
	// start afresh with the next.
	stale, _ := filepath.Glob(filepath.Join(out, "*.log"))
	for _, path := range stale {
		os.Remove(path)
	}
	live.Lock()
	live.dataRoot = dataRoot
	live.Unlock()
	defer os.RemoveAll(dataRoot)
	bin, buildTime, err := buildServer(root, filepath.Join(root, ".bench_build", "bin"))
	if err != nil {
		return 0, err
	}
	env := environment(root, dataRoot, seed, seconds)
	env.BuildS = buildTime.Seconds()
	printEnvironment(os.Stdout, env)

	var reports []Report
	tracks := map[string][]Span{}
	exit := 0
	for rep := 0; rep < repeat; rep++ {
		for _, w := range selected {
			if trace != 1 {
				live, err := runLive(w, seed, secondsToDuration(seconds), 0, setupRepeats, gatedFsync, bin, dataRoot, out)
				if err != nil {
					return 0, fmt.Errorf("%s: %w", w.Name, err)
				}
				r := endToEndReport(live)
				printReport(os.Stdout, r)
				reports = append(reports, r)
			}
			if trace != 0 && rep == 0 {
				r, spans, err := runTraced(w, seed, seconds, env, bin, dataRoot, out)
				if err != nil {
					return 0, fmt.Errorf("%s (traced): %w", w.Name, err)
				}
				tracks[w.Name] = spans
				printReport(os.Stdout, r)
				reports = append(reports, r)
			}
		}
	}
	for _, r := range reports {
		if !r.Correct {
			exit = 1
		}
	}
	if repeat > 1 {
		spec, err := loadSpec(root)
		if err != nil {
			return 0, err
		}
		if !compareRepeats(os.Stdout, spec, reports) {
			exit = 1
		}
	}
	if len(tracks) > 0 {
		if err := writeChromeTrace(filepath.Join(out, "trace.json"), tracks); err != nil {
			return 0, err
		}
	}
	if err := writeJSON(filepath.Join(out, "result.json"), map[string]any{"environment": env, "reports": reports}); err != nil {
		return 0, err
	}
	// The driver's contract: one workload in one mode ends with one JSON
	// object on the last line of standard output.
	if len(reports) == 1 {
		r := reports[0]
		line, err := json.Marshal(map[string]any{
			"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics,
		})
		if err != nil {
			return 0, err
		}
		fmt.Println(string(line))
	}
	return exit, nil
}

func secondsToDuration(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
