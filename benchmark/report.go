package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
)

// Environment is the provenance block every output carries.
type Environment struct {
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Dirty      bool    `json:"dirty"`
	DataDir    string  `json:"data_dir"`
	DataDirFS  string  `json:"data_dir_fs"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Callers    int     `json:"callers"`
	BuildS     float64 `json:"build_s"`
}

func environment(root, dataDir string, seed uint64, seconds float64) Environment {
	env := Environment{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPU: cpuModel(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		DataDir: dataDir, DataDirFS: fsType(dataDir),
		Seed: seed, Seconds: seconds, Callers: callers(),
	}
	env.Commit, env.Dirty = commit(root)
	return env
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// commit reports the revision the binary was built from (vcs.revision),
// falling back to git; a tree that is not a repository reads "unknown".
func commit(root string) (string, bool) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			return rev, dirty
		}
	}
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = root
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	rev, err := git("rev-parse", "HEAD")
	if err != nil || rev == "" {
		return "unknown", false
	}
	status, _ := git("status", "--porcelain")
	return rev, status != ""
}

// fsType names the file system a directory lives on, by its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

func printEnvironment(w io.Writer, e Environment) {
	dirty := ""
	if e.Dirty {
		dirty = " (dirty)"
	}
	fmt.Fprintf(w, "environment: %s/%s, %s, nproc %d, GOMAXPROCS %d, %s, commit %s%s\n",
		e.GOOS, e.GOARCH, e.CPU, e.NProc, e.GOMAXPROCS, e.GoVersion, e.Commit, dirty)
	fmt.Fprintf(w, "             data dir %s (%s), seed %d, %.4g s measured per run, C = %d callers in a busy phase, build %.2f s\n",
		e.DataDir, e.DataDirFS, e.Seed, e.Seconds, e.Callers, e.BuildS)
}

// endToEndReport reduces a gated live run to the end-to-end metrics. Each
// timed value is what was measured divided by how much slower than nominal
// the machine-speed reference ran beside it (reference.go): the lone
// phase's samples for the latency and the CPU cost, each set-up's own for
// the set-up time. The latency is the median over the ops that executed.
func endToEndReport(live *LiveRun) Report {
	slow := slowdown(live.Lone.Ref)
	rawLatency := median(live.Lone.executed())
	latency := rawLatency / slow
	setups := make([]float64, len(live.SetupS))
	for i, s := range live.SetupS {
		setups[i] = s / live.SetupSlowdown[i]
	}
	if live.Workload.TimerBound {
		// Timers set these two, and no machine speed stretches a timer.
		latency, setups = rawLatency, live.SetupS
	}
	r := Report{
		Workload: live.Workload.Name, Attempted: live.Attempted, Failed: live.Failed, Failures: live.Failures,
		Metrics: map[string]Reading{
			"setup_s":        {median(setups), "s"},
			"latency_p50_ms": {latency, "ms"},
			"cpu_ms_per_op":  {live.Lone.cpuPerUnit() / slow, "ms"},
		},
	}
	r.Correct = live.Failed == 0
	for name, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value <= 0 {
			r.Correct = false
			r.Failures = append(r.Failures, fmt.Sprintf("%s has no reading", name))
		}
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("fail_share %d/%d; warm-up digest %s", live.Failed, live.Attempted, live.WarmDigest),
		fmt.Sprintf("set-ups as measured %s s, machine slowdown after each %s", fmtFloats(live.SetupS), fmtFloats(live.SetupSlowdown)),
		fmt.Sprintf("lone: %d ops in %.2f s; as measured p50 %.4g ms, CPU %.4g ms/op; machine slowdown %.4g over %d reference samples",
			len(live.Lone.Samples), live.Lone.Seconds, rawLatency, live.Lone.cpuPerUnit(), slow, len(live.Lone.Ref)),
	)
	return r
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func printReport(w io.Writer, r Report) {
	mode := "end to end"
	if r.Traced {
		mode = "per layer (traced run)"
	}
	fmt.Fprintf(w, "\n%s — %s\n", r.Workload, mode)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", name, m.Value, m.Unit)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	fmt.Fprintf(w, "  correct %v, attempted %d, failed %d\n", r.Correct, r.Attempted, r.Failed)
}

// Spec is BENCHMARK.json, the contract the metric names, units,
// directions and bounds are published in.
type Spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

// MetricSpec is one metric of the contract.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(root string) (*Spec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// compareRepeats prints, per workload and end-to-end metric, how far the
// worst repeat sat from the first against the metric's bound, and reports
// whether every pairing stayed inside it.
func compareRepeats(w io.Writer, spec *Spec, reports []Report) bool {
	byWorkload := map[string][]Report{}
	var order []string
	for _, r := range reports {
		if r.Traced {
			continue
		}
		if _, seen := byWorkload[r.Workload]; !seen {
			order = append(order, r.Workload)
		}
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	ok := true
	fmt.Fprintf(w, "\nrepeats against bounds (worse-than-first, as a share of the first)\n")
	for _, name := range order {
		runs := byWorkload[name]
		for _, m := range spec.EndToEnd {
			first := runs[0].Metrics[m.Name].Value
			worst := 0.0
			for _, r := range runs[1:] {
				worst = math.Max(worst, worsening(first, r.Metrics[m.Name].Value, m.Better))
			}
			verdict := "within"
			if worst > m.Bound {
				verdict, ok = "EXCEEDS", false
			}
			fmt.Fprintf(w, "  %-14s %-16s %+7.2f%%  bound %4.1f%%  %s\n", name, m.Name, worst*100, m.Bound*100, verdict)
		}
	}
	return ok
}

// worsening is how much worse b is than a, as a share of a; negative when
// b is better.
func worsening(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}
