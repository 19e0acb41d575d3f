package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// listenRE matches the line qmlserve logs once its listener is bound:
//
//	time=… level=INFO msg="qmlserve listening" addr=127.0.0.1:43210 mode=worker …
var listenRE = regexp.MustCompile(`msg="qmlserve listening" addr=(\S+)`)

// startTimeout bounds how long a server may take to report its address.
const startTimeout = 30 * time.Second

// stopGrace is how long a server gets to drain after SIGTERM before it is
// killed.
const stopGrace = 5 * time.Second

// moduleRE matches the go.mod line of the repository's root module.
var moduleRE = regexp.MustCompile(`(?m)^module repro\s*$`)

// repoRoot walks up from the working directory to the directory whose
// go.mod declares module repro: the benchmark runs from the root of a
// checkout (benchmark/run.sh) or from benchmark/ (go run -C benchmark .).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		raw, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && moduleRE.Match(raw) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod declaring module repro above the working directory; run from a checkout of the repository")
		}
		dir = parent
	}
}

// buildServer compiles cmd/qmlserve into binDir and returns the binary's
// path and how long the build took. The time is reported as
// client.build_s and is not part of setup_s: it measures the toolchain and
// its cache, not the program.
func buildServer(root, binDir string) (string, time.Duration, error) {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", 0, err
	}
	bin := filepath.Join(binDir, "qmlserve")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/qmlserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("building cmd/qmlserve: %w\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// Proc is one qmlserve child process.
type Proc struct {
	Role    string
	Addr    string
	cmd     *exec.Cmd
	logPath string
	// exited is closed once stderr is drained and the process is reaped.
	exited chan struct{}
}

// startProc starts qmlserve with args, drains its stderr into logPath and
// waits for the address line. A server that exits early or never reports
// its address fails with the tail of its log.
func startProc(bin, role, logPath string, args ...string) (*Proc, error) {
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	// The children must not outlive the benchmark even if it is killed
	// outright, where no handler runs.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logFile.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("starting %s: %w", role, err)
	}
	p := &Proc{Role: role, cmd: cmd, logPath: logPath, exited: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(p.exited)
		defer logFile.Close()
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		found := false
		for sc.Scan() {
			line := sc.Bytes()
			logFile.Write(append(line, '\n'))
			if !found {
				if m := listenRE.FindSubmatch(line); m != nil {
					found = true
					addrc <- string(m[1])
				}
			}
		}
		// A line past the scanner's limit ends the scan; keep draining so
		// the child never blocks on a full pipe.
		io.Copy(logFile, stderr)
		cmd.Wait()
	}()
	select {
	case p.Addr = <-addrc:
		return p, nil
	case <-p.exited:
		return nil, fmt.Errorf("%s exited before reporting its address; log tail:\n%s", role, logTail(logPath))
	case <-time.After(startTimeout):
		p.stop()
		return nil, fmt.Errorf("%s did not report its address within %s; log tail:\n%s", role, startTimeout, logTail(logPath))
	}
}

// stop asks the process to drain (SIGTERM), kills it if it has not exited
// within stopGrace, and returns once it is reaped.
func (p *Proc) stop() {
	select {
	case <-p.exited:
		return
	default:
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(stopGrace):
		p.cmd.Process.Kill()
		<-p.exited
	}
}

// alive reports whether the process is still running.
func (p *Proc) alive() bool {
	select {
	case <-p.exited:
		return false
	default:
		return true
	}
}

// logTail returns the last lines of a log file for an error message.
func logTail(path string) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "(no log: " + err.Error() + ")"
	}
	lines := bytes.Split(bytes.TrimRight(raw, "\n"), []byte("\n"))
	if len(lines) > 15 {
		lines = lines[len(lines)-15:]
	}
	return string(bytes.Join(lines, []byte("\n")))
}

// clockTick is USER_HZ, the unit of utime and stime in /proc/<pid>/stat.
// Linux fixes it at 100 on every architecture Go supports.
const clockTick = 100

// cpuMS reads the process's cumulative user+system CPU time.
func (p *Proc) cpuMS() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(raw))
}

// parseStatCPU extracts utime+stime, in ms, from a /proc/<pid>/stat line.
// The command name (field 2) may hold spaces and parentheses, so fields
// are counted from the last ')'.
func parseStatCPU(stat string) (float64, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("malformed stat line %q", stat)
	}
	fields := strings.Fields(stat[end+1:])
	// fields[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(fields) < 13 {
		return 0, fmt.Errorf("short stat line %q", stat)
	}
	utime, err1 := strconv.ParseUint(fields[11], 10, 64)
	stime, err2 := strconv.ParseUint(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed CPU fields in stat line %q", stat)
	}
	return float64(utime+stime) * 1000 / clockTick, nil
}

// rssPeakMB reads VmHWM, the process's peak resident set.
func (p *Proc) rssPeakMB() float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// Cluster is the set of processes one workload runs against.
type Cluster struct {
	Procs []*Proc
	// Front is the base URL clients talk to: the node, or the dispatcher.
	Front    string
	dataDirs []string
}

// live tracks running clusters and the data root so that a signal handler
// can stop and remove them.
var live struct {
	sync.Mutex
	clusters map[*Cluster]bool
	dataRoot string
}

// startCluster brings up the workload's processes: one node with -workers
// nproc, or a dispatcher in front of two workers with -workers
// max(1, nproc/2) each, the other flags at their defaults. Every process
// gets a fresh data directory under dataRoot and journals under the given
// -fsync policy ("" leaves each process its default).
func startCluster(bin string, w Workload, fsync, dataRoot, logDir string) (*Cluster, error) {
	c := &Cluster{}
	live.Lock()
	if live.clusters == nil {
		live.clusters = map[*Cluster]bool{}
	}
	live.clusters[c] = true
	live.Unlock()

	nproc := runtime.NumCPU()
	start := func(role string, args ...string) (*Proc, error) {
		dir, err := os.MkdirTemp(dataRoot, w.Name+"-"+role+"-")
		if err != nil {
			return nil, err
		}
		c.dataDirs = append(c.dataDirs, dir)
		args = append([]string{"-addr", "127.0.0.1:0", "-data-dir", dir}, args...)
		if fsync != "" {
			args = append(args, "-fsync", fsync)
		}
		p, err := startProc(bin, role, filepath.Join(logDir, w.Name+"-"+role+".log"), args...)
		if err != nil {
			return nil, err
		}
		c.Procs = append(c.Procs, p)
		return p, nil
	}
	workerArgs := func(workers int) []string {
		return []string{"-workers", strconv.Itoa(workers), "-max-shards", strconv.Itoa(workers), "-queue", "256"}
	}
	var err error
	var front *Proc
	if !w.Dispatch {
		front, err = start("node", workerArgs(nproc)...)
	} else {
		var addrs []string
		for i := 1; i <= 2 && err == nil; i++ {
			var p *Proc
			if p, err = start(fmt.Sprintf("worker%d", i), workerArgs(max(1, nproc/2))...); err == nil {
				addrs = append(addrs, p.Addr)
			}
		}
		if err == nil {
			front, err = start("dispatcher", "-dispatch", strings.Join(addrs, ","))
		}
	}
	if err != nil {
		c.stop()
		return nil, err
	}
	c.Front = "http://" + front.Addr
	return c, nil
}

// stop terminates every process, waits for each, and removes the data
// directories. It is safe to call twice.
func (c *Cluster) stop() {
	live.Lock()
	delete(live.clusters, c)
	live.Unlock()
	// The front stops first, so a dispatcher does not spend its drain
	// re-forwarding to workers that are going away.
	for i := len(c.Procs) - 1; i >= 0; i-- {
		c.Procs[i].stop()
	}
	for _, dir := range c.dataDirs {
		os.RemoveAll(dir)
	}
}

// stopAll stops every live cluster and removes the data root: the exit
// path of the signal handler and of a failed run.
func stopAll() {
	live.Lock()
	var cs []*Cluster
	for c := range live.clusters {
		cs = append(cs, c)
	}
	dataRoot := live.dataRoot
	live.Unlock()
	for _, c := range cs {
		c.stop()
	}
	if dataRoot != "" {
		os.RemoveAll(dataRoot)
	}
}

// checkAlive fails if any process has exited, with its log tail.
func (c *Cluster) checkAlive() error {
	for _, p := range c.Procs {
		if !p.alive() {
			return fmt.Errorf("%s exited during the run; log tail:\n%s", p.Role, logTail(p.logPath))
		}
	}
	return nil
}

// cpuMS sums the cumulative CPU time of every process of the cluster.
func (c *Cluster) cpuMS() (float64, error) {
	total := 0.0
	for _, p := range c.Procs {
		ms, err := p.cpuMS()
		if err != nil {
			return 0, fmt.Errorf("reading CPU time of %s: %w", p.Role, err)
		}
		total += ms
	}
	return total, nil
}

// scrape fetches /metrics from one process.
func scrape(client *http.Client, addr string) (Snapshot, error) {
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics = %d", resp.StatusCode)
	}
	return parseSnapshot(string(raw))
}

// scrapeAll sums /metrics over every process of the cluster, and returns
// the front process's own snapshot beside it (the fleet_* families live
// only there).
func (c *Cluster) scrapeAll(client *http.Client) (all, front Snapshot, err error) {
	all = Snapshot{}
	for _, p := range c.Procs {
		snap, err := scrape(client, p.Addr)
		if err != nil {
			return nil, nil, fmt.Errorf("scraping %s: %w", p.Role, err)
		}
		all.add(snap)
		front = snap // the front is started last
	}
	return all, front, nil
}
