package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gsqlgo/internal/cluster"
)

// buildDir holds everything the benchmark writes: the gsqld binary,
// per-run data directories and trace.json. It sits in the checkout
// root (the working directory) and is git-ignored.
const buildDir = ".bench_build"

// janitor undoes whatever is live — child processes, data directories
// — on every exit path: normal return, failed check, SIGINT.
type janitor struct {
	mu  sync.Mutex
	fns []func()
}

func (j *janitor) add(fn func()) {
	j.mu.Lock()
	j.fns = append(j.fns, fn)
	j.mu.Unlock()
}

// run calls the registered undo functions newest first, once.
func (j *janitor) run() {
	j.mu.Lock()
	fns := j.fns
	j.fns = nil
	j.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// buildServer compiles cmd/gsqld from the commit under test and
// returns the binary's path and the build time (reported as build_s,
// outside setup_s).
func buildServer() (string, time.Duration, error) {
	bin, err := filepath.Abs(filepath.Join(buildDir, "gsqld"))
	if err != nil {
		return "", 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", bin, "gsqlgo/cmd/gsqld")
	cmd.Dir = "benchmark" // gsqlgo resolves through this module's replace directive
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build gsqld: %w\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// node is one child gsqld.
type node struct {
	url  string
	dir  string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been reaped
}

// pair is a leader and its follower on loopback sockets.
type pair struct {
	dir      string
	leader   *node
	follower *node
	http     *http.Client
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func startNode(bin, dir, procs string, args ...string) (*node, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(dir + ".log")
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-data-dir", dir, "-log-level", "warn"}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+procs)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	n := &node{url: "http://" + addr, dir: dir, cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a killed child carries nothing
		logf.Close()
		close(n.done)
	}()
	return n, nil
}

// kill sends SIGKILL and waits until the process has ended.
func (n *node) kill() {
	if n == nil {
		return
	}
	_ = n.cmd.Process.Signal(syscall.SIGKILL) // fails only when it already exited
	<-n.done
}

func (n *node) logTail() string {
	b, _ := os.ReadFile(n.dir + ".log")
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

func (p *pair) waitHealthy(n *node) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := p.http.Get(n.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-n.done:
			return fmt.Errorf("%s exited during start-up:\n%s", n.url, n.logTail())
		case <-time.After(5 * time.Millisecond):
		}
	}
	return fmt.Errorf("%s not healthy within 20s:\n%s", n.url, n.logTail())
}

// startPair boots a fresh leader and follower in a new data directory
// under buildDir and registers their teardown with j.
func startPair(j *janitor, bin string, hc *http.Client) (*pair, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	p := &pair{dir: dir, http: hc}
	j.add(p.stop)
	if err := p.startHealthy(&p.leader, bin, filepath.Join(dir, "leader"), leaderProcs,
		"-builtin", "snb:"+strconv.FormatFloat(snbSF, 'f', -1, 64), "-fsync", "-wal-retain", "8"); err != nil {
		return nil, err
	}
	return p, p.startHealthy(&p.follower, bin, filepath.Join(dir, "follower"), followProcs, "-follow", p.leader.url)
}

// startHealthy starts a node into *slot (so that stop finds it even
// while it boots) and waits for its /healthz. The free port is picked
// before the child binds it, so another process can take it in between;
// a child that fails to come up is started again on a new port, twice
// at most.
func (p *pair) startHealthy(slot **node, bin, dir, procs string, args ...string) error {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if *slot, err = startNode(bin, dir, procs, args...); err != nil {
			return err
		}
		if err = p.waitHealthy(*slot); err == nil {
			return nil
		}
		(*slot).kill()
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	return err
}

// stop kills both children, waits for them and removes the data
// directory. Safe to call more than once.
func (p *pair) stop() {
	p.leader.kill()
	p.follower.kill()
	p.leader, p.follower = nil, nil
	os.RemoveAll(p.dir)
}

// caughtUp reports whether the follower's WAL position equals the
// leader's, and how many records it reports itself behind.
func (p *pair) caughtUp(ctx context.Context) (bool, int64) {
	l := cluster.FetchNode(ctx, p.http, p.leader.url)
	f := cluster.FetchNode(ctx, p.http, p.follower.url)
	ok := l.Error == "" && f.Error == "" && l.WALSeq == f.WALSeq && l.WALOffset == f.WALOffset
	return ok, f.LagRecords
}

// waitCaughtUp polls until the follower's position equals the leader's
// and returns how long that took.
func (p *pair) waitCaughtUp(ctx context.Context) (time.Duration, error) {
	start := time.Now()
	for time.Since(start) < 30*time.Second {
		if ok, _ := p.caughtUp(ctx); ok {
			return time.Since(start), nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, fmt.Errorf("follower did not reach the leader's WAL position within 30s:\n%s", p.follower.logTail())
}

// procStat is a /proc sample of one child.
type procStat struct {
	cpu       time.Duration // user + system
	rssPeakMB float64
}

func (n *node) procStat() procStat {
	var ps procStat
	pid := strconv.Itoa(n.cmd.Process.Pid)
	if b, err := os.ReadFile("/proc/" + pid + "/stat"); err == nil {
		// Fields after the parenthesised command name; utime and stime
		// are the 14th and 15th of the line, in 10 ms clock ticks.
		if i := bytes.LastIndexByte(b, ')'); i >= 0 {
			f := strings.Fields(string(b[i+1:]))
			if len(f) > 12 {
				ut, _ := strconv.ParseInt(f[11], 10, 64)
				st, _ := strconv.ParseInt(f[12], 10, 64)
				ps.cpu = time.Duration(ut+st) * 10 * time.Millisecond
			}
		}
	}
	if b, err := os.ReadFile("/proc/" + pid + "/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
				ps.rssPeakMB = kb / 1024
			}
		}
	}
	return ps
}
