package main

import (
	"bytes"
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
)

// env is one benchmark run's footprint on the machine: where the
// binaries are, the run's scratch directory and every child process
// still alive. Everything lives under bench/out/ of the checkout.
type env struct {
	root string // repository root
	out  string // bench/out
	bin  string // bench/out/bin
	tmp  string // bench/out/tmp/run-<pid>, removed by close

	mu    sync.Mutex
	procs []*proc
}

// products are the shipped commands the end-to-end runs drive.
var products = []string{"rdfgen", "rdfstruct", "rdfrefine", "rdfserved", "rdfcoord"}

// newEnv locates the checkout from the program's own path (run.sh
// builds it to bench/out/bin/bench) and creates the run's scratch
// directory.
func newEnv() (*env, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := filepath.Dir(filepath.Dir(exe))
	root := filepath.Dir(filepath.Dir(out))
	if _, err := os.Stat(filepath.Join(root, "cmd", "rdfserved")); err != nil || filepath.Base(out) != "out" {
		return nil, fmt.Errorf("bench must be started by bench/run.sh inside a checkout of the repository (found none above %s)", exe)
	}
	e := &env{root: root, out: out}
	e.bin = filepath.Join(e.out, "bin")
	e.tmp = filepath.Join(e.out, "tmp", "run-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(e.bin, 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.tmp, 0o755); err != nil {
		return nil, err
	}
	return e, nil
}

// build compiles the product commands from the checkout's source. It
// runs on every invocation: with a warm build cache it is a no-op check
// that the binaries match the source.
func (e *env) build() (time.Duration, error) {
	start := time.Now()
	args := []string{"build", "-o", e.bin + string(os.PathSeparator)}
	for _, p := range products {
		args = append(args, "./cmd/"+p)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build: %v\n%s", err, out)
	}
	return time.Since(start), nil
}

// dir creates and returns a fresh directory under the run's scratch space.
func (e *env) dir(name string) (string, error) {
	d, err := os.MkdirTemp(e.tmp, name+"-")
	return d, err
}

// close stops every child, keeps the server logs under bench/out/ when
// the run failed, and removes the scratch directory.
func (e *env) close(failed bool) {
	e.mu.Lock()
	procs := append([]*proc(nil), e.procs...)
	e.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	if failed {
		keep := filepath.Join(e.out, "failed-logs")
		_ = os.RemoveAll(keep)
		if err := os.MkdirAll(keep, 0o755); err == nil {
			logs, _ := filepath.Glob(filepath.Join(e.tmp, "*.log"))
			for _, l := range logs {
				if data, err := os.ReadFile(l); err == nil {
					_ = os.WriteFile(filepath.Join(keep, filepath.Base(l)), data, 0o644)
				}
			}
			fmt.Fprintf(os.Stderr, "bench: server logs kept in %s\n", keep)
		}
	}
	_ = os.RemoveAll(e.tmp)
}

// proc is one long-running child (rdfserved or rdfcoord).
type proc struct {
	name string
	url  string // base URL, http://127.0.0.1:<port>
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been waited for
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// start launches a product server on a free port, in its own process
// group, logging to <tmp>/<name>.log, and waits until GET /stats
// answers 200.
func (e *env) start(name, product string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(e.tmp, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(filepath.Join(e.bin, product), append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, done: make(chan struct{})}
	go func() { _ = cmd.Wait(); close(p.done) }()
	e.mu.Lock()
	e.procs = append(e.procs, p)
	e.mu.Unlock()
	if err := p.waitReady(30 * time.Second); err != nil {
		p.kill()
		return nil, err
	}
	return p, nil
}

// waitReady polls GET /stats until it answers 200, the process exits or
// the timeout passes.
func (p *proc) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before serving", p.name)
		default:
		}
		resp, err := http.Get(p.url + "/stats")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not serving after %s", p.name, timeout)
}

// kill SIGKILLs the child's process group and waits for it to end.
func (p *proc) kill() {
	_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	<-p.done
}

// procField reads one "Key:\tvalue" field of /proc/<pid>/<file> as an
// integer (the unit suffix of status fields is dropped).
func (p *proc) procField(file, key string) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/%s", p.cmd.Process.Pid, file))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseInt(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/%s: no %s field", p.cmd.Process.Pid, file, key)
}

// peakRSSMB is the process's resident-set high-water mark.
func (p *proc) peakRSSMB() (float64, error) {
	kb, err := p.procField("status", "VmHWM")
	return float64(kb) / 1024, err
}

// writeBytes is the bytes the process has caused to be sent to storage.
func (p *proc) writeBytes() (int64, error) { return p.procField("io", "write_bytes") }

// cliRun is the outcome of one command-line invocation.
type cliRun struct {
	stdout string
	wall   time.Duration
	rssMB  float64
}

// runCLI runs a product command to completion and reports its output,
// wall time and peak resident set.
func (e *env) runCLI(product string, args ...string) (cliRun, error) {
	cmd := exec.Command(filepath.Join(e.bin, product), args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return cliRun{}, fmt.Errorf("%s %s: %v\n%s", product, strings.Join(args, " "), err, stderr.String())
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return cliRun{stdout: stdout.String(), wall: wall, rssMB: float64(ru.Maxrss) / 1024}, nil
}

// selfCPU is the CPU time this process has used so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
