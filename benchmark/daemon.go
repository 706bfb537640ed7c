package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// userHZ is the unit of the CPU fields in /proc/<pid>/stat. It is a kernel
// ABI constant (USER_HZ) on every Linux architecture Go runs on.
const userHZ = 100

// preflight checks what the harness cannot work without and says which is
// missing.
func preflight() error {
	if _, err := exec.LookPath("go"); err != nil {
		return errors.New("the go toolchain is not on PATH (needed to build cmd/deepfleetd)")
	}
	if _, err := procCPU(os.Getpid()); err != nil {
		return fmt.Errorf("/proc is not readable (needed for the daemon's CPU time and RSS): %v", err)
	}
	return nil
}

// buildDaemon compiles cmd/deepfleetd from the checkout at root.
func buildDaemon(ctx context.Context, root, bin string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/deepfleetd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/deepfleetd in %s: %v: %s", root, err, firstLine(out))
	}
	return nil
}

func firstLine(b []byte) string {
	line, _, _ := bytes.Cut(bytes.TrimSpace(b), []byte("\n"))
	return string(line)
}

// parseStatCPU returns user+system CPU seconds from a /proc/<pid>/stat
// line. The command name (field 2) may contain spaces and parentheses, so
// fields are counted from the last ')': utime and stime are fields 14 and
// 15 of the line, the 12th and 13th after it.
func parseStatCPU(stat []byte) (float64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("stat line without a command field")
	}
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("stat line with %d fields after the command, want at least 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("utime: %v", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stime: %v", err)
	}
	return float64(utime+stime) / userHZ, nil
}

// parseStatusKB returns the kB value of one /proc/<pid>/status field, such
// as VmHWM.
func parseStatusKB(status []byte, field string) (int64, error) {
	for _, line := range strings.Split(string(status), "\n") {
		rest, ok := strings.CutPrefix(line, field+":")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("%s line %q is not '<n> kB'", field, line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("no %s field", field)
}

func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

func procPeakRSSMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(b, "VmHWM")
	return float64(kb) / 1024, err
}

// daemon is one running deepfleetd. It lives in its own process group so
// that kill reaches anything it might fork, and dies with the harness
// (Pdeathsig) even when the harness is killed outright.
type daemon struct {
	cmd   *exec.Cmd
	addr  string // public listener, host:port
	admin string // admin listener, host:port

	logDone chan struct{} // closed once stdout has been drained into the log
	mu      sync.Mutex
	drained bool // the "drained cleanly" line was seen
}

// Lines cmd/deepfleetd prints; their format is pinned there for harnesses.
const (
	listenPrefix = "deepfleetd: listening on "
	adminPrefix  = "deepfleetd: admin on "
	drainedMark  = "deepfleetd: drained cleanly"
)

// startDaemon boots the binary on loopback :0 ports and returns once both
// listeners have been announced. Output is appended to logPath.
func startDaemon(ctx context.Context, bin, logPath string, w *workload, workers int) (*daemon, error) {
	// One append-mode handle serves the child's stderr (which gets its own
	// duplicate) and the stdout tee below, which closes it.
	log, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}

	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0",
		"-workers", strconv.Itoa(workers), "-cluster", strconv.Itoa(w.cluster))
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = log
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		log.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, fmt.Errorf("starting %s: %v", filepath.Base(bin), err)
	}

	d := &daemon{cmd: cmd, logDone: make(chan struct{})}
	type addrs struct{ addr, admin string }
	found := make(chan addrs, 1)
	go func() {
		defer close(d.logDone)
		defer log.Close()
		var a addrs
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(log, line)
			switch {
			case strings.HasPrefix(line, listenPrefix):
				a.addr = strings.TrimPrefix(line, listenPrefix)
			case strings.HasPrefix(line, adminPrefix):
				a.admin = strings.TrimPrefix(line, adminPrefix)
				found <- a
			case strings.HasPrefix(line, drainedMark):
				d.mu.Lock()
				d.drained = true
				d.mu.Unlock()
			}
		}
	}()

	select {
	case a := <-found:
		d.addr, d.admin = a.addr, a.admin
		return d, nil
	case <-d.logDone:
		d.kill()
		return nil, fmt.Errorf("daemon exited before announcing its listeners (see %s)", logPath)
	case <-time.After(20 * time.Second):
		d.kill()
		return nil, fmt.Errorf("daemon did not announce its listeners within 20s (see %s)", logPath)
	case <-ctx.Done():
		d.kill()
		return nil, context.Cause(ctx)
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill ends the daemon's whole process group and reaps it. Safe to call on
// an already stopped daemon; every exit path of the harness runs it.
func (d *daemon) kill() {
	if d.cmd.ProcessState != nil {
		return
	}
	_ = syscall.Kill(-d.pid(), syscall.SIGKILL) // the group may already be gone
	<-d.logDone
	_ = d.cmd.Wait() // reaping a killed child reports the kill, not a fault
}

// stop sends SIGTERM and requires a clean bounded drain: exit code 0 and the
// "drained cleanly" line.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("SIGTERM: %v", err)
	}
	select {
	case <-d.logDone:
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("daemon still running 30s after SIGTERM")
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("daemon exit after SIGTERM: %v", err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.drained {
		return errors.New("daemon exited without printing 'drained cleanly'")
	}
	return nil
}
