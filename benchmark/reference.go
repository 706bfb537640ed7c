package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The host this benchmark runs on is a small shared VM whose speed moves by
// tens of percent for minutes at a time (README.md, "Reference speed"). Raw
// times taken a minute apart are then not comparable, so every time the
// harness reports is scaled by how fast the host was when it was taken: next
// to each second of load it times a fixed reference workload and divides by
// it.
//
// The reference is the same kind of work as a deploy — a keep-alive HTTP/1.1
// round trip over loopback into a handler that decodes a JSON document — but
// built from the standard library alone, so it is the same work on every
// commit of the repository. It runs in a process of its own (this binary,
// started again with referenceEnv set): inside the harness its rate would
// follow the harness's heap, which differs from workload to workload and
// swings during the replay.

// referenceRate is the reference workload's round trips per second on the
// build host in its usual state. A host measured at exactly this rate has
// speed 1, and reference-speed metrics equal raw ones.
const referenceRate = 40000.0

// referenceTrips is how many round trips one measurement makes on each
// connection: about 100 ms on the build host.
const referenceTrips = 2000

// referenceDoc is the request body of the reference workload, shaped like a
// deploy request. It is a literal, not generated from the repository's apps,
// so that no commit changes it.
const referenceDoc = `{"tenant":"tenant-0","seed":1,"app":{"version":1,"name":"reference","microservices":[` +
	`{"name":"ingest","image_size_bytes":520000000,"cores":1,"cpu_mi":350000,"memory_bytes":1000000000,"arches":["amd64","arm64"],"external_input_bytes":90000000},` +
	`{"name":"decode","image_size_bytes":780000000,"cores":2,"cpu_mi":1250000,"memory_bytes":2000000000,"arches":["amd64","arm64"]},` +
	`{"name":"detect","image_size_bytes":2400000000,"cores":2,"cpu_mi":3900000,"memory_bytes":4000000000,"arches":["amd64"]},` +
	`{"name":"encode","image_size_bytes":610000000,"cores":1,"cpu_mi":900000,"memory_bytes":1000000000,"arches":["amd64","arm64"]}],` +
	`"dataflows":[{"from":"ingest","to":"decode","size_bytes":90000000},{"from":"decode","to":"detect","size_bytes":240000000},{"from":"detect","to":"encode","size_bytes":60000000}]}}`

// referenceEnv, when set, turns this binary into the reference process; its
// value is the number of connections, which is also its GOMAXPROCS.
const referenceEnv = "FRONTDOOR_REFERENCE"

// reference is the harness's handle on the reference process: one line in
// on its stdin asks for a measurement, one line out on its stdout is the rate.
type reference struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
}

// startReference starts the reference process with one connection per
// closed-loop client. Like the daemon it has its own process group and dies
// with the harness.
func startReference(clients int) (*reference, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(), referenceEnv+"="+strconv.Itoa(clients))
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the reference process: %v", err)
	}
	r := &reference{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}
	// The first trips pay for connection set-up and cold code.
	if _, err := r.speed(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// close ends the reference process (it exits when its stdin closes) and
// reaps it.
func (r *reference) close() {
	r.stdin.Close()
	_ = syscall.Kill(-r.cmd.Process.Pid, syscall.SIGKILL) // it may have exited already
	_ = r.cmd.Wait()                                      // reaping a killed child reports the kill, not a fault
}

// speed asks the reference process for one measurement and returns the
// host's speed: the rate achieved over referenceRate. The daemon is idle
// while it runs.
func (r *reference) speed() (float64, error) {
	if _, err := io.WriteString(r.stdin, "\n"); err != nil {
		return 0, fmt.Errorf("reference process: %v", err)
	}
	line, err := r.out.ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("reference process: %v", err)
	}
	rate, err := strconv.ParseFloat(strings.TrimSpace(line), 64)
	if err != nil || !(rate > 0) {
		return 0, fmt.Errorf("reference process answered %q", strings.TrimSpace(line))
	}
	return rate / referenceRate, nil
}

// referenceMain is the reference process: a server, clients connections to
// it, and for every line on stdin one measurement answered on stdout, until
// stdin closes.
func referenceMain(clients int) error {
	runtime.GOMAXPROCS(clients)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	reply := bytes.Repeat([]byte("x"), 512)
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, q *http.Request) {
		body, err := io.ReadAll(q.Body)
		var doc map[string]any
		if err != nil || json.Unmarshal(body, &doc) != nil {
			http.Error(w, "reference request did not decode", http.StatusBadRequest)
			return
		}
		_, _ = w.Write(reply) // a failed write surfaces as the client's error
	})}
	go func() { _ = srv.Serve(ln) }() // ends with the process
	conns := make([]*conn, clients)
	for i := range conns {
		if conns[i], err = dial(context.Background(), ln.Addr().String()); err != nil {
			return err
		}
	}
	req := rawRequest("POST", "/reference", []byte(referenceDoc))
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		rate, err := referenceTripsPerSecond(conns, req.raw)
		if err != nil {
			return err
		}
		fmt.Println(rate)
	}
	return in.Err()
}

// referenceTripsPerSecond times referenceTrips round trips on every
// connection at once, the way the closed loop occupies the host.
func referenceTripsPerSecond(conns []*conn, raw []byte) (float64, error) {
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	t0 := time.Now()
	for i, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < referenceTrips; n++ {
				if status, _, err := c.roundTrip(raw); err != nil || status != http.StatusOK {
					errs[i] = fmt.Errorf("reference workload: status %d, err %v", status, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(t0).Seconds()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	return float64(referenceTrips*len(conns)) / elapsed, nil
}
