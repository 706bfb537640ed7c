package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection driven by hand: the request
// bytes are pre-built, so a round trip is one write and one parsed
// response, and the generator takes as little of the host's CPU from the
// daemon as it can.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	body bytes.Buffer
	stop func() bool
}

// dial connects to addr. Cancelling ctx closes the connection, which fails
// any round trip blocked on it: no read can outlive the run's wall limit.
func dial(ctx context.Context, addr string) (*conn, error) {
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReader(c), stop: context.AfterFunc(ctx, func() { c.Close() })}, nil
}

func (c *conn) close() {
	c.stop()
	c.c.Close()
}

// roundTrip sends one pre-built request and reads the whole response. The
// returned body is valid until the next round trip.
func (c *conn) roundTrip(raw []byte) (status int, body []byte, err error) {
	if _, err := c.c.Write(raw); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.body.Bytes(), err
}

// get is one GET on a fresh connection, for the few control-plane reads.
func get(ctx context.Context, addr, path string) (int, []byte, error) {
	c, err := dial(ctx, addr)
	if err != nil {
		return 0, nil, err
	}
	defer c.close()
	req := rawRequest("GET", path, nil)
	status, body, err := c.roundTrip(req.raw)
	return status, bytes.Clone(body), err
}

// waitReady polls /readyz until it answers 200.
func waitReady(ctx context.Context, addr string) error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		status, _, err := get(ctx, addr, "/readyz")
		if err == nil && status == http.StatusOK {
			return nil
		}
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("/readyz not 200 within 20s (status %d, err %v)", status, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// Response shapes of the deploy API as a client reads them. Unknown fields
// are ignored: the checks below need only these.
type deployBody struct {
	Epoch       int64                 `json:"epoch"`
	CacheHit    bool                  `json:"cache_hit"`
	Degraded    bool                  `json:"degraded"`
	QueueWaitMS float64               `json:"queue_wait_ms"`
	LatencyMS   float64               `json:"latency_ms"`
	Placement   map[string]assignment `json:"placement"`
	MakespanS   float64               `json:"makespan_s"`
	EnergyJ     float64               `json:"total_energy_j"`
}

type assignment struct {
	Device   string `json:"device"`
	Registry string `json:"registry"`
}

type batchBody struct {
	Results []struct {
		Index  int             `json:"index"`
		Deploy *deployBody     `json:"deploy"`
		Error  json.RawMessage `json:"error"`
	} `json:"results"`
}

// decodeDeploys decodes a 200 body into one deployBody per item; a nil entry
// is an item the daemon answered with an error.
func decodeDeploys(body []byte, items int) ([]*deployBody, error) {
	if items == 1 {
		var d deployBody
		if err := json.Unmarshal(body, &d); err != nil {
			return nil, err
		}
		return []*deployBody{&d}, nil
	}
	var b batchBody
	if err := json.Unmarshal(body, &b); err != nil {
		return nil, err
	}
	if len(b.Results) != items {
		return nil, fmt.Errorf("batch answered %d of %d items", len(b.Results), items)
	}
	out := make([]*deployBody, items)
	for _, r := range b.Results {
		if r.Index < 0 || r.Index >= items {
			return nil, fmt.Errorf("batch result index %d out of range", r.Index)
		}
		out[r.Index] = r.Deploy
	}
	return out, nil
}

// clusterNames is what GET /v1/cluster says exists.
type clusterNames struct {
	devices    map[string]bool
	registries map[string]bool
}

func fetchClusterNames(ctx context.Context, addr string) (*clusterNames, error) {
	status, body, err := get(ctx, addr, "/v1/cluster")
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/cluster: status %d, err %v", status, err)
	}
	var spec struct {
		Devices    []struct{ Name string } `json:"devices"`
		Registries []struct{ Name string } `json:"registries"`
	}
	if err := json.Unmarshal(body, &spec); err != nil {
		return nil, fmt.Errorf("GET /v1/cluster: %v", err)
	}
	cn := &clusterNames{devices: map[string]bool{}, registries: map[string]bool{}}
	for _, d := range spec.Devices {
		cn.devices[d.Name] = true
	}
	for _, r := range spec.Registries {
		cn.registries[r.Name] = true
	}
	return cn, nil
}

// checkDeploy is the per-response output check: the placement covers exactly
// the app's microservices, names only hardware that exists, costs something,
// and avoids every device that was down at the response's epoch.
func checkDeploy(d *deployBody, names []string, cn *clusterNames, churn *churnLog) error {
	if len(d.Placement) != len(names) {
		return fmt.Errorf("placement has %d microservices, app has %d", len(d.Placement), len(names))
	}
	down := churn.downAt(d.Epoch)
	for _, ms := range names {
		a, ok := d.Placement[ms]
		switch {
		case !ok:
			return fmt.Errorf("placement misses microservice %q", ms)
		case !cn.devices[a.Device]:
			return fmt.Errorf("%q placed on unknown device %q", ms, a.Device)
		case !cn.registries[a.Registry]:
			return fmt.Errorf("%q pulls from unknown registry %q", ms, a.Registry)
		case down[a.Device]:
			return fmt.Errorf("%q placed on %q, which was down at epoch %d", ms, a.Device, d.Epoch)
		}
	}
	if !(d.MakespanS > 0) || !(d.EnergyJ > 0) {
		return fmt.Errorf("makespan_s %v and total_energy_j %v must be positive", d.MakespanS, d.EnergyJ)
	}
	return nil
}

// churnOp is one /v1/churn call the runner made and the epoch the daemon
// answered it with.
type churnOp struct {
	epoch   int64
	fail    []string
	recover []string
}

// churnLog is the runner's own record of cluster churn, built from its
// /v1/churn replies and ordered by epoch. Epoch 0 is the pristine cluster.
type churnLog struct {
	ops []churnOp
}

func newChurnLog(ops []churnOp) *churnLog {
	sort.Slice(ops, func(i, j int) bool { return ops[i].epoch < ops[j].epoch })
	return &churnLog{ops: ops}
}

// downAt folds the ops up to and including epoch into the set of devices
// that were down at it.
func (l *churnLog) downAt(epoch int64) map[string]bool {
	down := map[string]bool{}
	for _, op := range l.ops {
		if op.epoch > epoch {
			break
		}
		for _, d := range op.fail {
			down[d] = true
		}
		for _, d := range op.recover {
			delete(down, d)
		}
	}
	return down
}

// churnRequest builds the admin-port call that fails or recovers a device.
func churnRequest(fail bool, device string) request {
	key := "recover_devices"
	if fail {
		key = "fail_devices"
	}
	return rawRequest("POST", "/v1/churn", []byte(fmt.Sprintf(`{%q:[%q]}`, key, device)))
}

// applyChurn makes one churn call and returns the op to log.
func applyChurn(c *conn, fail bool, device string) (churnOp, error) {
	req := churnRequest(fail, device)
	status, body, err := c.roundTrip(req.raw)
	if err != nil {
		return churnOp{}, fmt.Errorf("POST /v1/churn: %v", err)
	}
	var reply struct {
		Epoch int64 `json:"epoch"`
	}
	if status != http.StatusOK || json.Unmarshal(body, &reply) != nil || reply.Epoch <= 0 {
		return churnOp{}, fmt.Errorf("POST /v1/churn: status %d, body %s", status, strings.TrimSpace(string(body)))
	}
	op := churnOp{epoch: reply.Epoch}
	if fail {
		op.fail = []string{device}
	} else {
		op.recover = []string{device}
	}
	return op, nil
}
