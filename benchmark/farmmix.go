package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"nowomp/internal/farm"
	"nowomp/internal/scenario"
)

// farmRig is an in-process farm server behind a real loopback
// listener — the wiring of `nowomp-farm -drive` — plus the closed-loop
// clients that drive it, one connection each.
type farmRig struct {
	srv     *farm.Server
	hs      *http.Server
	served  chan struct{}
	base    string
	clients []*http.Client
}

// startFarm starts the server with one worker per CPU and creates one
// client per CPU: the load comes from this process, with no more
// threads and connections than the machine has processors.
func startFarm(n int) (*farmRig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rig := &farmRig{
		srv:    farm.NewServer(farm.Limits{Workers: n}),
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
	}
	rig.hs = &http.Server{Handler: rig.srv.Handler()}
	go func() {
		defer close(rig.served)
		_ = rig.hs.Serve(ln) // returns ErrServerClosed from stop
	}()
	for i := 0; i < n; i++ {
		rig.clients = append(rig.clients, &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		})
	}
	return rig, nil
}

// stop closes the clients' connections, the listener and the worker
// pool, and waits for the serving goroutine to end.
func (r *farmRig) stop() {
	for _, c := range r.clients {
		c.CloseIdleConnections()
	}
	_ = r.hs.Close()
	<-r.served
	r.srv.Close()
}

// submission is the client's record of one request.
type submission struct {
	Spec int // index into inputs.Specs
	// Latency runs from the POST ?wait=true to the result body fetched;
	// Post and Fetch are its two halves.
	Latency, Post, Fetch time.Duration
	Status               int
	View                 farm.JobView
	Body                 []byte
	Err                  error
}

// submit posts one spec with ?wait=true and fetches the result body,
// as the farm's documented callers do.
func submit(c *http.Client, base, tenant string, body []byte, tr *tracer, parent, track int) (s submission) {
	req, err := http.NewRequest("POST", base+"/v1/jobs?wait=true", bytes.NewReader(body))
	if err != nil {
		s.Err = err
		return s
	}
	req.Header.Set("X-Tenant", tenant)
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	id := tr.begin("farm.post_wait", "", parent, track)
	data, status, err := do(c, req)
	s.Post = time.Since(start)
	tr.end(id)
	s.Status = status
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("POST /v1/jobs: status %d: %s", status, firstLine(string(data)))
	}
	if err == nil {
		err = json.Unmarshal(data, &s.View)
	}
	tr.setHash(id, s.View.Hash)
	if err == nil && s.View.State != "done" {
		err = fmt.Errorf("job %s is %s: %s", s.View.ID, s.View.State, s.View.Error)
	}
	if err != nil {
		s.Err = err
		return s
	}

	req, err = http.NewRequest("GET", base+s.View.ResultURL, nil)
	if err != nil {
		s.Err = err
		return s
	}
	fetchStart := time.Now()
	id = tr.begin("farm.result_fetch", s.View.Hash, parent, track)
	s.Body, status, err = do(c, req)
	tr.end(id)
	s.Fetch = time.Since(fetchStart)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", s.View.ResultURL, status)
	}
	s.Err = err
	s.Latency = time.Since(start)
	return s
}

func do(c *http.Client, req *http.Request) ([]byte, int, error) {
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// farmWindow is one closed-loop run of the whole submission sequence
// against a cold store.
type farmWindow struct {
	Wall  time.Duration
	Subs  []submission
	Stats farm.Stats
	Host  hostDelta
}

// runFarmWindow drives the sequence: each client takes the next
// submission when its previous one has completed, so a slow server
// receives less load and there is no generator lateness to report.
func runFarmWindow(rig *farmRig, in inputs, tr *tracer) (farmWindow, error) {
	before := readHostUsage()
	subs := make([]submission, len(in.Order))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	root := tr.begin("farm.window", "", 0, 0)
	for k, c := range rig.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tenant := fmt.Sprintf("client-%d", k)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(in.Order) {
					return
				}
				id := tr.begin("farm.submit", "", root, k+1)
				subs[i] = submit(c, rig.base, tenant, in.Bodies[in.Order[i]], tr, id, k+1)
				subs[i].Spec = in.Order[i]
				tr.end(id)
				tr.setHash(id, subs[i].View.Hash)
			}
		}()
	}
	wg.Wait()
	tr.end(root)
	wall := time.Since(start)
	host := readHostUsage().since(before)

	var stats farm.Stats
	req, err := http.NewRequest("GET", rig.base+"/v1/stats", nil)
	if err != nil {
		return farmWindow{}, err
	}
	data, status, err := do(rig.clients[0], req)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET /v1/stats: status %d", status)
	}
	if err == nil {
		err = json.Unmarshal(data, &stats)
	}
	if err != nil {
		return farmWindow{}, err
	}
	return farmWindow{Wall: wall, Subs: subs, Stats: stats, Host: host}, nil
}

// auditFarm re-runs every distinct scenario sequentially in its own
// runtime — spread over the CPUs, each run single-threaded as a farm
// worker's is — and returns the operations in inputs.Specs order. With
// a tracer the re-runs go stepwise and carry spans and counts; without
// one they go through Spec.Run, the farm worker's own path.
func auditFarm(in inputs, n int, tr *tracer) []opResult {
	ops := make([]opResult, len(in.Specs))
	root := tr.begin("farm.audit", "", 0, 0)
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(in.Specs) {
					return
				}
				if tr == nil {
					ops[i] = runBlackBox(in.Specs[i])
				} else {
					ops[i] = runScenario(in.Specs[i], tr, root, k+1)
				}
			}
		}()
	}
	wg.Wait()
	tr.end(root)
	return ops
}

// checkFarm counts attempts and failures of one window. An attempt is
// one submission. It fails on a transport error, a non-2xx status, a
// job that did not finish, or served bytes that differ from the
// sequential re-run of the same scenario.
func checkFarm(win farmWindow, audit []opResult) (attempted int, failures []failure) {
	for i, s := range win.Subs {
		attempted++
		var reason string
		switch ref := audit[s.Spec]; {
		case s.Err != nil:
			reason = s.Err.Error()
		case ref.Err != nil:
			reason = fmt.Sprintf("sequential re-run failed: %v", ref.Err)
		case !bytes.Equal(s.Body, ref.Body):
			reason = "served bytes differ from the sequential re-run"
		}
		if reason != "" {
			failures = append(failures, failure{Op: fmt.Sprintf("submission %d (%s)", i, audit[s.Spec].Name), Reason: reason})
		}
	}
	return attempted, failures
}

// warmFarm pushes one tiny job per catalogue kernel through a
// throwaway server, so that the measured window does not pay the
// process's first use of the HTTP stack and of each kernel.
func warmFarm(n int) error {
	rig, err := startFarm(n)
	if err != nil {
		return err
	}
	defer rig.stop()
	for _, kernel := range []string{"jacobi", "gauss", "fft3d", "nbf", "mergesort", "quadrature"} {
		body, err := json.Marshal(scenario.Spec{Kernel: kernel, Scale: warmScale, Procs: 4, Hosts: 6})
		if err != nil {
			return err
		}
		if s := submit(rig.clients[0], rig.base, "warm", body, nil, 0, 0); s.Err != nil {
			return fmt.Errorf("warm-up %s: %w", kernel, s.Err)
		}
	}
	return nil
}
