package farm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nowomp/internal/dsm"
	"nowomp/internal/scenario"
)

func testSpec() scenario.Spec {
	return scenario.Spec{Kernel: "jacobi", Scale: 0.03, Procs: 4, Hosts: 6, Verify: true}
}

func specBody(t *testing.T, s scenario.Spec) []byte {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// post submits a spec and decodes the job view.
func post(t *testing.T, ts *httptest.Server, tenant string, s scenario.Spec, wait bool) (JobView, *http.Response) {
	t.Helper()
	url := ts.URL + "/v1/jobs"
	if wait {
		url += "?wait=true"
	}
	req, err := http.NewRequest("POST", url, bytes.NewReader(specBody(t, s)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	return v, resp
}

func get(t *testing.T, ts *httptest.Server, path string) ([]byte, int) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), resp.StatusCode
}

// TestCacheHitIsByteIdentical pins the cache contract: the second
// submission of an identical spec is a hit, simulates nothing, and
// /v1/results serves exactly the bytes the fresh run produced.
func TestCacheHitIsByteIdentical(t *testing.T) {
	srv := NewServer(Limits{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	v1, resp1 := post(t, ts, "alice", testSpec(), true)
	if resp1.StatusCode != http.StatusOK || v1.State != "done" || v1.Cache != "fresh" {
		t.Fatalf("fresh submit: %d %+v", resp1.StatusCode, v1)
	}
	fresh, code := get(t, ts, "/v1/results/"+v1.Hash)
	if code != http.StatusOK {
		t.Fatalf("results after fresh: %d", code)
	}

	v2, resp2 := post(t, ts, "bob", testSpec(), true)
	if resp2.StatusCode != http.StatusOK || v2.State != "done" || v2.Cache != "hit" {
		t.Fatalf("second submit not a hit: %d %+v", resp2.StatusCode, v2)
	}
	if v2.Hash != v1.Hash {
		t.Fatalf("hash mismatch: %s vs %s", v2.Hash, v1.Hash)
	}
	hit, _ := get(t, ts, "/v1/results/"+v2.Hash)
	if !bytes.Equal(fresh, hit) {
		t.Fatalf("hit body differs from fresh body:\n%s\nvs\n%s", fresh, hit)
	}

	// And both match a direct in-process run of the same spec.
	res, err := testSpec().Run()
	if err != nil {
		t.Fatal(err)
	}
	local, err := res.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh, local) {
		t.Fatalf("served body differs from direct run:\n%s\nvs\n%s", fresh, local)
	}

	st := srv.Stats()
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 || st.Cache.Dedups != 0 {
		t.Fatalf("cache counters: %+v", st.Cache)
	}
}

// TestSingleFlightDedup pins coalescing: N concurrent identical
// submissions run the engine once; the rest attach as dedups and all
// get the same result.
func TestSingleFlightDedup(t *testing.T) {
	srv := NewServer(Limits{Workers: 4, MaxInflight: 4})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 8
	spec := scenario.Spec{Kernel: "nbf", Scale: 0.04, Procs: 4, Hosts: 6}
	views := make([]JobView, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			views[i], _ = post(t, ts, fmt.Sprintf("tenant-%d", i%3), spec, true)
		}(i)
	}
	wg.Wait()

	for i, v := range views {
		if v.State != "done" {
			t.Fatalf("job %d not done: %+v", i, v)
		}
		if v.Hash != views[0].Hash {
			t.Fatalf("job %d hash differs", i)
		}
	}
	st := srv.Stats()
	if st.Cache.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 engine run", st.Cache.Misses)
	}
	if st.Cache.Hits+st.Cache.Dedups != n-1 {
		t.Errorf("hits %d + dedups %d != %d", st.Cache.Hits, st.Cache.Dedups, n-1)
	}
	if st.Jobs.Submitted != n || st.Jobs.Completed != n || st.Jobs.Failed != 0 {
		t.Errorf("job counters: %+v", st.Jobs)
	}
}

// TestStatsCountersAddUp submits a mixed batch and checks the ledger:
// submitted = completed + failed, and every completion is a hit, a
// dedup, or a fresh miss.
func TestStatsCountersAddUp(t *testing.T) {
	srv := NewServer(Limits{Workers: 2})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	specs := []scenario.Spec{
		{Kernel: "jacobi", Scale: 0.03, Procs: 2, Hosts: 4},
		{Kernel: "jacobi", Scale: 0.03, Procs: 2, Hosts: 4}, // hit
		{Kernel: "quadrature", Scale: 0.05, Procs: 2, Hosts: 4},
		{Kernel: "jacobi", Scale: 0.03, Procs: 2, Hosts: 4}, // hit
	}
	for _, s := range specs {
		if v, resp := post(t, ts, "carol", s, true); resp.StatusCode != http.StatusOK || v.State != "done" {
			t.Fatalf("submit: %d %+v", resp.StatusCode, v)
		}
	}
	st := srv.Stats()
	if st.Jobs.Submitted != 4 || st.Jobs.Completed != 4 || st.Jobs.Failed != 0 {
		t.Fatalf("jobs: %+v", st.Jobs)
	}
	if st.Cache.Hits+st.Cache.Dedups+st.Cache.Misses != st.Jobs.Submitted {
		t.Fatalf("dispositions %d+%d+%d do not cover %d submissions",
			st.Cache.Hits, st.Cache.Dedups, st.Cache.Misses, st.Jobs.Submitted)
	}
	if st.Cache.Entries != 2 || st.Cache.Bytes <= 0 {
		t.Fatalf("store: %+v", st.Cache)
	}
	ten := st.Tenants["carol"]
	if ten.Submitted != 4 || ten.Completed != 4 || ten.MaxQueueDepth < 1 {
		t.Fatalf("tenant: %+v", ten)
	}
}

// TestStatsCountOutcomeBeforeDone: a client woken by a job's Done finds
// the job counted in Stats, on the fresh, dedup and hit paths alike.
// Each path submits under its own tenant, so each count is exact.
func TestStatsCountOutcomeBeforeDone(t *testing.T) {
	// The worker starts only after both first submissions, so the first
	// is still queued when the second arrives: a dedup, not a hit.
	srv := &Server{limits: Limits{Workers: 1}.withDefaults(), store: NewStore(), jobs: map[string]*Job{}}
	srv.disp = newDispatcher(srv.limits)
	defer srv.Close()
	spec := scenario.Spec{Kernel: "jacobi", Scale: 0.05, Procs: 2, Hosts: 4}
	submit := func(tenant string, want Disposition) *Job {
		t.Helper()
		j, _, err := srv.Submit(tenant, spec)
		if err != nil {
			t.Fatal(err)
		}
		if j.Cache != want {
			t.Fatalf("%s submission: disposition %v, want %v", tenant, j.Cache, want)
		}
		return j
	}
	counted := func(tenant string, j *Job) {
		t.Helper()
		<-j.Done
		if ten := srv.Stats().Tenants[tenant]; ten.Submitted != 1 || ten.Completed != 1 {
			t.Fatalf("%s job done but counted %+v", tenant, ten)
		}
	}
	fresh := submit("fresh", Fresh)
	dedup := submit("dedup", Dedup)
	srv.wg.Add(1)
	go srv.worker()

	// Done closes under the server lock. Held from the moment the fresh
	// job leaves the queue, it keeps both jobs short of Done, and both
	// outcomes must still get counted.
	for srv.view(fresh).State == "queued" {
		time.Sleep(time.Millisecond)
	}
	srv.mu.Lock()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		ten := srv.disp.stats()
		if ten["fresh"].Completed == 1 && ten["dedup"].Completed == 1 {
			break
		}
		if time.Now().After(deadline) {
			srv.mu.Unlock()
			t.Fatalf("outcomes not counted before Done can close: %+v", ten)
		}
	}
	srv.mu.Unlock()

	counted("fresh", fresh)
	counted("dedup", dedup)
	counted("hit", submit("hit", Hit))
}

// TestAdmissionRejectsWith429 fills one tenant's queue and checks the
// 429 + Retry-After path, the rejected counter, and that rejected
// submissions never become jobs.
func TestAdmissionRejectsWith429(t *testing.T) {
	// One worker, tiny queue, and slow-ish jobs so the queue backs up.
	srv := NewServer(Limits{Workers: 1, QueueCap: 2, MaxInflight: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Distinct hashes so nothing coalesces, heavy enough (~100ms of
	// real simulation each) that the single worker cannot drain the
	// queue between two back-to-back submissions.
	spec := func(i int) scenario.Spec {
		return scenario.Spec{Kernel: "jacobi", Scale: 0.25, Procs: 2, Hosts: 4 + i}
	}
	var rejected int
	var last *http.Response
	views := []JobView{}
	for i := 0; i < 6; i++ {
		v, resp := post(t, ts, "dave", spec(i), false)
		if resp.StatusCode == http.StatusTooManyRequests {
			rejected++
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
			last = resp
		} else if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
			views = append(views, v)
		} else {
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
	}
	_ = last
	if rejected == 0 {
		t.Fatal("queue never filled: no 429 observed")
	}
	// Drain the accepted jobs. A single wait=true GET can return a
	// still-running job when the simulation outlasts the server's
	// WaitTimeout (the race detector slows jobs ~20x), so poll like
	// the load driver does.
	for _, v := range views {
		for {
			body, code := get(t, ts, "/v1/jobs/"+v.ID+"?wait=true")
			if code != http.StatusOK {
				t.Fatalf("job %s: %d %s", v.ID, code, body)
			}
			if strings.Contains(string(body), `"done"`) {
				break
			}
			if !strings.Contains(string(body), `"running"`) && !strings.Contains(string(body), `"queued"`) {
				t.Fatalf("job %s in unexpected state: %s", v.ID, body)
			}
		}
	}
	st := srv.Stats()
	if st.Jobs.Rejected != int64(rejected) {
		t.Errorf("rejected counter %d, observed %d", st.Jobs.Rejected, rejected)
	}
	if st.Tenants["dave"].Rejected != int64(rejected) {
		t.Errorf("tenant rejected %d, observed %d", st.Tenants["dave"].Rejected, rejected)
	}
	if st.Tenants["dave"].MaxQueueDepth != 2 {
		t.Errorf("max queue depth %d, want 2", st.Tenants["dave"].MaxQueueDepth)
	}
	if int(st.Jobs.Submitted)+rejected != 6 {
		t.Errorf("submitted %d + rejected %d != 6", st.Jobs.Submitted, rejected)
	}
}

// TestMalformedRequests pins the 4xx surface.
func TestMalformedRequests(t *testing.T) {
	srv := NewServer(Limits{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A valid spec padded out to the body limit and then followed by a
	// second spec: cut at the limit it would decode as the first alone.
	const limit = 1 << 20
	valid := `{"kernel":"jacobi"}`
	overLimit := valid + strings.Repeat(" ", limit-len(valid)) + `{"kernel":"gauss"} junk`
	for name, c := range map[string]struct {
		body string
		code int
	}{
		"not json":       {"{", http.StatusBadRequest},
		"unknown field":  {`{"kernel":"jacobi","scael":0.1}`, http.StatusBadRequest},
		"bad kernel":     {`{"kernel":"nope"}`, http.StatusBadRequest},
		"bad spec":       {`{"kernel":"jacobi","procs":8,"hosts":2}`, http.StatusBadRequest},
		"two specs":      {`{"kernel":"jacobi"} {"kernel":"gauss"} junk`, http.StatusBadRequest},
		"over the limit": {overLimit, http.StatusRequestEntityTooLarge},
	} {
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var msg map[string]string
		decodeErr := json.NewDecoder(resp.Body).Decode(&msg)
		resp.Body.Close()
		if resp.StatusCode != c.code {
			t.Errorf("%s: status %d, want %d", name, resp.StatusCode, c.code)
		}
		if decodeErr != nil || msg["error"] == "" {
			t.Errorf("%s: body is not a one-field JSON error: %v %v", name, msg, decodeErr)
		}
	}
	if _, code := get(t, ts, "/v1/jobs/j-999999"); code != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", code)
	}
	if _, code := get(t, ts, "/v1/results/deadbeef"); code != http.StatusNotFound {
		t.Errorf("unknown result: %d, want 404", code)
	}
	if st := srv.Stats(); st.Jobs.Submitted != 0 {
		t.Errorf("malformed requests became jobs: %+v", st.Jobs)
	}
}

// TestSpecAtTheBodyLimit: a spec padded with whitespace to exactly the
// 1 MiB body limit is still a spec.
func TestSpecAtTheBodyLimit(t *testing.T) {
	srv := NewServer(Limits{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	spec := `{"kernel":"jacobi","procs":2,"hosts":2,"scale":0.02}`
	body := spec + strings.Repeat(" ", 1<<20-len(spec))
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs?wait=true", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if st := srv.Stats(); st.Jobs.Submitted != 1 {
		t.Errorf("submitted %d jobs, want 1", st.Jobs.Submitted)
	}
}

// TestDispatcherFIFOAndInflightCap pins the admission order
// structurally: per-tenant FIFO, global-FIFO among eligible tenants,
// and the per-tenant inflight cap making an over-subscribed tenant
// yield to others.
func TestDispatcherFIFOAndInflightCap(t *testing.T) {
	d := newDispatcher(Limits{QueueCap: 8, MaxInflight: 1}.withDefaults())
	job := func(seq int64, tenant string) *Job {
		return &Job{ID: fmt.Sprintf("j-%d", seq), Seq: seq, Tenant: tenant}
	}
	// Arrival order: a1 a2 b3 a4 b5.
	for _, j := range []*Job{job(1, "a"), job(2, "a"), job(3, "b"), job(4, "a"), job(5, "b")} {
		if ok, _ := d.enqueue(j); !ok {
			t.Fatalf("enqueue %s rejected", j.ID)
		}
	}
	// First claim: a's oldest (seq 1). With a at its inflight cap, the
	// next claim must skip a2/a4 and take b3.
	first := d.next()
	if first.Seq != 1 {
		t.Fatalf("first claim seq %d, want 1", first.Seq)
	}
	second := d.next()
	if second.Seq != 3 {
		t.Fatalf("second claim seq %d, want 3 (tenant a is at its cap)", second.Seq)
	}
	// Releasing a's slot makes a2 the globally oldest eligible again.
	d.finish(first, false)
	third := d.next()
	if third.Seq != 2 {
		t.Fatalf("third claim seq %d, want 2 (per-tenant FIFO)", third.Seq)
	}
	d.finish(second, false)
	d.finish(third, false)
	if d.next().Seq != 4 || d.next().Seq != 5 {
		t.Fatal("tail order violated")
	}
	// Queue-cap accounting: a sixth pending job for one tenant beyond
	// the cap is rejected and counted.
	small := newDispatcher(Limits{QueueCap: 1, MaxInflight: 1}.withDefaults())
	if ok, _ := small.enqueue(job(1, "c")); !ok {
		t.Fatal("first enqueue rejected")
	}
	ok, retry := small.enqueue(job(2, "c"))
	if ok || retry < 1 {
		t.Fatalf("over-cap enqueue: ok=%v retry=%d", ok, retry)
	}
	if st := small.stats()["c"]; st.Rejected != 1 || st.MaxQueueDepth != 1 {
		t.Fatalf("tenant stats: %+v", st)
	}
}

// TestFailedJobPath: a spec that passes Normalize but whose simulation
// dies mid-run surfaces as a failed job — the worker's panic barrier
// keeps the service alive — and dedup waiters share the failure. The
// mid-run death comes from the dsm package's injected fault-panic
// mutation (the sharpest case: a panic, not an error return).
func TestFailedJobPath(t *testing.T) {
	restore, err := dsm.InjectCoherenceMutation("fault-panic")
	if err != nil {
		t.Fatal(err)
	}
	defer restore()

	srv := NewServer(Limits{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bad := scenario.Spec{Kernel: "jacobi", Scale: 0.03, Procs: 2, Hosts: 4}
	v, resp := post(t, ts, "erin", bad, true)
	if resp.StatusCode != http.StatusOK || v.State != "failed" || v.Error == "" {
		t.Fatalf("want failed job, got %d %+v", resp.StatusCode, v)
	}
	if !strings.Contains(v.Error, "panicked") {
		t.Errorf("failure should cite the recovered panic: %q", v.Error)
	}
	// The server survived: a healthy spec still runs to completion.
	restore()
	good, resp := post(t, ts, "erin", testSpec(), true)
	if resp.StatusCode != http.StatusOK || good.State != "done" {
		t.Fatalf("server did not survive the panic: %d %+v", resp.StatusCode, good)
	}
	// The poisoned job left no trace in the worker: its next job serves
	// the bytes of a fresh run of the same spec.
	served, code := get(t, ts, good.ResultURL)
	if code != http.StatusOK {
		t.Fatalf("result fetch status %d", code)
	}
	if fresh := encodeFresh(t, testSpec()); !bytes.Equal(served, fresh) {
		t.Errorf("the job after the failure differs from a fresh run:\nserved: %s\nfresh:  %s", served, fresh)
	}
	if _, code := get(t, ts, "/v1/results/"+v.Hash); code != http.StatusNotFound {
		t.Errorf("failed job cached a result: %d", code)
	}
	st := srv.Stats()
	if st.Jobs.Failed != 1 {
		t.Errorf("failed counter: %+v", st.Jobs)
	}
}

// encodeFresh is the body a fresh Spec.Run of s encodes.
func encodeFresh(t *testing.T, s scenario.Spec) []byte {
	t.Helper()
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	body, err := res.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestCatalogueWarmEqualsCold: one worker runs the whole catalogue at
// two scales, each job in the workspace the jobs before it used, and
// serves for every spec the bytes of a fresh Spec.Run of it.
func TestCatalogueWarmEqualsCold(t *testing.T) {
	srv := NewServer(Limits{Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, scale := range []float64{0.02, 0.22} {
		for i, spec := range Catalogue(scale) {
			v, resp := post(t, ts, "warm", spec, true)
			if resp.StatusCode != http.StatusOK || v.State != "done" {
				t.Fatalf("scale %g catalogue[%d]: status %d, state %q, error %q", scale, i, resp.StatusCode, v.State, v.Error)
			}
			served, code := get(t, ts, v.ResultURL)
			if code != http.StatusOK {
				t.Fatalf("scale %g catalogue[%d]: result fetch status %d", scale, i, code)
			}
			if fresh := encodeFresh(t, spec); !bytes.Equal(served, fresh) {
				t.Errorf("scale %g catalogue[%d]: served differs from a fresh run:\nserved: %s\nfresh:  %s", scale, i, served, fresh)
			}
		}
	}
}
