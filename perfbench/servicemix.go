package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"cloudlb/internal/experiment"
	"cloudlb/internal/metrics"
	"cloudlb/internal/service"
	"cloudlb/internal/service/store"
	"cloudlb/internal/telemetry"
)

// serviceSpec is the Spec every service-mix miss submits, differing only
// in its seed: interfered Wave2D on 8 cores under RefineLB.
func serviceSpec(seed int64) experiment.Spec {
	return experiment.Spec{
		App: experiment.Wave2D, Cores: []int{8}, Strategies: []experiment.StrategyKind{experiment.Refine},
		Seeds: []int64{seed}, Scale: 0.15, BG: experiment.BGWave2D,
	}
}

// specSeeds draws the distinct Spec seeds of a run's misses from the
// benchmark seed.
type specSeeds struct {
	rng  *rand.Rand
	seen map[int64]bool
}

func newSpecSeeds(seed int64) *specSeeds {
	return &specSeeds{rng: rand.New(rand.NewSource(seed)), seen: map[int64]bool{}}
}

func (s *specSeeds) next() int64 {
	for {
		v := 1 + s.rng.Int63n(1<<31)
		if !s.seen[v] {
			s.seen[v] = true
			return v
		}
	}
}

// tmpRoot holds the run's stores; it lies inside the checkout.
var tmpRoot = filepath.Join(".bench_build", "tmp")

// hitsPerCycle is the assumed traffic mix: each new Spec is followed by
// this many resubmissions of earlier ones. It is an assumption, not a
// measurement of real traffic.
const hitsPerCycle = 4

// fetched names the artifacts the client reads back after every job.
var fetched = []string{"rows.json", "table.csv"}

// submitted is one miss the client may resubmit.
type submitted struct {
	body []byte
	arts map[string]service.Artifact
}

// serviceMix is a closed loop of one client on one keep-alive loopback
// connection against an in-process service wired as `-serve -store`
// wires it (one worker) over an empty temp-dir store. Each cycle submits
// one new Spec (a miss that simulates and writes the store) and then
// resubmits hitsPerCycle earlier Specs chosen by the seed (hits that only
// read).
type serviceMix struct {
	refs refTable

	dir    string
	reg    *metrics.Registry
	srv    *telemetry.Server
	svc    *service.Service
	st     *store.Store
	base   string
	client *http.Client
	seeds  *specSeeds
	pick   *rand.Rand
	done   []submitted
	// scratch receives the artifact bytes of traced misses, timing the
	// store's write path apart from the rest of publishing.
	scratch *store.Store
}

func (w *serviceMix) setup(seed int64) error {
	w.close()
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(tmpRoot, "service-mix-")
	if err != nil {
		return err
	}
	w.dir = dir
	if w.st, err = store.Open(filepath.Join(dir, "store")); err != nil {
		return err
	}
	if w.scratch, err = store.Open(filepath.Join(dir, "scratch")); err != nil {
		return err
	}
	w.reg = metrics.NewRegistry()
	w.srv = telemetry.NewServer(w.reg, &metrics.LBTimeline{}, telemetry.NewRunTracker())
	w.svc, err = service.New(service.Config{Store: w.st, Metrics: w.reg, Notify: w.srv.Broadcast})
	if err != nil {
		return err
	}
	w.srv.Handle(w.svc.Register)
	w.srv.AddReadiness("service", w.svc.Ready)
	addr, err := w.srv.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + addr
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	w.seeds = newSpecSeeds(seed)
	w.pick = rand.New(rand.NewSource(seed ^ 0x5eed))
	w.done = nil
	// Warm-up: one miss and one hit on a Spec the timed loop never uses
	// (its seeds start at 1).
	body, err := requestBody(serviceSpec(0))
	if err != nil {
		return err
	}
	sub, _, err := w.miss(0, body, nil)
	if err != nil {
		return fmt.Errorf("warm-up miss: %w", err)
	}
	if _, err := w.hit(sub, nil); err != nil {
		return fmt.Errorf("warm-up hit: %w", err)
	}
	return nil
}

func requestBody(sp experiment.Spec) ([]byte, error) {
	return json.Marshal(service.Request{V: service.RequestSchemaVersion, Method: "scenarios", Spec: sp})
}

func (w *serviceMix) op(tr *layers) []opRecord {
	var recs []opRecord
	seed := w.seeds.next()
	body, err := requestBody(serviceSpec(seed))
	if err != nil {
		return []opRecord{{kind: "miss", err: err}}
	}
	sub, wall, err := w.miss(seed, body, tr)
	recs = append(recs, opRecord{kind: "miss", wall: wall, err: err})
	if err == nil {
		w.done = append(w.done, sub)
	}
	for i := 0; i < hitsPerCycle && len(w.done) > 0; i++ {
		prev := w.done[w.pick.Intn(len(w.done))]
		wall, err := w.hit(prev, tr)
		recs = append(recs, opRecord{kind: "hit", wall: wall, err: err})
	}
	return recs
}

// miss submits a Spec the store has never seen, waits for the job to
// finish, fetches its artifacts and checks them. The returned wall time
// runs from the POST to the last artifact byte.
func (w *serviceMix) miss(seed int64, body []byte, tr *layers) (sub submitted, wall time.Duration, err error) {
	t0 := time.Now()
	view, status, err := w.post(body)
	submit := time.Since(t0)
	if err != nil {
		return submitted{}, wall, err
	}
	if status != http.StatusAccepted || view.Cached {
		return submitted{}, wall, fmt.Errorf("new spec answered %d cached=%v, want 202 and a computed job", status, view.Cached)
	}
	// Completion is observed in-process and exactly. service.Client.Wait
	// polls on a 250 ms ticker, which would round every miss up to a
	// multiple of 0.25 s and hide any service-side gain.
	view, err = w.svc.Wait(context.Background(), view.ID)
	done := time.Since(t0)
	if err != nil {
		return submitted{}, wall, err
	}
	if view.State != service.StateDone {
		return submitted{}, wall, fmt.Errorf("job %s ended %s: %s", view.ID, view.State, view.Error)
	}
	tf := time.Now()
	bodies, err := w.fetch(view.Artifacts, fetched)
	fetch := time.Since(tf)
	wall = time.Since(t0)
	if err != nil {
		return submitted{}, wall, err
	}
	var rows []refResult
	if err := json.Unmarshal(bodies["rows.json"], &rows); err != nil || len(rows) != 1 || math.IsNaN(float64(rows[0].BGWall)) {
		return submitted{}, wall, fmt.Errorf("rows.json is not one interfered result: %v", err)
	}
	if err := sane(rows[0]); err != nil {
		return submitted{}, wall, err
	}
	if err := w.refs.check(strconv.FormatInt(seed, 10), rows[0]); err != nil {
		return submitted{}, wall, err
	}
	if tr != nil {
		if err := w.traceMiss(view, submit, done, fetch, tr); err != nil {
			return submitted{}, wall, err
		}
	}
	return submitted{body: body, arts: view.Artifacts}, wall, nil
}

// hit resubmits an earlier Spec: the job must come back done from the
// cache, with the original's artifact addresses, without simulating.
func (w *serviceMix) hit(prev submitted, tr *layers) (time.Duration, error) {
	events := w.simEvents()
	t0 := time.Now()
	view, status, err := w.post(prev.body)
	if err != nil {
		return 0, err
	}
	_, err = w.fetch(view.Artifacts, fetched)
	wall := time.Since(t0)
	if err != nil {
		return wall, err
	}
	if status != http.StatusOK || !view.Cached || view.State != service.StateDone {
		return wall, fmt.Errorf("resubmitted spec answered %d cached=%v state=%s, want 200 from the cache", status, view.Cached, view.State)
	}
	if len(view.Artifacts) != len(prev.arts) {
		return wall, fmt.Errorf("hit has %d artifacts, the original %d", len(view.Artifacts), len(prev.arts))
	}
	for name, a := range prev.arts {
		if view.Artifacts[name].Hash != a.Hash {
			return wall, fmt.Errorf("hit artifact %s is %s, the original %s", name, view.Artifacts[name].Hash, a.Hash)
		}
	}
	if after := w.simEvents(); after != events {
		return wall, fmt.Errorf("cache hit simulated %d events", after-events)
	}
	if tr != nil {
		tr.observe("service.hit_ms", ms(wall))
		for _, row := range view.Trace {
			if row.Cat == "cache" && row.Name == "cache-lookup" {
				tr.observe("service.cache_lookup_ms", 1e3*row.TotalSeconds)
			}
		}
		var req service.Request
		if err := json.Unmarshal(prev.body, &req); err != nil {
			return wall, err
		}
		th := time.Now()
		req.Spec.Hash()
		tr.observe("experiment.hash_us", 1e6*time.Since(th).Seconds())
		tr0 := time.Now()
		man, err := w.st.Resolve(req.CacheKey())
		tr.observe("store.resolve_us", 1e6*time.Since(tr0).Seconds())
		if err != nil {
			return wall, err
		}
		tg := time.Now()
		if _, err := w.st.Get(man); err != nil {
			return wall, err
		}
		tr.observe("store.get_ms", ms(time.Since(tg)))
	}
	return wall, nil
}

// traceMiss records one traced miss's per-layer figures: the client's
// submit and fetch times, the job's own spans from trace_spans.json, its
// simulation series from metrics.json, and the cost of writing all its
// artifacts to a scratch store.
func (w *serviceMix) traceMiss(view service.JobView, submit, done, fetch time.Duration, tr *layers) error {
	names := make([]string, 0, len(view.Artifacts))
	var size int64
	for name, a := range view.Artifacts {
		names = append(names, name)
		size += a.Size
	}
	bodies, err := w.fetch(view.Artifacts, names)
	if err != nil {
		return err
	}
	var spans []struct {
		Name  string  `json:"name"`
		Cat   string  `json:"cat"`
		Phase string  `json:"ph"`
		Dur   float64 `json:"dur"` // microseconds
		PID   int     `json:"pid"`
	}
	if err := json.Unmarshal(bodies["trace_spans.json"], &spans); err != nil {
		return fmt.Errorf("trace_spans.json: %w", err)
	}
	var queue, exec, plan float64
	for _, s := range spans {
		switch {
		case s.Phase != "X" || s.PID != 1: // host-time complete spans only
		case s.Cat == "job" && s.Name == "queue-wait":
			queue += s.Dur / 1e3
		case s.Cat == "job" && s.Name == "execute":
			exec += s.Dur / 1e3
		case s.Cat == "lb" && s.Name == "lb-step":
			plan += s.Dur / 1e6
		}
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(bodies["metrics.json"], &snap); err != nil {
		return fmt.Errorf("metrics.json: %w", err)
	}
	tr.observeSim(readSeries(snap), exec/1e3)
	tr.observe("lb.plan_s", plan)
	tr.observe("service.submit_ms", ms(submit))
	tr.observe("service.queue_wait_ms", queue)
	tr.observe("service.execute_ms", exec)
	tr.observe("service.publish_ms", ms(done)-queue-exec)
	tr.observe("service.fetch_ms", ms(fetch))
	tr.observe("service.artifact_bytes", float64(size))
	tp := time.Now()
	for _, name := range names {
		if _, err := w.scratch.PutBytes(bodies[name]); err != nil {
			return err
		}
	}
	tr.observe("store.put_ms", ms(time.Since(tp)))
	return nil
}

func (w *serviceMix) post(body []byte) (service.JobView, int, error) {
	resp, err := w.client.Post(w.base+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return service.JobView{}, 0, err
	}
	defer resp.Body.Close()
	var view service.JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		return service.JobView{}, resp.StatusCode, fmt.Errorf("POST /api/v1/jobs answered %d: %w", resp.StatusCode, err)
	}
	return view, resp.StatusCode, nil
}

// fetch GETs the named artifacts and checks each hashes to its address.
func (w *serviceMix) fetch(arts map[string]service.Artifact, names []string) (map[string][]byte, error) {
	out := make(map[string][]byte, len(names))
	for _, name := range names {
		a, ok := arts[name]
		if !ok {
			return nil, fmt.Errorf("job has no %s artifact", name)
		}
		resp, err := w.client.Get(w.base + a.URL)
		if err != nil {
			return nil, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("GET %s: %w", name, err)
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s answered %d", name, resp.StatusCode)
		}
		sum := sha256.Sum256(b)
		if h := hex.EncodeToString(sum[:]); h != a.Hash {
			return nil, fmt.Errorf("artifact %s hashes to %s, its address is %s", name, h, a.Hash)
		}
		out[name] = b
	}
	return out, nil
}

// simEvents reads the live registry's engine event counter, which only
// computed jobs add to.
func (w *serviceMix) simEvents() uint64 {
	return w.reg.Counter("sim_events_total", "Events dispatched by the simulation engine.").Value()
}

func (w *serviceMix) close() {
	var errs []error
	if w.srv != nil {
		errs = append(errs, w.srv.Drain(0))
		w.srv = nil
	}
	if w.svc != nil {
		w.svc.Close()
		w.svc = nil
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
		w.client = nil
	}
	if w.dir != "" {
		errs = append(errs, os.RemoveAll(w.dir))
		w.dir = ""
	}
	if err := errors.Join(errs...); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: service-mix teardown: %v\n", err)
	}
}

func ms(d time.Duration) float64 { return 1e3 * d.Seconds() }
