package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"accelflow/bench/stats"
	"accelflow/internal/control"
	"accelflow/internal/experiments"
	"accelflow/internal/obs"
	"accelflow/internal/serve"
	"accelflow/internal/sim"
	"accelflow/internal/tune"
	"accelflow/internal/workload"
)

// jobShape is the request budget of each daemon job type.
type jobShape struct {
	observed, experiment, tune int
}

const (
	// faultLoss is the remote-response loss rate of the faulted
	// observed jobs. They carry no fault-window rate: any rate schedules
	// windows across a fixed 1 s simulated horizon, which stretches a
	// 300-request run from under 1 ms to 1 s of simulated time and its
	// trace from 4.5 MB to 61 MB.
	faultLoss = 0.001
	// coldJobsPerSecond and hotJobsPerSecond set the daemon workloads'
	// lengths: a run of s seconds is the first jobsPerSecond·s jobs, the
	// same on every commit. The daemon retains every job it has run, so
	// a fixed job count keeps peak_rss_mb comparable between a faster
	// and a slower commit.
	coldJobsPerSecond = 15
	hotJobsPerSecond  = 1000
)

// coldExperiments are the experiment jobs' IDs, used in turn.
var coldExperiments = []string{"fig19", "fig11", "fig13"}

// coldControl is the shed controller the faulted observed jobs carry.
func coldControl() *control.Spec {
	return &control.Spec{Shed: &control.ShedSpec{Queue: 48, Prob: 0.01}}
}

// daemonClients is the number of closed-loop callers: each waits for
// its job's results before submitting the next, as an accelsim user or
// a tune script does.
const daemonClients = 2

// coldBlock is the length of the daemon-cold sequence's repeating
// block.
const coldBlock = 10

// coldRequest returns job i of the daemon-cold sequence. Every block of
// ten jobs holds three observed runs (alternately plain and with
// response loss plus the shed controller; the client fetches both
// artifacts), six experiments (coldExperiments in turn) and one
// single-generation tune. Job i has seed base+i, so no two jobs share a
// result.
func coldRequest(shape jobShape, base int64, i int) (serve.JobRequest, string) {
	block, pos := i/coldBlock, i%coldBlock
	seed := base + int64(i)
	switch pos {
	case 0, 3, 6:
		req := serve.JobRequest{Type: serve.JobObserved, Requests: shape.observed, Quick: true, Seed: seed}
		if (block*3+pos/3)%2 == 1 {
			req.FaultLoss = faultLoss
			req.Control = coldControl()
			return req, "observed+faults"
		}
		return req, "observed"
	case 9:
		return serve.JobRequest{Type: serve.JobTune, Generations: 1, Quick: true, Requests: shape.tune, Seed: seed}, "tune"
	}
	// Positions 1, 2, 4, 5, 7, 8 are the block's six experiments.
	e := block*6 + pos - 1 - pos/3
	id := coldExperiments[e%len(coldExperiments)]
	return serve.JobRequest{Type: serve.JobExperiment, Experiment: id, Quick: true, Requests: shape.experiment, Seed: seed}, "experiment/" + id
}

// hotPositions pick daemon-hot's primed set from the start of the cold
// sequence: three observed jobs, four experiments and the tune job.
var hotPositions = []int{0, 1, 2, 3, 4, 5, 6, 9}

// jobSeedBase spreads each benchmark seed's job seeds apart.
func jobSeedBase(seed int64) int64 { return seed * 1_000_000 }

// warmupOffset places the cold warm-up job's seed past any job index a
// run reaches.
const warmupOffset = 999_999

// server is a running daemon: an accelsimd subprocess, or the same
// handler served in-process for traced runs so the CPU profile covers
// the server.
type server interface {
	url() string
	pid() string
	stop() error
}

// daemonProc is an accelsimd subprocess with its default flags, bound
// to an ephemeral loopback port.
type daemonProc struct {
	cmd     *exec.Cmd
	base    string
	logDone chan struct{}
}

func startDaemonProc(bin string) (*daemonProc, error) {
	if bin == "" {
		return nil, errors.New("no accelsimd binary given (-accelsimd)")
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logs, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemonProc{cmd: cmd, logDone: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		// Read the log until the daemon exits; its first line names the
		// bound address.
		defer close(d.logDone)
		sc := bufio.NewScanner(logs)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrc <- addr:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrc:
		d.base = "http://" + addr
	case <-d.logDone:
		d.stop()
		return nil, errors.New("accelsimd exited before listening")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("accelsimd did not report its address")
	}
	return d, nil
}

func (d *daemonProc) url() string { return d.base }
func (d *daemonProc) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// stop drains the daemon with SIGTERM, as an operator would, and kills
// it if it has not exited after 10 s.
func (d *daemonProc) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.logDone:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.logDone
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("accelsimd: %w", err)
	}
	return nil
}

// inprocServer serves serve.NewServer's handler from this process with
// accelsimd's default configuration.
type inprocServer struct {
	sched  *serve.Scheduler
	srv    *http.Server
	base   string
	served chan error
}

func startInproc() (*inprocServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	// accelsimd's flag defaults.
	sched := serve.NewScheduler(serve.Config{
		Workers: 2, QueueDepth: 8, RetryAfter: time.Second, CacheEntries: 512, TenantBurst: 8,
	})
	s := &inprocServer{
		sched:  sched,
		srv:    &http.Server{Handler: serve.NewServer(sched).Handler()},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

func (s *inprocServer) url() string { return s.base }
func (s *inprocServer) pid() string { return "self" }

func (s *inprocServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	s.sched.Close()
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// apiClient is one closed-loop caller with its own keep-alive
// connection.
type apiClient struct {
	base string
	http *http.Client
	body bytes.Buffer // reused response buffer
}

func newAPIClient(base string) *apiClient {
	return &apiClient{base: base, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}}
}

func (c *apiClient) closeIdle() { c.http.CloseIdleConnections() }

// get fetches path into c.body, which stays valid until the next call.
func (c *apiClient) get(path string) ([]byte, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	c.body.Reset()
	if _, err := c.body.ReadFrom(resp.Body); err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(c.body.Bytes()))
	}
	return c.body.Bytes(), nil
}

// waitHealthy polls /healthz until the daemon answers.
func (c *apiClient) waitHealthy() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, err := c.get("/healthz")
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon never became healthy: %w", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// jobResult is what one job returned to its client.
type jobResult struct {
	id     string
	cached bool
	// values is the canonical encoding of the job's values and lines.
	values []byte
	cells  int
}

// canonicalValues re-encodes a /values body without its job ID, so
// the results of two jobs compare byte for byte.
func canonicalValues(body []byte, withLines bool) ([]byte, error) {
	var v struct {
		Values map[string]float64 `json:"values"`
		Lines  []string           `json:"lines"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, err
	}
	if !withLines {
		v.Lines = nil
	}
	return json.Marshal(v)
}

// artifactFunc receives a fetched artifact's bytes, which are valid
// only during the call.
type artifactFunc func(a obs.Artifact, b []byte) error

// runJob submits req and follows it to its last GET: the progress
// stream to the "done" event, the values, then each artifact in fetch,
// handed to onArtifact. Tune jobs' report lines are left out of the
// canonical values: verifyDirect rebuilds a tune job's values from
// tune.Run, not the scheduler's rendering of them.
func (c *apiClient) runJob(rec *recorder, op string, req serve.JobRequest, fetch []obs.Artifact, onArtifact artifactFunc) (*jobResult, error) {
	root := rec.begin("job", 0, op)
	defer rec.end(root)

	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	id := rec.begin("serve.submit", root, op)
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		rec.end(id)
		return nil, err
	}
	var view serve.JobView
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	rec.end(id)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return nil, fmt.Errorf("submit: status %d: %v", resp.StatusCode, err)
	}
	out := &jobResult{id: view.ID, cached: view.Cached}

	id = rec.begin("serve.progress", root, op)
	out.cells, err = c.follow(view.ID)
	rec.end(id)
	if err != nil {
		return nil, err
	}

	id = rec.begin("serve.values", root, op)
	vals, err := c.get("/v1/jobs/" + view.ID + "/values")
	rec.end(id)
	if err != nil {
		return nil, err
	}
	if out.values, err = canonicalValues(vals, req.Type != serve.JobTune); err != nil {
		return nil, fmt.Errorf("values: %w", err)
	}

	for _, a := range fetch {
		id = rec.begin("serve.artifact."+string(a), root, op)
		b, err := c.get("/v1/jobs/" + view.ID + "/artifacts/" + string(a))
		rec.end(id)
		if err == nil && len(b) == 0 {
			err = fmt.Errorf("empty %s artifact", a)
		}
		if err == nil && onArtifact != nil {
			err = onArtifact(a, b)
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// follow reads a job's NDJSON progress stream to its end and checks
// that the last event is a successful "done". It returns the number of
// finished sweep cells the stream reported.
func (c *apiClient) follow(jobID string) (cells int, err error) {
	resp, err := c.http.Get(c.base + "/v1/jobs/" + jobID + "/progress")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("progress: status %d", resp.StatusCode)
	}
	var last serve.Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var ev struct {
			serve.Event
			Type string `json:"type"` // set only on heartbeats
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return 0, fmt.Errorf("progress line %q: %w", sc.Text(), err)
		}
		if ev.Type != "" {
			continue
		}
		if ev.Event.Event == "cell" {
			cells++
		}
		last = ev.Event
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("progress: %w", err)
	}
	if last.Event != "done" || last.State != serve.StateDone {
		return 0, fmt.Errorf("job %s ended with event %q state %q: %s", jobID, last.Event, last.State, last.Error)
	}
	return cells, nil
}

// artifactsFor lists what the client fetches after a job: both
// artifacts of an observed job on cold traffic, the trace alone on hot.
func artifactsFor(req serve.JobRequest, hot bool) []obs.Artifact {
	if req.Type != serve.JobObserved {
		return nil
	}
	if hot {
		return []obs.Artifact{obs.ArtifactTrace}
	}
	return obs.Artifacts()
}

// hotEntry is one primed daemon-hot request and the results its cold
// run produced, which every later hit must repeat byte for byte.
type hotEntry struct {
	req    serve.JobRequest
	kind   string
	values []byte
	trace  []byte
}

// firstJob is the first daemon-cold job of one kind, kept for the
// post-run comparison with a direct in-process run.
type firstJob struct {
	req       serve.JobRequest
	values    []byte
	artifacts map[obs.Artifact][]byte
}

// daemonSession drives daemon-cold or daemon-hot traffic.
type daemonSession struct {
	srv     server
	callers []*apiClient // one per driving goroutine
	hot     bool
	shape   jobShape
	base    int64 // job seed base
	hotSet  []hotEntry
	// Taken at the end of setup, so layer metrics cover measured jobs.
	rss0     float64
	cache0   serve.CacheStats
	mu       sync.Mutex
	firsts   map[string]*firstJob
	jobTypes map[string]string // measured job ID -> job type
	cells    int
}

func setupCold(c *runConfig) (session, error) { return setupDaemon(c, false) }
func setupHot(c *runConfig) (session, error)  { return setupDaemon(c, true) }

// setupDaemon starts a daemon, waits until it is healthy, and either
// primes the hot set or runs one warm-up job on a seed no measured job
// uses.
func setupDaemon(c *runConfig, hot bool) (_ session, err error) {
	var srv server
	if c.trace {
		srv, err = startInproc()
	} else {
		srv, err = startDaemonProc(c.accelsimd)
	}
	if err != nil {
		return nil, err
	}
	s := &daemonSession{
		srv: srv, hot: hot, shape: c.size.jobs, base: jobSeedBase(c.seed),
		firsts: map[string]*firstJob{}, jobTypes: map[string]string{},
	}
	for i := 0; i < daemonClients; i++ {
		s.callers = append(s.callers, newAPIClient(srv.url()))
	}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	cl := s.callers[0]
	if err := cl.waitHealthy(); err != nil {
		return nil, err
	}
	if hot {
		for _, pos := range hotPositions {
			req, kind := coldRequest(s.shape, s.base, pos)
			e := hotEntry{req: req, kind: kind}
			keep := func(_ obs.Artifact, b []byte) error { e.trace = bytes.Clone(b); return nil }
			r, err := cl.runJob(nil, "prime", req, artifactsFor(req, true), keep)
			if err != nil {
				return nil, fmt.Errorf("priming: %w", err)
			}
			e.values = r.values
			s.hotSet = append(s.hotSet, e)
		}
	} else {
		req, _ := coldRequest(s.shape, s.base+warmupOffset, 0)
		if _, err := cl.runJob(nil, "warmup", req, artifactsFor(req, false), nil); err != nil {
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
	}
	if s.cache0, err = cl.cacheStats(); err != nil {
		return nil, err
	}
	if s.rss0, err = procStatusKB(srv.pid(), "VmRSS"); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *daemonSession) clients() int { return daemonClients }
func (s *daemonSession) pid() string  { return s.srv.pid() }

func (s *daemonSession) kind(i int) string {
	if s.hot {
		return s.hotSet[i%len(s.hotSet)].kind
	}
	_, kind := coldRequest(s.shape, s.base, i)
	return kind
}

func (s *daemonSession) close() error {
	for _, c := range s.callers {
		c.closeIdle()
	}
	return s.srv.stop()
}

func (s *daemonSession) op(env opEnv, i int) error {
	cl := s.callers[env.client]
	opID := "job-" + strconv.Itoa(i)
	if s.hot {
		return s.hotOp(env.rec, cl, opID, s.hotSet[i%len(s.hotSet)])
	}
	req, kind := coldRequest(s.shape, s.base, i)
	s.mu.Lock()
	first := s.firsts[kind] == nil
	if first {
		// Claimed now so that one job per kind keeps its outputs.
		s.firsts[kind] = &firstJob{req: req}
	}
	s.mu.Unlock()
	var kept map[obs.Artifact][]byte
	var keep artifactFunc
	if first {
		kept = map[obs.Artifact][]byte{}
		keep = func(a obs.Artifact, b []byte) error { kept[a] = bytes.Clone(b); return nil }
	}
	r, err := cl.runJob(env.rec, opID, req, artifactsFor(req, false), keep)
	if err != nil {
		return err
	}
	if r.cached {
		return fmt.Errorf("cold %s job (seed %d) was served from the cache", kind, req.Seed)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.note(r, req.Type)
	if first {
		s.firsts[kind] = &firstJob{req: req, values: r.values, artifacts: kept}
	}
	return nil
}

func (s *daemonSession) hotOp(rec *recorder, cl *apiClient, opID string, e hotEntry) error {
	sameTrace := func(_ obs.Artifact, b []byte) error {
		if !bytes.Equal(b, e.trace) {
			return fmt.Errorf("hot %s job (seed %d) trace differs from its primed run", e.req.Type, e.req.Seed)
		}
		return nil
	}
	r, err := cl.runJob(rec, opID, e.req, artifactsFor(e.req, true), sameTrace)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.note(r, e.req.Type)
	s.mu.Unlock()
	if !r.cached {
		return fmt.Errorf("hot %s job (seed %d) missed the cache", e.req.Type, e.req.Seed)
	}
	if !bytes.Equal(r.values, e.values) {
		return fmt.Errorf("hot %s job (seed %d) values differ from its primed run", e.req.Type, e.req.Seed)
	}
	return nil
}

// note records a measured job for the layer metrics. Requires mu.
func (s *daemonSession) note(r *jobResult, typ string) {
	s.jobTypes[r.id] = typ
	s.cells += r.cells
}

// verify compares the first cold job of each kind with a direct
// in-process run of the same request: values and lines for experiment
// jobs, values for tune jobs, artifact bytes for observed jobs. Hot
// jobs were checked as they ran.
func (s *daemonSession) verify() int {
	failed := 0
	for kind, f := range s.firsts {
		if f.values == nil {
			continue // claimed by a job that failed, already counted
		}
		if err := verifyDirect(f); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s job differs from a direct run: %v\n", kind, err)
			failed++
		}
	}
	return failed
}

func verifyDirect(f *firstJob) error {
	r := f.req
	switch r.Type {
	case serve.JobObserved:
		spec, sink, err := workload.BuildObserved(workload.ObservedParams{
			Seed: r.Seed, Requests: r.Requests, Quick: r.Quick,
			FaultRate: r.FaultRate, FaultWindow: sim.FromMicros(r.FaultWindowUs), FaultLoss: r.FaultLoss,
			Control: r.Control,
		})
		if err != nil {
			return err
		}
		if _, err := spec.Run(); err != nil {
			return err
		}
		for _, a := range obs.Artifacts() {
			var direct bytes.Buffer
			if err := sink.WriteArtifact(a, &direct); err != nil {
				return err
			}
			if !bytes.Equal(f.artifacts[a], direct.Bytes()) {
				return fmt.Errorf("%s artifact: daemon %d bytes, direct %d bytes, contents differ", a, len(f.artifacts[a]), direct.Len())
			}
		}
		return nil
	case serve.JobExperiment:
		res, err := experiments.Registry[r.Experiment](experiments.Options{Requests: r.Requests, Seed: r.Seed, Quick: r.Quick})
		if err != nil {
			return err
		}
		return sameValues(f.values, res.Values, res.Lines)
	case serve.JobTune:
		res, err := tune.Run(context.Background(), tune.Params{
			Space: tune.DefaultSpace(), Seed: r.Seed, Requests: r.Requests,
			MaxGenerations: r.Generations, Quick: r.Quick,
		}, nil, tune.Hooks{})
		if err != nil {
			return err
		}
		converged := 0.0
		if res.Converged {
			converged = 1
		}
		// The daemon's tune values, as serve's scheduler names them.
		return sameValues(f.values, map[string]float64{
			"bestScore": res.BestScore, "bestP99Us": res.BestEval.P99Us, "bestMeanUs": res.BestEval.MeanUs,
			"bestJoulesReq": res.BestEval.JoulesPerReq, "bestRPS": res.BestEval.ThroughputRPS,
			"generations": float64(res.Generations), "evals": float64(res.Evals),
			"cacheHits": float64(res.CacheHits), "converged": converged,
		}, nil)
	}
	return fmt.Errorf("unknown job type %q", r.Type)
}

// sameValues compares a job's canonical values with a direct run's.
func sameValues(got []byte, values map[string]float64, lines []string) error {
	want, err := json.Marshal(struct {
		Values map[string]float64 `json:"values"`
		Lines  []string           `json:"lines"`
	}{values, lines})
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("values differ:\n daemon %s\n direct %s", got, want)
	}
	return nil
}

// cacheStats reads the daemon's result-cache counters.
func (c *apiClient) cacheStats() (serve.CacheStats, error) {
	body, err := c.get("/v1/cache")
	if err != nil {
		return serve.CacheStats{}, err
	}
	var v struct {
		Stats serve.CacheStats `json:"stats"`
	}
	err = json.Unmarshal(body, &v)
	return v.Stats, err
}

// layer reads the serve metrics of the measured jobs: client-side
// span medians, queue and execution times from the daemon's own job
// timestamps, the cache hit ratio, resident-set growth per job, and
// the sweep cells the jobs' progress streams reported.
func (s *daemonSession) layer(rec *recorder, w window) (map[string]metric, error) {
	cl := s.callers[0]
	body, err := cl.get("/v1/jobs")
	if err != nil {
		return nil, err
	}
	var list struct {
		Jobs []serve.JobView `json:"jobs"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		return nil, err
	}
	var queue []float64
	exec := map[string][]float64{}
	for _, v := range list.Jobs {
		if _, ok := s.jobTypes[v.ID]; ok {
			queue = append(queue, ms(v.StartedAt.Sub(v.SubmittedAt)))
			exec[v.Type] = append(exec[v.Type], ms(v.FinishedAt.Sub(v.StartedAt)))
		}
	}
	cache, err := cl.cacheStats()
	if err != nil {
		return nil, err
	}
	hits, misses := cache.Hits-s.cache0.Hits, cache.Misses-s.cache0.Misses
	rss, err := procStatusKB(s.srv.pid(), "VmRSS")
	if err != nil {
		return nil, err
	}
	jobs := len(s.jobTypes)
	spans := rec.durations()
	m := map[string]metric{
		"serve.submit_ms_p50":     summary(spans["serve.submit"]),
		"serve.artifact_ms_p50":   summary(spans["serve.artifact.trace"]),
		"serve.queue_ms_p50":      summary(queue),
		"serve.cache_hit_ratio":   {value: float64(hits) / float64(max(hits+misses, 1)), n: int(hits + misses)},
		"serve.rss_kb_per_job":    {value: (rss - s.rss0) / float64(max(jobs, 1)), n: jobs},
		"experiments.cells_per_s": {value: float64(s.cells) / w.elapsed.Seconds(), n: s.cells},
	}
	for _, typ := range []string{serve.JobObserved, serve.JobExperiment, serve.JobTune} {
		m["serve.exec_ms_p50."+typ] = summary(exec[typ])
	}
	return m, nil
}

// summary reports the median of xs with its sample count.
func summary(xs []float64) metric {
	s := stats.Summarize(xs)
	return metric{value: s.Median, n: s.N}
}
