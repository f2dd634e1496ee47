package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"accelflow/bench/stats"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the layer's public API. Op names the run or job the call
// belongs to; Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Op     string        `json:"op"`
	Start  time.Duration `json:"start_ns"` // since the recorder started
	End    time.Duration `json:"end_ns"`   // -1 while open
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how untraced runs skip it.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil recorder).
func (r *recorder) begin(name string, parent int, op string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Op: op, Start: now, End: -1})
	return id
}

// end closes a span opened by begin.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
}

// write saves the spans as JSON to path, creating its directory.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	r.mu.Lock()
	b, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// durations returns the closed spans' durations in milliseconds, by
// span name.
func (r *recorder) durations() map[string][]float64 {
	out := map[string][]float64{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if s.End >= 0 {
			out[s.Name] = append(out[s.Name], ms(s.End-s.Start))
		}
	}
	return out
}

// spanStat is one row of the span summary: how often a layer was
// called, its total time, and its self time (total minus the time its
// child spans cover).
type spanStat struct {
	Name            string
	N               int
	TotalMs, SelfMs float64
	MedianMs        float64
}

// summary folds the spans by name. Child spans of one parent run one
// after another, so a parent's self time is its duration minus the sum
// of its children's.
func (r *recorder) summary() []spanStat {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	childMs := make([]float64, len(r.spans)+1)
	for _, s := range r.spans {
		if s.Parent != 0 && s.End >= 0 {
			childMs[s.Parent] += ms(s.End - s.Start)
		}
	}
	byName := map[string]*spanStat{}
	durs := map[string][]float64{}
	for _, s := range r.spans {
		if s.End < 0 {
			continue
		}
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
		}
		d := ms(s.End - s.Start)
		st.N++
		st.TotalMs += d
		st.SelfMs += max(d-childMs[s.ID], 0)
		durs[s.Name] = append(durs[s.Name], d)
	}
	out := make([]spanStat, 0, len(byName))
	for name, st := range byName {
		st.MedianMs = stats.Median(durs[name])
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// repoPackages are the repository's packages that get a CPU bucket of
// their own; its other packages (config, services, energy) fold into
// "other".
var repoPackages = []string{
	"sim", "engine", "accel", "noc", "mem", "atm", "trace", "metrics", "workload",
	"experiments", "obs", "check", "control", "fault", "serve", "tune",
}

// cpuPackages are the buckets CPU samples fold into: repoPackages, the
// Go runtime, networking (net, net/http, syscalls and the poller),
// encoding/*, and everything else.
var cpuPackages = append(append([]string(nil), repoPackages...), "runtime", "net", "encoding", "other")

// packageBucket maps a profiled function name, as `go tool pprof -top`
// prints it, to its cpuPackages bucket.
func packageBucket(fn string) string {
	// The package path ends at the first '.' after the last '/' that
	// precedes any receiver or type-parameter list.
	head := fn
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/')
	pkg := head
	if dot := strings.IndexByte(head[slash+1:], '.'); dot >= 0 {
		pkg = head[:slash+1+dot]
	}
	if rest, ok := strings.CutPrefix(pkg, "accelflow/internal/"); ok {
		name, _, _ := strings.Cut(rest, "/")
		for _, p := range repoPackages {
			if p == name {
				return p
			}
		}
		return "other"
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || pkg == "syscall" || pkg == "internal/poll":
		return "net"
	case strings.HasPrefix(pkg, "encoding/"):
		return "encoding"
	}
	return "other"
}

// foldTop folds the text of `go tool pprof -top` into per-bucket
// shares of the total flat time, in percent. Every bucket is present;
// the shares sum to 100 when the profile holds any samples.
func foldTop(text string) (map[string]float64, error) {
	flat := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(strings.NewReader(text))
	inTable := false
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(fields) >= 5 && fields[0] == "flat" && fields[1] == "flat%"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		d, err := parsePprofDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("pprof -top line %q: %w", sc.Text(), err)
		}
		flat[packageBucket(strings.Join(fields[5:], " "))] += d
		total += d
	}
	if !inTable {
		return nil, fmt.Errorf("pprof -top output has no table header")
	}
	shares := make(map[string]float64, len(cpuPackages))
	for _, p := range cpuPackages {
		if total > 0 {
			shares[p] = 100 * flat[p] / total
		} else {
			shares[p] = 0
		}
	}
	return shares, nil
}

// parsePprofDuration reads pprof's compact durations ("0", "10ms",
// "1.20s", "2.5mins") as seconds.
func parsePprofDuration(s string) (float64, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"mins", 60}, {"min", 60}, {"hrs", 3600}, {"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1}}
	for _, u := range units {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			return v * u.scale, err
		}
	}
	return strconv.ParseFloat(s, 64)
}

// cpuProfile records a runtime/pprof CPU profile between start and
// stop, and folds it by package with `go tool pprof -top`.
type cpuProfile struct {
	buf bytes.Buffer
}

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns the per-package CPU shares of the
// samples taken outside calibrate, whose reference loop is the
// benchmark's own work.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	f, err := os.CreateTemp("", "bench-cpu-*.pb.gz")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	if _, err := f.Write(p.buf.Bytes()); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodefraction=0", `-ignore=^main\.(calibrate|refLoop)`, f.Name()).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -top: %w", err)
	}
	return foldTop(string(out))
}

// runtimeSampler tracks the Go runtime's GC CPU share and the peak
// live-heap size of this process while it runs.
type runtimeSampler struct {
	stop chan struct{}
	done chan struct{}

	mu       sync.Mutex
	heapPeak uint64

	gc0, total0 float64
}

var runtimeMetricNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func readRuntimeMetrics() (gc, total float64, heap uint64) {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64()
}

// startRuntimeSampler samples the heap every 10 ms until stopped.
func startRuntimeSampler() *runtimeSampler {
	rs := &runtimeSampler{stop: make(chan struct{}), done: make(chan struct{})}
	rs.gc0, rs.total0, rs.heapPeak = readRuntimeMetrics()
	go func() {
		defer close(rs.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-rs.stop:
				return
			case <-t.C:
				_, _, heap := readRuntimeMetrics()
				rs.mu.Lock()
				rs.heapPeak = max(rs.heapPeak, heap)
				rs.mu.Unlock()
			}
		}
	}()
	return rs
}

// finish stops the sampler and returns the GC share of CPU time and
// the peak heap in MiB since it started.
func (rs *runtimeSampler) finish() (gcFrac, heapPeakMB float64) {
	close(rs.stop)
	<-rs.done
	gc, total, heap := readRuntimeMetrics()
	rs.mu.Lock()
	defer rs.mu.Unlock()
	peak := max(rs.heapPeak, heap)
	if d := total - rs.total0; d > 0 {
		gcFrac = (gc - rs.gc0) / d
	}
	return gcFrac, float64(peak) / (1 << 20)
}

// procStatusKB reads one "<field>: <n> kB" line of /proc/<pid>/status
// ("self" for this process), such as VmHWM (peak resident set) or
// VmRSS.
func procStatusKB(pid, field string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("/proc/%s/status has no %s", pid, field)
}

// resetPeakRSS resets the peak resident set (VmHWM) of process pid to
// its current resident set.
func resetPeakRSS(pid string) error {
	return os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux ABI Go supports.
const clockTicks = 100

// procCPU returns the user+system CPU time /proc/<pid>/stat reports.
func procCPU(pid string) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after its
	// closing parenthesis are space-separated, utime and stime being
	// the 14th and 15th fields overall.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%s/stat: too few fields", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%s/stat: bad cpu times", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
