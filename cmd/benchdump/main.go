// Command benchdump runs the repo's curated benchmark subset and emits
// a schema-versioned BENCH_<date>.json snapshot: ns/op, allocs/op, and
// the derived trajectory metrics (ns/event, events/sec, allocs/request)
// per benchmark, plus host metadata. The committed snapshots form the
// performance trajectory the ROADMAP asks for; CI reruns benchdump in
// compare mode (-against) with a generous gate to catch
// order-of-magnitude regressions. The gate only applies between hosts
// with matching CPU counts — parallel-scaling numbers from a 1-core
// container and a multicore runner are not comparable, so a mismatch
// warns and skips the gate instead of emitting false verdicts.
//
// Usage:
//
//	go run ./cmd/benchdump                      # measure, write BENCH_<today>.json
//	go run ./cmd/benchdump -out BENCH_x.json -baseline BENCH_prev.json
//	go run ./cmd/benchdump -against BENCH_x.json -gate 3   # CI regression check
//	go test -run '^$' -bench ... -benchmem . | go run ./cmd/benchdump -input -
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"time"

	"accelflow/internal/benchfmt"
)

// defaultBench is the curated subset: the single-run pairs that guard
// the nil-observer/nil-checker/nil-controller fast paths, the serial
// sweep, the sharded fleet scaling curve, and the end-to-end serving
// round trip. Small enough to run on every CI push, load-bearing
// enough to anchor every speed claim. BenchmarkRunSharded expands to
// one snapshot entry per fleet worker count (RunSharded/shards=N, N
// being FleetSpec.Workers), so the trajectory records the whole
// scaling curve, not one point.
const defaultBench = "^(BenchmarkRunObsDisabled|BenchmarkRunObsEnabled|BenchmarkRunCheckDisabled|BenchmarkRunControlledDisabled|BenchmarkRunControlledEnabled|BenchmarkRunSharded|BenchmarkSweepSerial|BenchmarkServeSubmitQuick|BenchmarkServeSubmitCached)$"

func main() {
	var (
		out       = flag.String("out", "", "output snapshot path (default BENCH_<date>.json; empty in -against mode skips writing)")
		benchRe   = flag.String("bench", defaultBench, "benchmark regexp passed to go test -bench")
		benchtime = flag.String("benchtime", "3x", "go test -benchtime per benchmark")
		count     = flag.Int("count", 3, "go test -count; the minimum ns/op run is kept")
		pkg       = flag.String("pkg", ".", "package dir holding the benchmarks")
		input     = flag.String("input", "", "parse existing `go test -bench` output from this file ('-' = stdin) instead of running go test")
		baseline  = flag.String("baseline", "", "previous snapshot to embed as the baseline trajectory point")
		against   = flag.String("against", "", "committed snapshot to gate against; regressions exit nonzero")
		gate      = flag.Float64("gate", 3.0, "regression gate: fail when current ns/op > gate * committed ns/op")
		date      = flag.String("date", "", "snapshot date stamp (default today, UTC)")
	)
	flag.Parse()
	if err := run(*out, *benchRe, *benchtime, *count, *pkg, *input, *baseline, *against, *gate, *date); err != nil {
		fmt.Fprintln(os.Stderr, "benchdump:", err)
		os.Exit(1)
	}
}

func run(out, benchRe, benchtime string, count int, pkg, input, baseline, against string, gate float64, date string) error {
	raw, err := benchOutput(input, benchRe, benchtime, count, pkg)
	if err != nil {
		return err
	}
	snap, err := benchfmt.ParseTestOutput(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	if date == "" {
		date = time.Now().UTC().Format("2006-01-02")
	}
	snap.Date = date
	snap.Host.GoVersion = runtime.Version()
	snap.Host.OS = runtime.GOOS
	snap.Host.Arch = runtime.GOARCH
	snap.Host.CPUs = runtime.NumCPU()

	if baseline != "" {
		prev, err := decodeFile(baseline)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		snap.SetBaseline(prev)
	}

	if out == "" && against == "" {
		out = "BENCH_" + date + ".json"
	}
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if err := snap.Encode(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d benchmarks)\n", out, len(snap.Benchmarks))
	}
	summarize(snap)

	if against != "" {
		committed, err := decodeFile(against)
		if err != nil {
			return fmt.Errorf("against: %w", err)
		}
		if ok, reason := snap.Host.ComparableTo(committed.Host); !ok {
			// A cross-host gate emits false verdicts (e.g. a 1-core
			// container vs a multicore runner); warn and skip rather
			// than fail or vacuously pass.
			fmt.Fprintf(os.Stderr, "benchdump: WARNING: skipping regression gate against %s: %s\n", against, reason)
			return nil
		}
		if regs := benchfmt.Compare(snap, committed, gate); len(regs) > 0 {
			for _, r := range regs {
				fmt.Fprintln(os.Stderr, "REGRESSION", r)
			}
			return fmt.Errorf("%d benchmark(s) exceeded the %.1fx gate vs %s", len(regs), gate, against)
		}
		fmt.Printf("all benchmarks within %.1fx of %s\n", gate, against)
	}
	return nil
}

// benchOutput produces the raw `go test -bench` text: either from the
// -input file/stdin, or by running go test on the benchmark package.
func benchOutput(input, benchRe, benchtime string, count int, pkg string) ([]byte, error) {
	if input != "" {
		if input == "-" {
			return io.ReadAll(os.Stdin)
		}
		return os.ReadFile(input)
	}
	args := []string{"test", "-run", "^$", "-bench", benchRe, "-benchmem",
		"-benchtime", benchtime, "-count", fmt.Sprint(count), pkg}
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go %v: %w\n%s", args, err, outBytes)
	}
	return outBytes, nil
}

func decodeFile(path string) (*benchfmt.Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return benchfmt.Decode(f)
}

// summarize prints the trajectory headline per benchmark, with the
// speedup column when a baseline is embedded.
func summarize(s *benchfmt.Snapshot) {
	for _, b := range s.Benchmarks {
		line := fmt.Sprintf("  %-22s %12.0f ns/op", b.Name, b.NsPerOp)
		if b.EventsPerSec > 0 {
			line += fmt.Sprintf("  %9.0f events/sec  %6.1f ns/event", b.EventsPerSec, b.NsPerEvent)
		}
		if b.AllocsPerRequest > 0 {
			line += fmt.Sprintf("  %7.1f allocs/req", b.AllocsPerRequest)
		}
		if sp, ok := s.Speedup[b.Name]; ok {
			line += fmt.Sprintf("  %5.2fx vs baseline", sp)
		}
		fmt.Println(line)
	}
}
