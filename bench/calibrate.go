package main

import (
	"container/heap"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"

	"accelflow/bench/stats"
)

// The benchmark's host shares its CPUs and memory system with other
// tenants, and its speed drifts by 10-20% over minutes: the same
// simulation run takes 36 ms at one time of day and 50 ms at another,
// and a fixed loop of plain Go work slows by the same factor. Two
// effects are at work, and each is measured on its own:
//
//   - Contention for caches and memory makes every instruction slower,
//     so CPU time and wall time grow together. Every measured window
//     times refLoop — work that touches no repository code — with no
//     operation in flight, and times are reported at the host speed at
//     which refLoop uses refNominalMs of CPU.
//   - Steal, the hypervisor running another guest on one of ours,
//     stretches wall time only: the kernel charges stolen time to no
//     process. Wall-clock times are also multiplied by the share of
//     CPU time the guest kept over the same interval (hostTicks).
//
// That halves the run-to-run spread and keeps a change of host speed
// between two sets of runs from reading as a regression or a gain.

// refNominalMs is refLoop's CPU time on the quiet 2-vCPU host the
// benchmark was written on. It only fixes the scale of the
// normalized times; any constant would do.
const refNominalMs = 8.0

// refReps is how many times refLoop runs at each calibration point.
const refReps = 4

// refEvents is how many events one refLoop executes.
const refEvents = 25_000

type refEvent struct {
	at int64
	fn func()
}

// refQueue is a container/heap priority queue of refEvents.
type refQueue struct {
	events []refEvent
	now    int64
}

func (q *refQueue) Len() int           { return len(q.events) }
func (q *refQueue) Less(i, j int) bool { return q.events[i].at < q.events[j].at }
func (q *refQueue) Swap(i, j int)      { q.events[i], q.events[j] = q.events[j], q.events[i] }
func (q *refQueue) Push(x any)         { q.events = append(q.events, x.(refEvent)) }
func (q *refQueue) Pop() any {
	e := q.events[len(q.events)-1]
	q.events = q.events[:len(q.events)-1]
	return e
}

// refSink keeps refLoop's result live so the compiler cannot drop the
// work.
var refSink int

// refLoop runs a small discrete-event loop — a priority queue of
// closures, each allocating a little and scheduling a successor, the
// shape of the simulator's own work — built only from the standard
// library, and returns the CPU time it took in milliseconds. Of the
// loops tried (map updates with sorting and allocation, a large map, a
// pointer chase through 4 MB), this one tracked the simulator's speed
// best: the ratio of the two drifted 4.6% across 5 s windows while
// either alone drifted 12%.
func refLoop() (float64, error) {
	cpu0, err := processCPU()
	if err != nil {
		return 0, err
	}
	rng := rand.New(rand.NewSource(1))
	q := &refQueue{}
	count := 0
	var event func() func()
	event = func() func() {
		state := make([]byte, 32)
		return func() {
			count++
			state[0]++
			if count < refEvents {
				heap.Push(q, refEvent{at: q.now + int64(rng.Intn(1000)), fn: event()})
			}
		}
	}
	for i := 0; i < 300; i++ {
		heap.Push(q, refEvent{at: int64(rng.Intn(1000)), fn: event()})
	}
	for q.Len() > 0 {
		e := heap.Pop(q).(refEvent)
		q.now = e.at
		e.fn()
	}
	refSink = count
	cpu1, err := processCPU()
	if err != nil {
		return 0, err
	}
	return ms(cpu1 - cpu0), nil
}

// processCPU returns the CPU time this process has used. The kernel
// brings the running thread's time up to date before it answers, so
// unlike /proc's clock ticks it resolves an 8 ms loop.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// calibrate runs refLoop refReps times, appends its CPU times to refMs,
// and returns their median.
func calibrate(refMs *[]float64) (float64, error) {
	var rep []float64
	for i := 0; i < refReps; i++ {
		t, err := refLoop()
		if err != nil {
			return 0, err
		}
		rep = append(rep, t)
	}
	*refMs = append(*refMs, rep...)
	return stats.Median(rep), nil
}

// nominalScale is the factor that takes a CPU time measured between two
// calibrations, whose medians were before and after, to the nominal
// host speed.
func nominalScale(before, after float64) float64 {
	return 2 * refNominalMs / (before + after)
}

// stealMeter measures the share of the host's CPU time the hypervisor
// stole over an interval.
type stealMeter struct{ steal, total float64 }

func startSteal() (stealMeter, error) {
	steal, total, err := hostTicks()
	return stealMeter{steal, total}, err
}

// share returns the stolen share of CPU time since the meter started.
func (m stealMeter) share() (float64, error) {
	steal, total, err := hostTicks()
	if err != nil || total <= m.total {
		return 0, err
	}
	return (steal - m.steal) / (total - m.total), nil
}

// hostTicks returns, summed over every CPU, the clock ticks the
// hypervisor stole from this guest and all ticks, from the first line
// of /proc/stat (user nice system idle iowait irq softirq steal ...).
func hostTicks() (steal, total float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return 0, 0, fmt.Errorf("/proc/stat: %w", err)
		}
		total += v
		steal = v // the 8th counter is steal
	}
	return steal, total, nil
}

// quiesce waits until the process pid has used no CPU for 50 ms, or
// for at most 2 s, so that the reference loop does not share the host
// with work an operation left behind (accelsimd renders a finished
// observed job's artifacts into its cache after the client has seen
// the job end).
func quiesce(pid string) error {
	last, err := procCPU(pid)
	if err != nil {
		return err
	}
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		time.Sleep(50 * time.Millisecond)
		now, err := procCPU(pid)
		if err != nil {
			return err
		}
		if now == last {
			return nil
		}
		last = now
	}
	return nil
}
