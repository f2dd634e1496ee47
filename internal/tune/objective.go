package tune

import (
	"fmt"

	"accelflow/internal/config"
	"accelflow/internal/energy"
	"accelflow/internal/workload"
)

// Eval is one candidate's measured outcome: the objective score (lower
// is better) plus the raw metrics it was derived from. The search's
// memo stores it by value, so it stays a plain struct of scalars.
type Eval struct {
	Score         float64 `json:"score"`
	P99Us         float64 `json:"p99us"`
	MeanUs        float64 `json:"meanUs"`
	Completed     uint64  `json:"completed"`
	JoulesPerReq  float64 `json:"joulesPerReq"`
	ThroughputRPS float64 `json:"throughputRps"`
}

// objectiveNames lists the wire names, in report order.
var objectiveNames = []string{"p99", "energy", "costperf"}

// scoreObjective reduces one run's metrics to the named objective's
// scalar. All objectives are minimized:
//
//   - "p99": on-server p99 latency in microseconds, plus a steep
//     penalty (100x the overshoot) once it exceeds the SLO — "lowest
//     tail that still meets the SLO".
//   - "energy": joules per completed request.
//   - "costperf": a silicon-cost proxy (chiplet count and total PE
//     provisioning) divided by delivered throughput — cost-weighted
//     throughput inverted so that lower is better.
func scoreObjective(name string, cfg *config.Config, res *workload.RunResult, ev Eval, sloUs float64) (float64, error) {
	switch name {
	case "p99":
		over := ev.P99Us - sloUs
		if over < 0 {
			over = 0
		}
		return ev.P99Us + 100*over, nil
	case "energy":
		return ev.JoulesPerReq * 1e3, nil
	case "costperf":
		cost := 1 + 0.25*float64(cfg.Chiplets) + float64(cfg.TotalPEs())/float64(config.NumAccelKinds)
		if ev.ThroughputRPS <= 0 {
			return 0, fmt.Errorf("tune: costperf objective with zero throughput")
		}
		return 1e6 * cost / ev.ThroughputRPS, nil
	case "":
		return 0, fmt.Errorf("tune: objective is required (p99, energy, or costperf)")
	default:
		return 0, fmt.Errorf("tune: unknown objective %q (want p99, energy, or costperf)", name)
	}
}

// validObjective reports whether name is a known objective.
func validObjective(name string) bool {
	for _, n := range objectiveNames {
		if n == name {
			return true
		}
	}
	return false
}

// measure reduces one finished run to an Eval (score filled by the
// caller via scoreObjective). Latencies use the on-server Net recorder
// so the objective is not dominated by the modeled far side of nested
// RPCs, matching the SLO comparisons elsewhere in the repo.
func measure(res *workload.RunResult, rep energy.Report) Eval {
	ev := Eval{
		P99Us:     res.Net.P99().Micros(),
		MeanUs:    res.Net.Mean().Micros(),
		Completed: res.Completed,
	}
	if secs := res.Elapsed.Seconds(); secs > 0 {
		ev.ThroughputRPS = float64(res.Completed) / secs
	}
	if res.Completed > 0 {
		ev.JoulesPerReq = rep.TotalJ() / float64(res.Completed)
	}
	return ev
}
