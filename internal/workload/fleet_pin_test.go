package workload

import (
	"testing"

	"accelflow/internal/config"
	"accelflow/internal/control"
	"accelflow/internal/engine"
	"accelflow/internal/sim"
)

// fleetPin is everything a change to server assembly or completion
// accounting could move in a fleet result: the worker-invariance
// fingerprint plus the Net recorder, the per-service recorders, the
// summed breakdown, ingress sheds and the controller's counters.
type fleetPin struct {
	fp         fleetFingerprint
	netMean    sim.Time
	netP99     sim.Time
	perService int
	breakdown  engine.Breakdown
	shed       uint64
	control    control.Stats
}

func pinOf(t *testing.T, res *FleetResult) fleetPin {
	t.Helper()
	p := fleetPin{
		fp:        fingerprint(t, res),
		netMean:   res.Merged.Net.Mean(),
		netP99:    res.Merged.Net.P99(),
		breakdown: res.Merged.Breakdown,
		shed:      res.Shed,
	}
	for _, rec := range res.Merged.PerService {
		p.perService += rec.Count()
	}
	if res.Control != nil {
		p.control = *res.Control
	}
	return p
}

// TestFleetPinnedOutput pins literal fleet results so that a refactor
// of how servers are assembled or how completions are recorded cannot
// drift fleet output unnoticed: the worker-invariance tests only
// compare a fleet with itself. The wanted values are the simulator's
// output for these specs; regenerate them only for an intended model
// change.
func TestFleetPinnedOutput(t *testing.T) {
	cases := []struct {
		name string
		spec *FleetSpec
		want fleetPin
	}{
		{"rr", fleetSpec(4, 240, 0, "rr"), fleetPin{
			fp: fleetFingerprint{mean: 71807822, p99: 234493520, p50: 61355413,
				completed: 240, accels: 5291, events: 20578, epochs: 42, mail: 240, elapsed: 397909754,
				routed: [8]uint64{60, 60, 60, 60}, perReplica: [8]uint64{60, 60, 60, 60}},
			netMean: 35178377, netP99: 103841411, perService: 240,
			breakdown: engine.Breakdown{CPU: 5143000000, Accel: 4112888418, Orch: 148039634,
				Comm: 883681459, Remote: 10507443541, App: 5143000000},
		}},
		{"least", fleetSpec(4, 240, 0, "least"), fleetPin{
			fp: fleetFingerprint{mean: 71475687, p99: 214653667, p50: 61950195,
				completed: 240, accels: 5294, events: 20805, epochs: 41, mail: 480, elapsed: 378255710,
				routed: [8]uint64{60, 61, 60, 59}, perReplica: [8]uint64{60, 61, 60, 59}},
			netMean: 35178361, netP99: 94658711, perService: 240,
			breakdown: engine.Breakdown{CPU: 5143000000, Accel: 4102515032, Orch: 144814959,
				Comm: 875567152, Remote: 10493438971, App: 5143000000},
		}},
		{"controlled", controlledFleetSpec(0), fleetPin{
			fp: fleetFingerprint{mean: 78542200, p99: 244154344, p50: 63941029,
				completed: 118, accels: 2755, events: 10933, epochs: 40, mail: 236, elapsed: 400000000,
				routed: [8]uint64{30, 30, 29, 29}, perReplica: [8]uint64{30, 30, 29, 29}},
			netMean: 36863223, netP99: 106676903, perService: 118,
			breakdown: engine.Breakdown{CPU: 2722000000, Accel: 2227302474, Orch: 64464593,
				Comm: 461449723, Remote: 5832935625, App: 2722000000},
			shed:    122,
			control: control.Stats{Ticks: 8, ShedQueue: 122},
		}},
		{"faults+check", faultedFleetSpec(0), fleetPin{
			fp: fleetFingerprint{mean: 74603159, p99: 229813067, p50: 61766097,
				completed: 150, fellBack: 16, accels: 3309, events: 31095, epochs: 15468, mail: 150,
				elapsed: 999987210659, routed: [8]uint64{50, 50, 50}, perReplica: [8]uint64{50, 50, 50}},
			netMean: 36122085, netP99: 111803384, perService: 150,
			breakdown: engine.Breakdown{CPU: 3374406000, Accel: 2610086210, Orch: 76508160,
				Comm: 534842000, Remote: 6855271074, App: 3245000000,
				Tax: [config.NumAccelKinds]sim.Time{7: 91606000, 8: 37800000}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.spec.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got := pinOf(t, res); got != tc.want {
				t.Errorf("fleet output drifted:\n got %#v\nwant %#v", got, tc.want)
			}
		})
	}
}
