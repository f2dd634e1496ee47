package workload

import (
	"testing"

	"accelflow/internal/config"
	"accelflow/internal/engine"
	"accelflow/internal/services"
	"accelflow/internal/sim"
)

// fleetPin is everything a change to server assembly or completion
// accounting could move in a fleet result: the worker-invariance
// fingerprint plus the Net recorder, the per-service recorders and the
// summed breakdown.
type fleetPin struct {
	fp         fleetFingerprint
	netMean    sim.Time
	netP99     sim.Time
	perService int
	breakdown  engine.Breakdown
}

func pinOf(t *testing.T, res *FleetResult) fleetPin {
	t.Helper()
	p := fleetPin{
		fp:        fingerprint(t, res),
		netMean:   res.Merged.Net.Mean(),
		netP99:    res.Merged.Net.P99(),
		breakdown: res.Merged.Breakdown,
	}
	for _, rec := range res.Merged.PerService {
		p.perService += rec.Count()
	}
	return p
}

// TestFleetPinnedOutput pins literal fleet results so that a refactor
// of how servers are assembled or how completions are recorded cannot
// drift fleet output unnoticed: the worker-invariance tests only
// compare a fleet with itself. The wanted values are the simulator's
// output for these specs; regenerate them only for an intended model
// change. "bench" is the repository benchmark's sim-parallel fleet.
func TestFleetPinnedOutput(t *testing.T) {
	cases := []struct {
		name string
		spec *FleetSpec
		want fleetPin
	}{
		{"rr", fleetSpec(4, 240), fleetPin{
			fp: fleetFingerprint{mean: 71807822, p99: 234493520, p50: 61355413,
				completed: 240, accels: 5291, events: 20338, elapsed: 397909754,
				perReplica: [8]uint64{60, 60, 60, 60}},
			netMean: 35178377, netP99: 103841411, perService: 240,
			breakdown: engine.Breakdown{CPU: 5143000000, Accel: 4112888418, Orch: 148039634,
				Comm: 883681459, Remote: 10507443541, App: 5143000000},
		}},
		{"faults+check", faultedFleetSpec(), fleetPin{
			fp: fleetFingerprint{mean: 74603159, p99: 229813067, p50: 61766097,
				completed: 150, fellBack: 16, accels: 3309, events: 30945, elapsed: 999987210659, perReplica: [8]uint64{50, 50, 50}},
			netMean: 36122085, netP99: 111803384, perService: 150,
			breakdown: engine.Breakdown{CPU: 3374406000, Accel: 2610086210, Orch: 76508160,
				Comm: 534842000, Remote: 6855271074, App: 3245000000,
				Tax: [config.NumAccelKinds]sim.Time{7: 91606000, 8: 37800000}},
		}},
		{"bench", &FleetSpec{Config: config.Default(), Policy: engine.AccelFlow(),
			Sources: Mix(services.SocialNetwork(), 8, 9000), Seed: 1, Replicas: 8}, fleetPin{
			fp: fleetFingerprint{mean: 71821090, p99: 221089876, p50: 60891640,
				completed: 9000, fellBack: 1, accels: 198057, events: 762396, elapsed: 10374269321,
				perReplica: [8]uint64{1125, 1125, 1125, 1125, 1125, 1125, 1125, 1125}},
			netMean: 35449100, netP99: 98862152, perService: 9000,
			breakdown: engine.Breakdown{CPU: 192551265120, Accel: 155600390257, Orch: 5579112222,
				Comm: 33223295826, Remote: 391869183331, App: 192535000000,
				Tax: [config.NumAccelKinds]sim.Time{0: 3987200, 1: 2060800, 3: 797920, 4: 2820000, 6: 6599200}},
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
