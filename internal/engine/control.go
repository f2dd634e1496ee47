package engine

import (
	"accelflow/internal/config"
	"accelflow/internal/control"
)

// ControlPools exposes the engine's scalable capacity pools to the
// dynamic-control subsystem as actuators: the core pool for
// control.TargetCores, every accelerator kind's PE pool otherwise (the
// target is already validated by control.Spec.Validate). Scaling sets
// each pool's nominal level; fault windows hold servers offline on the
// same sim.Resource, so the two compose there without wiring between
// the controller and the injector.
func (e *Engine) ControlPools(target string) []control.Pool {
	if target == control.TargetCores {
		return []control.Pool{{Res: e.Cores, Base: e.Cores.Nominal()}}
	}
	pools := make([]control.Pool, 0, config.NumAccelKinds)
	for _, kd := range config.AllAccelKinds() {
		if a := e.Accels[kd]; a != nil {
			pools = append(pools, control.Pool{Res: a.PEs, Base: a.PEs.Nominal()})
		}
	}
	return pools
}
