package engine

import (
	"fmt"

	"accelflow/internal/accel"
	"accelflow/internal/config"
	"accelflow/internal/noc"
	"accelflow/internal/obs"
	"accelflow/internal/sim"
	"accelflow/internal/trace"
)

// waitKind names the callback an entry's fn is waiting for.
type waitKind uint8

const (
	waitPickup   waitKind = iota // polling delay before a core engagement
	waitHold                     // an engagement's resource hold
	waitMem                      // a DRAM leg
	waitDMA                      // an A-DMA transfer
	waitBackoff                  // the Enqueue retry backoff
	waitFork                     // a forked trace's ATM read
	waitATM                      // a tail's ATM read
	waitRemote                   // the mediator path's remote wait
	waitArm                      // an armed response trace's TCP timeout
	waitLost                     // a lost response after an arm rejection
	waitSoftware                 // a response a core services after an arm rejection
	waitNotify                   // the completion notification to the core
)

// action is what an entry does once its pending engagement and memory
// legs are over. The output-dispatcher outcomes (hop, tail, end, the
// two mediator bounces) are actions too, so a glue pass is an
// engagement of the accelerator's output dispatcher.
type action uint8

const (
	doDeliver         action = iota // deliver(ent, fromDispatcher)
	doAdmit                         // admit(a, ent, fromDispatcher)
	doOffer                         // offer(a, ent, fromDispatcher)
	doWalk                          // walk(a, ent, pc, 0)
	doLoadTail                      // loadTail(a, ent, tail, true)
	doFinish                        // finishFin(a, ent)
	doNotify                        // notifyCore(ent)
	doDMA                           // DMA from core 0 to the target, then deliver
	doManagerDispatch               // RELIEF Enqueue: the manager dispatches the chain
	doHop                           // hop(a, ent)
	doTail                          // handleTail(a, ent, tail)
	doEnd                           // finishTrace(a, ent)
	doMedBranch                     // a branch the mediator resolves
	doMedTrans                      // a transform the mediator performs
)

// plan sets what the entry does after its next engagement: move legs
// DRAM transfers of legBytes each, then run then.
func (ent *entryState) plan(then action, fromDispatcher bool, legs, legBytes int) {
	ent.then, ent.fromDispatcher = then, fromDispatcher
	ent.legs, ent.legBytes = legs, legBytes
}

// engage holds res for hold. When the hold ends, the time since now is
// charged to Breakdown.Orch and recorded as a wait segment plus a seg
// segment on name, and the entry continues with its plan.
func (e *Engine) engage(ent *entryState, res *sim.Resource, name string, seg obs.SegKind, hold sim.Time) {
	ent.wait = waitHold
	ent.name, ent.seg = name, seg
	ent.t0, ent.hold = e.K.Now(), hold
	res.Do(hold, ent.fn)
}

// pollCores is a core engagement behind a polling delay: a core
// notices the entry only after delay, which is charged to the
// engagement as wait time.
func (e *Engine) pollCores(ent *entryState, delay sim.Time, seg obs.SegKind, hold sim.Time) {
	ent.wait = waitPickup
	ent.name, ent.seg = "cores", seg
	ent.t0, ent.hold = e.K.Now(), hold
	e.K.After(delay, ent.fn)
}

// step runs when what the entry waits for is over. Every case reads
// the fields it needs before it calls on: the call may schedule the
// entry's next continuation, which overwrites them.
func (ent *entryState) step() {
	e := ent.eng
	now := e.K.Now()
	switch ent.wait {
	case waitPickup:
		ent.wait = waitHold
		e.Cores.Do(ent.hold, ent.fn)
	case waitHold:
		ent.chain.req.bd.Orch += now - ent.t0
		ent.sp.QueuedSeg(ent.seg, ent.name, ent.t0, ent.hold)
		if len(ent.forks) > 0 {
			forks := ent.forks
			for _, fn := range forks {
				e.spawnFork(ent.a, ent, fn)
			}
			ent.forks = forks[:0]
		}
		if ent.legs > 0 {
			ent.wait = waitMem
			ent.t0 = now
			e.Mem.Transfer(ent.legBytes, ent.fn)
			return
		}
		e.act(ent)
	case waitMem:
		ent.legs--
		if ent.legs > 0 {
			e.Mem.Transfer(ent.legBytes, ent.fn)
			return
		}
		ent.chain.req.bd.Comm += now - ent.t0
		ent.sp.Seg(obs.SegDMA, "dram", ent.t0, now)
		e.act(ent)
	case waitDMA:
		ent.chain.req.bd.Comm += now - ent.t0
		e.act(ent)
	case waitBackoff:
		e.engage(ent, e.Cores, "cores", obs.SegDispatch, e.Cfg.EnqueueCost)
	case waitFork:
		e.resumeProgram(ent.a, ent)
	case waitATM:
		e.tailLoaded(ent)
	case waitRemote:
		ent.plan(doDeliver, true, 0, 0)
		e.mediate(ent)
	case waitArm:
		if ent.attempt < e.Cfg.TimeoutRearms {
			e.Stats.TimeoutRearms++
			e.armTail(ent.a, ent, ent.rk, ent.attempt+1)
			return
		}
		e.timedOut(ent)
	case waitLost:
		e.timedOut(ent)
	case waitSoftware:
		e.cpuFallback(ent, 0)
	case waitNotify:
		sp, c := ent.sp, ent.chain
		e.release(ent)
		sp.End()
		c.childDone(e)
	}
}

// act runs the entry's planned action.
func (e *Engine) act(ent *entryState) {
	switch ent.then {
	case doDeliver:
		e.deliver(ent, ent.fromDispatcher)
	case doAdmit:
		e.admit(ent.a, ent, ent.fromDispatcher)
	case doOffer:
		e.offer(ent.a, ent, ent.fromDispatcher)
	case doWalk:
		e.walk(ent.a, ent, ent.pc, 0)
	case doLoadTail:
		e.loadTail(ent.a, ent, ent.tail, true)
	case doFinish:
		e.finishFin(ent.a, ent)
	case doNotify:
		e.notifyCore(ent)
	case doDMA:
		e.dmaToAccel(ent)
	case doManagerDispatch:
		ent.plan(doDeliver, true, 1, ent.DataBytes)
		e.engage(ent, e.Manager, "manager", obs.SegDispatch, e.Cfg.ManagerDispatch)
	case doHop:
		e.hop(ent.a, ent)
	case doTail:
		e.handleTail(ent.a, ent, ent.tail)
	case doEnd:
		e.finishTrace(ent.a, ent)
	case doMedBranch:
		e.Stats.MediatorBranches++
		ent.plan(doWalk, false, 0, 0)
		e.mediate(ent)
	case doMedTrans:
		// The mediator moves the data out, transforms it on the
		// CPU/manager, and moves it back.
		ent.plan(doWalk, false, 1, 2*ent.DataBytes)
		e.mediate(ent)
	}
}

// enqueueFromCore models a core triggering a trace (§IV-A): the
// user-mode Enqueue instruction plus payload DMA under AccelFlow-like
// policies, a chain submission to the manager under RELIEF, an
// interrupt-driven invocation under CPU-Centric, and a software-queue
// push under Cohort.
func (e *Engine) enqueueFromCore(ent *entryState) {
	in := ent.Prog.Instrs[ent.PC]
	if in.Kind != trace.OpInvoke {
		panic(fmt.Sprintf("engine: chain trace %q does not start with an invoke", ent.Prog.Name))
	}
	switch e.Pol.Hop {
	case HopDirect, HopCPU:
		cost := e.Cfg.EnqueueCost
		if e.Pol.Ideal {
			cost = 0
		}
		ent.plan(doDMA, false, 0, 0)
		e.engage(ent, e.Cores, "cores", obs.SegDispatch, cost)
	case HopManager:
		// The core's Enqueue and the manager's dispatch each charge
		// their own span of Orch; together they cover the whole time
		// since the Enqueue began.
		ent.plan(doManagerDispatch, false, 0, 0)
		e.engage(ent, e.Cores, "cores", obs.SegDispatch, e.Cfg.EnqueueCost)
	case HopSWQueue:
		ent.plan(doDeliver, true, 1, ent.DataBytes)
		e.engage(ent, e.Cores, "cores", obs.SegDispatch, e.Cfg.SWQueueHop)
	}
}

// dmaToAccel moves the payload and trace from core 0 to the entry's
// current target accelerator via an A-DMA engine, then delivers it.
func (e *Engine) dmaToAccel(ent *entryState) {
	dst := e.Accels[ent.Prog.Instrs[ent.PC].Accel]
	e.transfer(ent, e.Place.CoreNode(0), dst.Node, ent.progBytes, doDeliver, false)
}

// transfer moves the entry's payload (and traceBytes of trace) from src
// to dst through the A-DMA pool, charging the time to Breakdown.Comm
// before then runs.
func (e *Engine) transfer(ent *entryState, src, dst noc.Node, traceBytes int, then action, fromDispatcher bool) {
	ent.plan(then, fromDispatcher, 0, 0)
	ent.wait = waitDMA
	ent.t0 = e.K.Now()
	e.DMA.Transfer(src, dst, ent.DataBytes, traceBytes, ent.sp, ent.fn)
}

// deliver admits an entry to its current target accelerator, passing
// through the shared central queue under base RELIEF, and drawing
// page-fault exceptions.
func (e *Engine) deliver(ent *entryState, fromDispatcher bool) {
	a := e.Accels[ent.Prog.Instrs[ent.PC].Accel]
	if e.Pol.SharedQueue {
		ent.a = a
		ent.plan(doAdmit, fromDispatcher, 0, 0)
		e.engage(ent, e.CentralQ, "centralq", obs.SegDispatch, e.centralQDispatchCost)
		return
	}
	e.admit(a, ent, fromDispatcher)
}

// admit draws the page-fault exception and offers the entry.
func (e *Engine) admit(a *accel.Accelerator, ent *entryState, fromDispatcher bool) {
	if a.TLB.PageFault() {
		// The accelerator stops; a core runs the OS handler, then
		// execution resumes (§V-3).
		ent.a = a
		ent.plan(doOffer, fromDispatcher, 0, 0)
		e.engage(ent, e.Cores, "cores", obs.SegInterrupt, e.Cfg.PageFaultCost)
		return
	}
	e.offer(a, ent, fromDispatcher)
}

func (e *Engine) offer(a *accel.Accelerator, ent *entryState, fromDispatcher bool) {
	if a.Failed() {
		// The accelerator is in a failure window: retrying cannot help,
		// so the core services the rest of the trace in software
		// immediately (graceful degradation under fault injection).
		e.Stats.FallbacksFailed++
		ent.chain.req.fellBack = true
		e.cpuFallback(ent, ent.PC)
		return
	}
	switch a.Offer(&ent.Entry, fromDispatcher) {
	case accel.Admitted, accel.Overflowed:
		// The accelerator machinery takes over; OnReady resumes us.
	case accel.Rejected:
		if !fromDispatcher && ent.retries < e.Cfg.EnqueueRetries {
			// Enqueue returned an error; the core retries (§IV-A),
			// optionally after an exponential backoff so a transient
			// full queue can drain before the next attempt.
			ent.retries++
			ent.a = a
			ent.plan(doOffer, false, 0, 0)
			// With EnqueueBackoff 0 the retry runs inline, scheduling no
			// kernel event — the pre-backoff event order is preserved
			// exactly, keeping golden values unchanged by default.
			if d := e.Cfg.EnqueueBackoff << uint(ent.retries-1); d > 0 {
				e.Stats.EnqueueBackoffs++
				ent.sp.Seg(obs.SegQueue, "backoff", e.K.Now(), e.K.Now()+d)
				ent.wait = waitBackoff
				e.K.After(d, ent.fn)
			} else {
				e.engage(ent, e.Cores, "cores", obs.SegDispatch, e.Cfg.EnqueueCost)
			}
			return
		}
		e.Stats.FallbacksQueue++
		ent.chain.req.fellBack = true
		e.cpuFallback(ent, ent.PC)
	}
}

// onPEComplete runs when a PE deposits an entry in the output queue:
// charge the PE time to the breakdown and start the output-dispatcher
// walk (Fig. 8 flowchart).
func (e *Engine) onPEComplete(a *accel.Accelerator, ent *entryState) {
	r := ent.chain.req
	r.accels++
	r.bd.Accel += ent.LastPEHold
	e.walk(a, ent, ent.PC+1, e.Cfg.DispBaseInstrs)
}

// walk advances the Position Mark through non-invoke instructions,
// accumulating dispatcher work, until it reaches an instruction that
// needs asynchronous handling: the next invoke (hop), a mediator
// fallback, a tail, or the end.
func (e *Engine) walk(a *accel.Accelerator, ent *entryState, pc int, instrs int) {
	prog := ent.Prog
	dte := sim.Time(0)
	ent.forks = ent.forks[:0]
	for {
		in := prog.Instrs[pc]
		switch in.Kind {
		case trace.OpBranch:
			if in.Cond == trace.CondNone {
				pc = in.TrueTarget
				continue
			}
			if e.Pol.DispatcherBranch {
				instrs += e.Cfg.DispBranchInstrs
				pc = prog.Next(pc, ent.Flags)
				continue
			}
			ent.pc = prog.Next(pc, ent.Flags)
			e.chargeGlue(a, ent, instrs, dte, doMedBranch, "")
			return
		case trace.OpTrans:
			if e.Pol.DispatcherTransform {
				instrs += e.Cfg.DispTransformInstrs
				dte += e.dteTime(ent.DataBytes)
				pc++
				continue
			}
			ent.pc = pc + 1
			e.chargeGlue(a, ent, instrs, dte, doMedTrans, "")
			return
		case trace.OpFork:
			ent.forks = append(ent.forks, in.TailName)
			pc++
			continue
		case trace.OpInvoke:
			ent.PC = pc
			e.chargeGlue(a, ent, instrs, dte, doHop, "")
			return
		case trace.OpTail:
			instrs += e.Cfg.DispEndInstrs
			e.chargeGlue(a, ent, instrs, dte, doTail, in.TailName)
			return
		case trace.OpEnd:
			instrs += e.Cfg.DispEndInstrs
			e.chargeGlue(a, ent, instrs, dte, doEnd, "")
			return
		default:
			panic(fmt.Sprintf("engine: unknown op %d in trace %q", in.Kind, prog.Name))
		}
	}
}

// chargeGlue charges one output-dispatcher pass (serialized per
// accelerator) plus any Data Transform Engine time; when it ends, the
// walk's forks spawn and the entry continues with then (tail names
// the continuation trace of doTail).
func (e *Engine) chargeGlue(a *accel.Accelerator, ent *entryState, instrs int, dte sim.Time, then action, tail string) {
	hold := a.GluePass(instrs) + dte
	if e.Pol.Ideal {
		hold = 0
	}
	ent.a = a
	ent.tail = tail
	ent.plan(then, false, 0, 0)
	e.engage(ent, a.OutDisp, a.OutDispName, obs.SegDispatch, hold)
}

// spawnFork launches a side trace from the ATM that joins the chain
// (e.g. T6's parallel write-back to the DB cache).
func (e *Engine) spawnFork(a *accel.Accelerator, ent *entryState, name string) {
	prog, lat, err := e.ATM.Read(name)
	if err != nil {
		panic(err)
	}
	if e.Pol.Ideal {
		lat = 0
	}
	e.Stats.ForksSpawned++
	ent.chain.fork()
	f := e.newEntry(ent.chain.req, ent.chain, prog, ent.Flags, ent.DataBytes)
	f.sp.Seg(obs.SegDispatch, "atm", e.K.Now(), e.K.Now()+lat)
	f.a = a
	f.wait = waitFork
	e.K.After(lat, f.fn)
}

// resumeProgram continues a freshly loaded program at PC 0 inside the
// dispatcher of accelerator a: an invoke hops to its accelerator;
// anything else continues the dispatcher walk.
func (e *Engine) resumeProgram(a *accel.Accelerator, ent *entryState) {
	if ent.Prog.Instrs[0].Kind == trace.OpInvoke {
		ent.PC = 0
		e.hop(a, ent)
		return
	}
	e.walk(a, ent, 0, 0)
}

// hop moves the entry from accelerator a to the accelerator of the
// invoke at ent.PC, according to the policy's hop mechanics.
func (e *Engine) hop(a *accel.Accelerator, ent *entryState) {
	dst := e.Accels[ent.Prog.Instrs[ent.PC].Accel]
	switch e.Pol.Hop {
	case HopDirect:
		if !e.Pol.DispatcherTransform && ent.DataBytes > e.Cfg.InlineDataBytes {
			// Without large-data support the manager moves oversized
			// payloads through memory (Fig. 13's last ladder step).
			ent.plan(doDeliver, true, 1, ent.DataBytes)
			e.mediate(ent)
			return
		}
		e.transfer(ent, a.Node, dst.Node, ent.progBytes, doDeliver, true)
	case HopManager:
		// One manager engagement per completion (~1.5us, §VII-A.1)
		// covers the interrupt, processing, and next dispatch. The
		// source accelerator writes its output to memory and the
		// destination reads it back: two touches.
		ent.plan(doDeliver, true, 2, ent.DataBytes)
		e.engage(ent, e.Manager, "manager", obs.SegDispatch, e.Cfg.ManagerHop)
	case HopCPU:
		ent.plan(doDeliver, false, 2, ent.DataBytes)
		e.engage(ent, e.Cores, "cores", obs.SegInterrupt, e.Cfg.InterruptCost)
	case HopSWQueue:
		if e.Pol.CohortPairs[[2]config.AccelKind{a.Kind, dst.Kind}] {
			e.transfer(ent, a.Node, dst.Node, ent.progBytes, doDeliver, true)
			return
		}
		// Unlinked hop: the entry sits in a shared-memory software
		// queue until a polling core notices it, then the core moves
		// the data along.
		ent.plan(doDeliver, true, 2, ent.DataBytes)
		e.pollCores(ent, e.Cfg.SWQueuePickup, obs.SegDispatch, e.Cfg.SWQueueHop)
	}
}

// mediate bounces control to the policy's mediator (hardware manager
// or a CPU core), which then continues with the entry's plan.
func (e *Engine) mediate(ent *entryState) {
	switch e.Pol.Mediator {
	case MedManager:
		e.engage(ent, e.Manager, "manager", obs.SegDispatch, e.Cfg.ManagerHop)
	case MedCPU:
		cost := e.Cfg.InterruptCost
		delay := sim.Time(0)
		if e.Pol.Hop == HopSWQueue {
			cost = e.Cfg.SWQueueHop
			delay = e.Cfg.SWQueuePickup
		}
		e.pollCores(ent, delay, obs.SegInterrupt, cost)
	}
}

// handleTail processes an OpTail: read the continuation from the ATM
// (dispatcher-side under AccelFlow, mediator-side otherwise), wait for
// the remote response when the tail crosses the network, and resume.
func (e *Engine) handleTail(a *accel.Accelerator, ent *entryState, name string) {
	if !e.Pol.ATMChaining {
		ent.a, ent.tail = a, name
		ent.plan(doLoadTail, false, 0, 0)
		e.mediate(ent)
		return
	}
	e.loadTail(a, ent, name, false)
}

func (e *Engine) loadTail(a *accel.Accelerator, ent *entryState, name string, viaMediator bool) {
	prog, lat, err := e.ATM.Read(name)
	if err != nil {
		panic(err)
	}
	if e.Pol.Ideal {
		lat = 0
	}
	ent.a, ent.prog, ent.viaMediator = a, prog, viaMediator
	ent.rk = e.RemoteTails[ent.Prog.Name]
	ent.sp.Seg(obs.SegDispatch, "atm", e.K.Now(), e.K.Now()+lat)
	ent.wait = waitATM
	e.K.After(lat, ent.fn)
}

// tailLoaded switches the entry to the tail program loadTail read and
// resumes it, waiting first for the remote response if the tail
// crosses the network.
func (e *Engine) tailLoaded(ent *entryState) {
	a, rk := ent.a, ent.rk
	ent.Prog = ent.prog
	ent.progBytes = ent.prog.EncodedBytes()
	ent.PC = 0
	if rk == RemoteNone {
		e.resumeProgram(a, ent)
		return
	}
	if ent.viaMediator {
		// Without arming, the mediator re-dispatches the response
		// trace when the message arrives; the full drawn wait
		// elapses (the mediator path has no timeout cutoff).
		wait := e.remoteWait(rk)
		ent.chain.req.bd.Remote += wait
		ent.sp.Seg(obs.SegRemote, "net", e.K.Now(), e.K.Now()+wait)
		ent.wait = waitRemote
		e.K.After(wait, ent.fn)
		return
	}
	// AccelFlow arms the response trace in the accelerator's input
	// queue (§IV-B); the arrival triggers it directly.
	e.armTail(a, ent, rk, 0)
}

// armTail arms the response trace and handles the three outcomes:
// arrival (the accelerator machinery resumes the chain), TCP timeout
// (optionally re-armed up to Cfg.TimeoutRearms times, modeling a
// retransmitted request), and arm rejection (no free queue slot: the
// response is serviced by a core in software when it arrives — it is
// back-pressure, not a timeout). Breakdown.Remote is charged with the
// time that actually elapses — min(wait, TCPTimeout) per armed window
// — never the full drawn wait of a lost response, so breakdown
// segments stay inside the request window on timeout paths.
func (e *Engine) armTail(a *accel.Accelerator, ent *entryState, rk RemoteKind, attempt int) {
	r := ent.chain.req
	wait := e.remoteWait(rk)
	w := wait
	if w > e.Cfg.TCPTimeout {
		w = e.Cfg.TCPTimeout
	}
	t0 := e.K.Now()
	// The accelerator calls fn back only on a timeout (waitArm); an
	// arrival resumes the entry through the PE path instead.
	ent.a, ent.rk, ent.attempt = a, rk, attempt
	ent.wait = waitArm
	res := a.Arm(&ent.Entry, wait, ent.fn)
	r.bd.Remote += w
	ent.sp.Seg(obs.SegRemote, "net", t0, t0+w)
	if res != accel.ArmRejected {
		return
	}
	e.Stats.ArmRejects++
	if wait > e.Cfg.TCPTimeout {
		// The response was lost as well; with or without a slot this
		// is a genuine timeout.
		ent.wait = waitLost
		e.K.After(w, ent.fn)
		return
	}
	r.fellBack = true
	ent.wait = waitSoftware
	e.K.After(w, ent.fn)
}

// timedOut records a genuine TCP timeout and ends the trace.
func (e *Engine) timedOut(ent *entryState) {
	e.Stats.Timeouts++
	ent.chain.req.timedOut = true
	e.notifyCore(ent)
}

// remoteWait draws the time until the remote side's response arrives.
func (e *Engine) remoteWait(rk RemoteKind) sim.Time {
	var svc sim.Time
	switch rk {
	case RemoteCache:
		svc = e.Cfg.RemoteDBTime / 3
	case RemoteDB:
		svc = e.Cfg.RemoteDBTime
	case RemoteSvc:
		svc = e.Cfg.RemoteSvcTime
	default:
		return 0
	}
	w := e.Cfg.RemoteRTT + sim.Time(e.rng.LogNormal(float64(svc), 0.3))
	// Rare lost responses exercise the TCP timeout path (§VII-B.6
	// reports 3.2 timeouts per million requests). A fault injector can
	// raise the rate via Spec.RemoteLossRate.
	if e.rng.Bool(e.lossRate) {
		w = e.Cfg.TCPTimeout + sim.Microsecond
	}
	return w
}

// finishTrace handles OpEnd: results DMA to memory, user-level
// notification to the initiating core, chain accounting. Under
// mediator policies the manager is interrupted first and forwards the
// completion to the CPU.
func (e *Engine) finishTrace(a *accel.Accelerator, ent *entryState) {
	if !e.Pol.ATMChaining {
		ent.a = a
		ent.plan(doFinish, false, 0, 0)
		e.mediate(ent)
		return
	}
	e.finishFin(a, ent)
}

func (e *Engine) finishFin(a *accel.Accelerator, ent *entryState) {
	e.transfer(ent, a.Node, e.Place.MemNode(), 0, doNotify, false)
}

// notifyCore delivers the user-level completion notification (§IV-A:
// not an interrupt; the core polls or MWAITs) and completes the chain.
func (e *Engine) notifyCore(ent *entryState) {
	d := e.notifyDelay
	if e.Pol.Ideal {
		d = 0
	}
	ent.chain.req.bd.Comm += d
	ent.sp.Seg(obs.SegNotify, "core", e.K.Now(), e.K.Now()+d)
	ent.wait = waitNotify
	e.K.After(d, ent.fn)
}

// dteTime is the Data Transform Engine's cost: a simplified (De)Ser
// engine streaming the payload (§V-2).
func (e *Engine) dteTime(bytes int) sim.Time {
	return sim.FromNanos(50 + float64(bytes)*0.2)
}
