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

// wireAccels connects the accelerators' PE-completion callbacks to the
// engine's output-dispatcher logic. Called lazily on first use so that
// tests can construct engines piecemeal.
func (e *Engine) wireAccels() {
	if e.Accels[0].OnReady != nil {
		return
	}
	for _, kd := range config.AllAccelKinds() {
		a := e.Accels[kd]
		a.OnReady = func(ent *accel.Entry) { e.onPEComplete(a, ent.UserData.(*entryState)) }
	}
}

// enqueueFromCore models a core triggering a trace (§IV-A): the
// user-mode Enqueue instruction plus payload DMA under AccelFlow-like
// policies, a chain submission to the manager under RELIEF, an
// interrupt-driven invocation under CPU-Centric, and a software-queue
// push under Cohort.
func (e *Engine) enqueueFromCore(ent *entryState) {
	e.wireAccels()
	in := ent.Prog.Instrs[ent.PC]
	if in.Kind != trace.OpInvoke {
		panic(fmt.Sprintf("engine: chain trace %q does not start with an invoke", ent.Prog.Name))
	}
	r := ent.chain.req
	switch e.Pol.Hop {
	case HopDirect:
		cost := e.Cfg.EnqueueCost
		if e.Pol.Ideal {
			cost = 0
		}
		t0 := e.K.Now()
		e.Cores.Do(cost, func() {
			r.bd.Orch += e.K.Now() - t0
			ent.sp.QueuedSeg(obs.SegDispatch, "cores", t0, cost)
			e.dmaToAccel(ent, e.Place.CoreNode(0), func() { e.deliver(ent, false) })
		})
	case HopManager:
		t0 := e.K.Now()
		e.Cores.Do(e.Cfg.EnqueueCost, func() {
			ent.sp.QueuedSeg(obs.SegDispatch, "cores", t0, e.Cfg.EnqueueCost)
			tm := e.K.Now()
			e.Manager.Do(e.Cfg.ManagerDispatch, func() {
				r.bd.Orch += e.K.Now() - t0
				ent.sp.QueuedSeg(obs.SegDispatch, "manager", tm, e.Cfg.ManagerDispatch)
				t1 := e.K.Now()
				e.Mem.Transfer(ent.DataBytes, func() {
					r.bd.Comm += e.K.Now() - t1
					ent.sp.Seg(obs.SegDMA, "dram", t1, e.K.Now())
					e.deliver(ent, true)
				})
			})
		})
	case HopCPU:
		t0 := e.K.Now()
		e.Cores.Do(e.Cfg.EnqueueCost, func() {
			r.bd.Orch += e.K.Now() - t0
			ent.sp.QueuedSeg(obs.SegDispatch, "cores", t0, e.Cfg.EnqueueCost)
			e.dmaToAccel(ent, e.Place.CoreNode(0), func() { e.deliver(ent, false) })
		})
	case HopSWQueue:
		t0 := e.K.Now()
		e.Cores.Do(e.Cfg.SWQueueHop, func() {
			r.bd.Orch += e.K.Now() - t0
			ent.sp.QueuedSeg(obs.SegDispatch, "cores", t0, e.Cfg.SWQueueHop)
			t1 := e.K.Now()
			e.Mem.Transfer(ent.DataBytes, func() {
				r.bd.Comm += e.K.Now() - t1
				ent.sp.Seg(obs.SegDMA, "dram", t1, e.K.Now())
				e.deliver(ent, true)
			})
		})
	}
}

// dmaToAccel moves the payload and trace from a core-side node to the
// entry's current target accelerator via an A-DMA engine.
func (e *Engine) dmaToAccel(ent *entryState, src noc.Node, done func()) {
	dst := e.Accels[ent.Prog.Instrs[ent.PC].Accel]
	r := ent.chain.req
	t0 := e.K.Now()
	e.DMA.Transfer(src, dst.Node, ent.DataBytes, ent.Prog.EncodedBytes(), ent.sp, func() {
		r.bd.Comm += e.K.Now() - t0
		done()
	})
}

// commDone is a pooled "charge Comm, then deliver" continuation for
// the accelerator-to-accelerator hop DMA: the common case of every
// chain hop, so the per-hop closure is replaced with a recycled record
// whose fn is bound once.
type commDone struct {
	eng            *Engine
	ent            *entryState
	t0             sim.Time
	fromDispatcher bool
	next           *commDone
	fn             func()
}

func (n *commDone) run() {
	e := n.eng
	ent := n.ent
	t0 := n.t0
	fd := n.fromDispatcher
	n.ent = nil
	n.next = e.freeComm
	e.freeComm = n
	ent.chain.req.bd.Comm += e.K.Now() - t0
	e.deliver(ent, fd)
}

// commThenDeliver returns a pooled continuation charging the elapsed
// time since now to Breakdown.Comm and delivering the entry.
func (e *Engine) commThenDeliver(ent *entryState, fromDispatcher bool) func() {
	n := e.freeComm
	if n == nil {
		n = &commDone{eng: e}
		n.fn = n.run
	} else {
		e.freeComm = n.next
	}
	n.ent = ent
	n.t0 = e.K.Now()
	n.fromDispatcher = fromDispatcher
	return n.fn
}

// deliver admits an entry to its current target accelerator, passing
// through the shared central queue under base RELIEF, and drawing
// page-fault exceptions.
func (e *Engine) deliver(ent *entryState, fromDispatcher bool) {
	e.wireAccels()
	a := e.Accels[ent.Prog.Instrs[ent.PC].Accel]
	if e.Pol.SharedQueue {
		t0 := e.K.Now()
		e.CentralQ.Do(e.centralQDispatchCost, func() {
			ent.chain.req.bd.Orch += e.K.Now() - t0
			ent.sp.QueuedSeg(obs.SegDispatch, "centralq", t0, e.centralQDispatchCost)
			e.admit(a, ent, fromDispatcher)
		})
		return
	}
	e.admit(a, ent, fromDispatcher)
}

// admit draws the page-fault exception and offers the entry.
func (e *Engine) admit(a *accel.Accelerator, ent *entryState, fromDispatcher bool) {
	if a.TLB.PageFault() {
		// The accelerator stops; a core runs the OS handler, then
		// execution resumes (§V-3).
		e.Stats.FallbacksFault++
		r := ent.chain.req
		t0 := e.K.Now()
		e.Cores.Do(e.Cfg.PageFaultCost, func() {
			r.bd.Orch += e.K.Now() - t0
			ent.sp.QueuedSeg(obs.SegInterrupt, "cores", t0, e.Cfg.PageFaultCost)
			e.offer(a, ent, fromDispatcher)
		})
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
	switch a.Offer(ent.Entry, fromDispatcher) {
	case accel.Admitted, accel.Overflowed:
		// The accelerator machinery takes over; OnReady resumes us.
	case accel.Rejected:
		if !fromDispatcher && ent.retries < e.Cfg.EnqueueRetries {
			// Enqueue returned an error; the core retries (§IV-A),
			// optionally after an exponential backoff so a transient
			// full queue can drain before the next attempt.
			ent.retries++
			r := ent.chain.req
			retry := func() {
				t0 := e.K.Now()
				e.Cores.Do(e.Cfg.EnqueueCost, func() {
					r.bd.Orch += e.K.Now() - t0
					ent.sp.QueuedSeg(obs.SegDispatch, "cores", t0, e.Cfg.EnqueueCost)
					e.offer(a, ent, false)
				})
			}
			// With EnqueueBackoff 0 the retry runs inline, scheduling no
			// kernel event — the pre-backoff event order is preserved
			// exactly, keeping golden values unchanged by default.
			if d := e.Cfg.EnqueueBackoff << uint(ent.retries-1); d > 0 {
				e.Stats.EnqueueBackoffs++
				ent.sp.Seg(obs.SegQueue, "backoff", e.K.Now(), e.K.Now()+d)
				e.K.After(d, retry)
			} else {
				retry()
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
	var forks []string
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
				a.Stats.Branches++
				pc = prog.Next(pc, ent.Flags)
				continue
			}
			next := prog.Next(pc, ent.Flags)
			e.chargeGlue(a, ent, instrs, dte, forks, glueCont, "", func() {
				e.Stats.MediatorBranches++
				e.mediate(ent, func() { e.walk(a, ent, next, 0) })
			})
			return
		case trace.OpTrans:
			if e.Pol.DispatcherTransform {
				instrs += e.Cfg.DispTransformInstrs
				dte += e.dteTime(ent.DataBytes)
				a.Stats.Transforms++
				pc++
				continue
			}
			npc := pc + 1
			e.chargeGlue(a, ent, instrs, dte, forks, glueCont, "", func() {
				e.Stats.MediatorTrans++
				// The mediator moves the data out, transforms it on
				// the CPU/manager, and moves it back.
				e.mediate(ent, func() {
					r := ent.chain.req
					t0 := e.K.Now()
					e.Mem.Transfer(2*ent.DataBytes, func() {
						r.bd.Comm += e.K.Now() - t0
						ent.sp.Seg(obs.SegDMA, "dram", t0, e.K.Now())
						e.walk(a, ent, npc, 0)
					})
				})
			})
			return
		case trace.OpFork:
			forks = append(forks, in.TailName)
			pc++
			continue
		case trace.OpInvoke:
			ent.PC = pc
			e.chargeGlue(a, ent, instrs, dte, forks, glueHop, "", nil)
			return
		case trace.OpTail:
			instrs += e.Cfg.DispEndInstrs
			e.chargeGlue(a, ent, instrs, dte, forks, glueTail, in.TailName, nil)
			return
		case trace.OpEnd:
			instrs += e.Cfg.DispEndInstrs
			e.chargeGlue(a, ent, instrs, dte, forks, glueEnd, "", nil)
			return
		default:
			panic(fmt.Sprintf("engine: unknown op %d in trace %q", in.Kind, prog.Name))
		}
	}
}

// Glue-pass continuations. The three hot outcomes of a dispatcher walk
// (hop to the next invoke, load a tail, finish the trace) are encoded
// as kinds on the pooled gluePass record, so no continuation closure
// is allocated for them; the rare mediator paths pass glueCont with an
// explicit closure.
const (
	glueCont = iota
	glueHop
	glueTail
	glueEnd
)

// gluePass is one pooled output-dispatcher pass: what chargeGlue's
// per-pass closure used to capture, recycled through Engine.freeGlue.
type gluePass struct {
	eng   *Engine
	a     *accel.Accelerator
	ent   *entryState
	t0    sim.Time
	hold  sim.Time
	forks []string
	kind  uint8
	name  string // tail name for glueTail
	cont  func() // for glueCont
	next  *gluePass
	fn    func()
}

// run executes after the dispatcher pass's hold: extract everything,
// recycle the record (safe against re-entry — the continuation may
// start another glue pass, which may reuse it), then account and
// continue.
func (g *gluePass) run() {
	e := g.eng
	a := g.a
	ent := g.ent
	t0, hold := g.t0, g.hold
	forks := g.forks
	kind, name, cont := g.kind, g.name, g.cont
	g.a, g.ent, g.forks, g.cont = nil, nil, nil, nil
	g.next = e.freeGlue
	e.freeGlue = g
	ent.chain.req.bd.Orch += e.K.Now() - t0
	ent.sp.QueuedSeg(obs.SegDispatch, a.OutDispName, t0, hold)
	for _, fn := range forks {
		e.spawnFork(a, ent, fn)
	}
	switch kind {
	case glueHop:
		e.hop(a, ent)
	case glueTail:
		e.handleTail(a, ent, name)
	case glueEnd:
		e.finishTrace(a, ent)
	default:
		cont()
	}
}

// chargeGlue charges one output-dispatcher pass (serialized per
// accelerator) plus any Data Transform Engine time, spawns collected
// forks, then continues per kind (see the glue* constants).
func (e *Engine) chargeGlue(a *accel.Accelerator, ent *entryState, instrs int, dte sim.Time, forks []string, kind uint8, name string, cont func()) {
	hold := a.GluePass(instrs) + dte
	if e.Pol.Ideal {
		hold = 0
	}
	g := e.freeGlue
	if g == nil {
		g = &gluePass{eng: e}
		g.fn = g.run
	} else {
		e.freeGlue = g.next
	}
	g.a, g.ent = a, ent
	g.t0, g.hold = e.K.Now(), hold
	g.forks = forks
	g.kind, g.name, g.cont = kind, name, cont
	a.OutDisp.Do(hold, g.fn)
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
	f := &entryState{
		Entry: &accel.Entry{
			Prog: prog, PC: 0, Flags: ent.Flags,
			DataBytes: ent.DataBytes, Tenant: ent.Tenant,
			Deadline: ent.Deadline, EnqueuedAt: e.K.Now(),
		},
		chain: ent.chain,
	}
	f.sp = ent.chain.sp.Child(obs.SpanEntry, prog.Name)
	f.sp.Seg(obs.SegDispatch, "atm", e.K.Now(), e.K.Now()+lat)
	f.Entry.Span = f.sp
	f.Entry.UserData = f
	e.K.After(lat, func() { e.resumeProgram(a, f) })
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
	r := ent.chain.req
	traceBytes := ent.Prog.EncodedBytes()
	switch e.Pol.Hop {
	case HopDirect:
		if !e.Pol.DispatcherTransform && ent.DataBytes > e.Cfg.InlineDataBytes {
			// Without large-data support the manager moves oversized
			// payloads through memory (Fig. 13's last ladder step).
			e.mediate(ent, func() {
				t0 := e.K.Now()
				e.Mem.Transfer(ent.DataBytes, func() {
					r.bd.Comm += e.K.Now() - t0
					ent.sp.Seg(obs.SegDMA, "dram", t0, e.K.Now())
					e.deliver(ent, true)
				})
			})
			return
		}
		e.DMA.Transfer(a.Node, dst.Node, ent.DataBytes, traceBytes, ent.sp, e.commThenDeliver(ent, true))
	case HopManager:
		t0 := e.K.Now()
		// One manager engagement per completion (~1.5us, §VII-A.1)
		// covers the interrupt, processing, and next dispatch.
		e.Manager.Do(e.Cfg.ManagerHop, func() {
			r.bd.Orch += e.K.Now() - t0
			ent.sp.QueuedSeg(obs.SegDispatch, "manager", t0, e.Cfg.ManagerHop)
			t1 := e.K.Now()
			// Source accelerator writes output to memory; destination
			// reads it back: two touches.
			e.Mem.Transfer(ent.DataBytes, func() {
				e.Mem.Transfer(ent.DataBytes, func() {
					r.bd.Comm += e.K.Now() - t1
					ent.sp.Seg(obs.SegDMA, "dram", t1, e.K.Now())
					e.deliver(ent, true)
				})
			})
		})
	case HopCPU:
		t0 := e.K.Now()
		e.Cores.Do(e.Cfg.InterruptCost, func() {
			r.bd.Orch += e.K.Now() - t0
			ent.sp.QueuedSeg(obs.SegInterrupt, "cores", t0, e.Cfg.InterruptCost)
			t1 := e.K.Now()
			e.Mem.Transfer(ent.DataBytes, func() {
				e.Mem.Transfer(ent.DataBytes, func() {
					r.bd.Comm += e.K.Now() - t1
					ent.sp.Seg(obs.SegDMA, "dram", t1, e.K.Now())
					e.deliver(ent, false)
				})
			})
		})
	case HopSWQueue:
		if e.Pol.CohortPairs[[2]config.AccelKind{a.Kind, dst.Kind}] {
			e.DMA.Transfer(a.Node, dst.Node, ent.DataBytes, traceBytes, ent.sp, e.commThenDeliver(ent, true))
			return
		}
		// Unlinked hop: the entry sits in a shared-memory software
		// queue until a polling core notices it, then the core moves
		// the data along.
		t0 := e.K.Now()
		e.K.After(e.Cfg.SWQueuePickup, func() {
			e.Cores.Do(e.Cfg.SWQueueHop, func() {
				r.bd.Orch += e.K.Now() - t0
				ent.sp.QueuedSeg(obs.SegDispatch, "cores", t0, e.Cfg.SWQueueHop)
				t1 := e.K.Now()
				e.Mem.Transfer(ent.DataBytes, func() {
					e.Mem.Transfer(ent.DataBytes, func() {
						r.bd.Comm += e.K.Now() - t1
						ent.sp.Seg(obs.SegDMA, "dram", t1, e.K.Now())
						e.deliver(ent, true)
					})
				})
			})
		})
	}
}

// mediate bounces control to the policy's mediator (hardware manager
// or a CPU core) and continues.
func (e *Engine) mediate(ent *entryState, cont func()) {
	r := ent.chain.req
	t0 := e.K.Now()
	switch e.Pol.Mediator {
	case MedManager:
		e.Manager.Do(e.Cfg.ManagerHop, func() {
			r.bd.Orch += e.K.Now() - t0
			ent.sp.QueuedSeg(obs.SegDispatch, "manager", t0, e.Cfg.ManagerHop)
			cont()
		})
	case MedCPU:
		cost := e.Cfg.InterruptCost
		delay := sim.Time(0)
		if e.Pol.Hop == HopSWQueue {
			cost = e.Cfg.SWQueueHop
			delay = e.Cfg.SWQueuePickup
		}
		e.K.After(delay, func() {
			e.Cores.Do(cost, func() {
				r.bd.Orch += e.K.Now() - t0
				ent.sp.QueuedSeg(obs.SegInterrupt, "cores", t0, cost)
				cont()
			})
		})
	}
}

// handleTail processes an OpTail: read the continuation from the ATM
// (dispatcher-side under AccelFlow, mediator-side otherwise), wait for
// the remote response when the tail crosses the network, and resume.
func (e *Engine) handleTail(a *accel.Accelerator, ent *entryState, name string) {
	if !e.Pol.ATMChaining {
		e.Stats.MediatorTails++
		e.mediate(ent, func() { e.loadTail(a, ent, name, true) })
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
	rk := e.RemoteTails[ent.Prog.Name]
	r := ent.chain.req
	ent.sp.Seg(obs.SegDispatch, "atm", e.K.Now(), e.K.Now()+lat)
	e.K.After(lat, func() {
		ent.Prog = prog
		ent.PC = 0
		if rk == RemoteNone {
			e.resumeProgram(a, ent)
			return
		}
		if viaMediator {
			// Without arming, the mediator re-dispatches the response
			// trace when the message arrives; the full drawn wait
			// elapses (the mediator path has no timeout cutoff).
			wait := e.remoteWait(rk)
			r.bd.Remote += wait
			ent.sp.Seg(obs.SegRemote, "net", e.K.Now(), e.K.Now()+wait)
			e.K.After(wait, func() {
				e.mediate(ent, func() { e.deliver(ent, true) })
			})
			return
		}
		// AccelFlow arms the response trace in the accelerator's input
		// queue (§IV-B); the arrival triggers it directly.
		e.armTail(a, ent, rk, 0)
	})
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
	res := a.Arm(ent.Entry, wait, func() {
		if attempt < e.Cfg.TimeoutRearms {
			e.Stats.TimeoutRearms++
			e.armTail(a, ent, rk, attempt+1)
			return
		}
		e.Stats.Timeouts++
		r.timedOut = true
		e.notifyCore(ent)
	})
	r.bd.Remote += w
	ent.sp.Seg(obs.SegRemote, "net", t0, t0+w)
	if res != accel.ArmRejected {
		return
	}
	e.Stats.ArmRejects++
	if wait > e.Cfg.TCPTimeout {
		// The response was lost as well; with or without a slot this
		// is a genuine timeout.
		e.K.After(w, func() {
			e.Stats.Timeouts++
			r.timedOut = true
			e.notifyCore(ent)
		})
		return
	}
	r.fellBack = true
	e.K.After(w, func() { e.cpuFallback(ent, 0) })
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

// notifyDone is a pooled "charge Comm, then notify the core"
// continuation for the end-of-trace results DMA.
type notifyDone struct {
	eng  *Engine
	ent  *entryState
	t0   sim.Time
	next *notifyDone
	fn   func()
}

func (n *notifyDone) run() {
	e := n.eng
	ent := n.ent
	t0 := n.t0
	n.ent = nil
	n.next = e.freeNotify
	e.freeNotify = n
	ent.chain.req.bd.Comm += e.K.Now() - t0
	e.notifyCore(ent)
}

// finishTrace handles OpEnd: results DMA to memory, user-level
// notification to the initiating core, chain accounting. Under
// mediator policies the manager is interrupted first and forwards the
// completion to the CPU.
func (e *Engine) finishTrace(a *accel.Accelerator, ent *entryState) {
	if !e.Pol.ATMChaining {
		e.mediate(ent, func() { e.finishFin(a, ent) })
		return
	}
	e.finishFin(a, ent)
}

func (e *Engine) finishFin(a *accel.Accelerator, ent *entryState) {
	a.Stats.Notifies++
	n := e.freeNotify
	if n == nil {
		n = &notifyDone{eng: e}
		n.fn = n.run
	} else {
		e.freeNotify = n.next
	}
	n.ent = ent
	n.t0 = e.K.Now()
	e.DMA.Transfer(a.Node, e.Place.MemNode(), ent.DataBytes, 0, ent.sp, n.fn)
}

// notifyCore delivers the user-level completion notification (§IV-A:
// not an interrupt; the core polls or MWAITs) and completes the chain.
func (e *Engine) notifyCore(ent *entryState) {
	r := ent.chain.req
	d := e.Cfg.NotifyLatency() + e.Cfg.PollPickupDelay
	if e.Pol.Ideal {
		d = 0
	}
	r.bd.Comm += d
	ent.sp.Seg(obs.SegNotify, "core", e.K.Now(), e.K.Now()+d)
	e.K.After(d, func() {
		ent.sp.End()
		ent.chain.childDone(e)
	})
}

// dteTime is the Data Transform Engine's cost: a simplified (De)Ser
// engine streaming the payload (§V-2).
func (e *Engine) dteTime(bytes int) sim.Time {
	return sim.FromNanos(50 + float64(bytes)*0.2)
}
