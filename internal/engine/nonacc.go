package engine

import (
	"accelflow/internal/accel"
	"accelflow/internal/config"
	"accelflow/internal/obs"
	"accelflow/internal/sim"
	"accelflow/internal/trace"
)

// walk walks prog on the CPU from pc until a terminal or tail,
// recording the segment's total CPU time, the per-kind tax
// attribution, the accelerator ops it stands in for, the payload size
// it leaves, the forks encountered, and the tail name ("" for end).
func (s *cpuSeg) walk(cfg *config.Config, prog *trace.Program, pc int, flags trace.Flags, bytes int) {
	s.total, s.tax, s.invokes = 0, [config.NumAccelKinds]sim.Time{}, 0
	s.forks = s.forks[:0]
	for {
		in := prog.Instrs[pc]
		switch in.Kind {
		case trace.OpInvoke:
			c := cfg.CPUCost(in.Accel, bytes)
			s.total += c
			s.tax[in.Accel] += c
			s.invokes++
			bytes = accel.OutputBytes(cfg, in.Accel, bytes)
			pc++
		case trace.OpBranch:
			pc = prog.Next(pc, flags)
		case trace.OpTrans:
			// Format changes are cheap on the CPU too.
			s.total += sim.FromNanos(100 + float64(bytes)*0.4)
			pc++
		case trace.OpFork:
			s.forks = append(s.forks, in.TailName)
			pc++
		case trace.OpTail:
			s.outBytes, s.tail = bytes, in.TailName
			return
		case trace.OpEnd:
			s.outBytes, s.tail = bytes, ""
			return
		}
	}
}

// cpuSeg is one trace segment run on a core: a segment of a Non-acc
// chain, which runs on cores throughout (each segment holds a core for
// its total CPU time; remote tails release the core during the wait),
// or, under fallback, the software remainder of an entry's trace. It
// is pooled on the engine, and fn (run, bound once) fires when the
// core hold ends and, if the segment ends in a remote tail, again when
// the wait ends.
type cpuSeg struct {
	eng *Engine
	c   *chainState
	// sp receives the segment: the entry's span under fallback (it
	// ends with the segment), the chain's span under Non-acc.
	sp       *obs.Span
	fallback bool
	prog     *trace.Program
	flags    trace.Flags
	t0       sim.Time
	total    sim.Time
	tax      [config.NumAccelKinds]sim.Time
	invokes  int
	outBytes int
	forks    []string
	tail     string
	// waiting is set while the remote wait of the tail runs; lost marks
	// a lost response, which ends the chain instead of resuming it.
	waiting, lost bool

	next *cpuSeg
	fn   func()
}

// runCPUSegment holds a core for the segment of prog from pc, on behalf
// of ent (nil under Non-acc). The entry's record returns to the pool
// here: the segment ends its trace.
func (e *Engine) runCPUSegment(c *chainState, ent *entryState, prog *trace.Program, pc int, flags trace.Flags, bytes int) {
	s := e.freeSeg
	if s == nil {
		s = &cpuSeg{eng: e}
		s.fn = s.run
	} else {
		e.freeSeg = s.next
		s.next = nil
	}
	s.c, s.prog, s.flags = c, prog, flags
	s.sp, s.fallback = c.sp, ent != nil
	if ent != nil {
		s.sp = ent.sp
		e.release(ent)
	}
	s.walk(e.Cfg, prog, pc, flags, bytes)
	s.waiting, s.lost = false, false
	s.t0 = e.K.Now()
	e.Cores.Do(s.total, s.fn)
}

func (s *cpuSeg) run() {
	e, c := s.eng, s.c
	r := c.req
	if s.waiting {
		// The remote wait is over: the segment's record is done.
		lost, np, flags, bytes := s.lost, s.prog, s.flags, s.outBytes
		fallback := s.fallback
		e.releaseSeg(s)
		switch {
		case lost:
			c.childDone(e)
		case fallback:
			e.resumeAfterFallback(e.newEntry(r, c, np, flags, bytes))
		default:
			e.runCPUSegment(c, nil, np, 0, flags, bytes)
		}
		return
	}
	r.bd.CPU += e.K.Now() - s.t0
	s.sp.QueuedSeg(obs.SegCPU, "cores", s.t0, s.total)
	for k := range s.tax {
		r.bd.Tax[k] += s.tax[k]
	}
	if !s.fallback {
		// Non-acc runs still report Table IV-style op counts.
		r.accels += s.invokes
	}
	for _, fn := range s.forks {
		fp, _, err := e.ATM.Read(fn)
		if err != nil {
			panic(err)
		}
		c.fork()
		e.Stats.ForksSpawned++
		if s.fallback {
			e.resumeAfterFallback(e.newEntry(r, c, fp, s.flags, s.outBytes))
		} else {
			e.runCPUSegment(c, nil, fp, 0, s.flags, s.outBytes)
		}
	}
	if s.tail == "" {
		if s.fallback {
			s.sp.End()
		}
		e.releaseSeg(s)
		c.childDone(e)
		return
	}
	np, _, err := e.ATM.Read(s.tail)
	if err != nil {
		panic(err)
	}
	wait := e.remoteWait(e.RemoteTails[s.prog.Name])
	s.prog = np
	s.waiting = true
	if wait > e.Cfg.TCPTimeout {
		// Lost response: only the timeout window elapses on this
		// server — charge that, not the full drawn wait.
		wait = e.Cfg.TCPTimeout
		s.lost = true
		e.Stats.Timeouts++
		r.timedOut = true
	}
	r.bd.Remote += wait
	if s.fallback {
		s.sp.End()
	}
	c.sp.Seg(obs.SegRemote, "net", e.K.Now(), e.K.Now()+wait)
	e.K.After(wait, s.fn)
}

func (e *Engine) releaseSeg(s *cpuSeg) {
	s.c, s.sp, s.prog = nil, nil, nil
	s.next = e.freeSeg
	e.freeSeg = s
}

// cpuFallback runs the remainder of the current trace on a core after
// an accelerator rejection (full queues and overflow areas, §IV-A) and
// then resumes the chain on the normal path.
func (e *Engine) cpuFallback(ent *entryState, fromPC int) {
	e.runCPUSegment(ent.chain, ent, ent.Prog, fromPC, ent.Flags, ent.DataBytes)
}

// resumeAfterFallback re-enters the accelerated path for the next trace
// of a chain whose previous trace fell back to the CPU.
func (e *Engine) resumeAfterFallback(ent *entryState) {
	if !e.Pol.UseAccels {
		c, prog, flags, bytes := ent.chain, ent.Prog, ent.Flags, ent.DataBytes
		e.release(ent)
		e.runCPUSegment(c, nil, prog, 0, flags, bytes)
		return
	}
	if ent.Prog.Instrs[0].Kind != trace.OpInvoke {
		// Program starts with dispatcher-side logic; run it on the CPU
		// as well (rare: only fork bodies start with branches).
		e.cpuFallback(ent, 0)
		return
	}
	e.enqueueFromCore(ent)
}
