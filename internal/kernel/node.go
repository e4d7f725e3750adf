package kernel

import (
	"fmt"

	"osnoise/internal/sim"
	"osnoise/internal/trace"
)

// Node is a simulated compute node: CPUs, tasks, the NIC/NFS path, and
// an optional tracing session receiving every tracepoint.
type Node struct {
	cfg     Config
	eng     *sim.Engine
	rng     *sim.RNG
	session *trace.Session
	cpus    []*CPU
	tasks   []*Task
	nextPID int
	nic     *nic
	rpciod  *Task
	booted  bool

	// Priority-alternation mitigation state (Jones et al.).
	favored      bool
	deferredWork []deferredDaemonWork
}

// deferredDaemonWork is a daemon wakeup held back during a favored
// window.
type deferredDaemonWork struct {
	task  *Task
	cpu   *CPU
	items int
}

// NewNode builds a node from cfg. session may be nil (no tracing).
func NewNode(cfg Config, session *trace.Session) *Node {
	cfg.sanitize()
	n := &Node{
		cfg:     cfg,
		eng:     sim.NewEngine(),
		rng:     sim.NewRNG(cfg.Seed),
		session: session,
		nextPID: 100,
	}
	n.cpus = make([]*CPU, cfg.CPUs)
	for i := range n.cpus {
		c := &CPU{ID: i, node: n, rng: n.rng.Split()}
		c.finish = c.finishTop
		n.cpus[i] = c
	}
	n.nic = newNIC(n)
	n.rpciod = n.NewDaemonTask("rpciod", KindKernelDaemon, 0)
	return n
}

// Engine exposes the node's event engine (workloads schedule phases
// through it).
func (n *Node) Engine() *sim.Engine { return n.eng }

// RNG returns a fresh deterministic RNG stream derived from the node's.
func (n *Node) RNG() *sim.RNG { return n.rng.Split() }

// Config returns the node configuration.
func (n *Node) Config() Config { return n.cfg }

// Model returns the node's activity cost model.
func (n *Node) Model() *ActivityModel { return &n.cfg.Model }

// CPUs returns the node's processors.
func (n *Node) CPUs() []*CPU { return n.cpus }

// Rpciod returns the NFS I/O kernel daemon.
func (n *Node) Rpciod() *Task { return n.rpciod }

// Tasks returns every task ever created on the node.
func (n *Node) Tasks() []*Task { return n.tasks }

// NewTask creates a task homed on CPU homeCPU.
func (n *Node) NewTask(name string, kind TaskKind, homeCPU int) *Task {
	if homeCPU < 0 || homeCPU >= len(n.cpus) {
		panic(fmt.Sprintf("kernel: home CPU %d out of range", homeCPU))
	}
	t := &Task{PID: n.nextPID, Name: name, Kind: kind, state: StateRunnable}
	n.nextPID++
	t.home = n.cpus[homeCPU]
	t.cpu = t.home
	n.tasks = append(n.tasks, t)
	if n.session != nil {
		n.session.RegisterProcess(trace.ProcInfo{
			PID: int64(t.PID), Name: name, Kind: procKind(kind),
		})
	}
	n.emit(trace.Event{TS: int64(n.eng.Now()), CPU: int32(homeCPU), ID: trace.EvProcessFork, Arg1: 1, Arg2: int64(t.PID)})
	return t
}

// procKind maps a scheduler task kind to the trace process table kind.
func procKind(k TaskKind) trace.ProcKind {
	switch k {
	case KindKernelDaemon:
		return trace.ProcKernelDaemon
	case KindUserDaemon:
		return trace.ProcUserDaemon
	default:
		return trace.ProcApp
	}
}

// NewDaemonTask creates a daemon task that sleeps until work is queued
// for it via DaemonWork.
func (n *Node) NewDaemonTask(name string, kind TaskKind, homeCPU int) *Task {
	if kind == KindApp {
		panic("kernel: NewDaemonTask with application kind")
	}
	t := n.NewTask(name, kind, homeCPU)
	t.state = StateBlocked
	return t
}

// emit records a tracepoint and accounts simulated tracer overhead.
func (n *Node) emit(ev trace.Event) {
	if n.session == nil {
		return
	}
	oh := n.session.Emit(ev)
	if oh > 0 {
		n.cpus[ev.CPU].tracerNS += sim.Duration(oh)
	}
}

// Boot places each runnable app task on its home CPU and starts the
// per-CPU timer ticks. It must be called once, before Run.
func (n *Node) Boot() {
	if n.booted {
		panic("kernel: node booted twice")
	}
	n.booted = true
	for _, t := range n.tasks {
		if t.Kind != KindApp || t.state != StateRunnable {
			continue
		}
		c := t.home
		if c.current == nil {
			c.current = t
			t.state = StateRunning
			t.switchIn = 0
			n.emit(trace.Event{TS: 0, CPU: int32(c.ID), ID: trace.EvSchedSwitch,
				Arg1: 0, Arg2: int64(t.PID), Arg3: trace.TaskStateBlocked})
		} else {
			c.runq = append(c.runq, t)
		}
	}
	// Stagger per-CPU ticks across the tick period, as hardware does.
	// Lightweight-kernel (tickless) nodes take no timer interrupts.
	if !n.cfg.Tickless {
		period := sim.Second / sim.Duration(n.cfg.HZ)
		for _, c := range n.cpus {
			c := c
			offset := sim.Scale(period, c.ID) / sim.Duration(len(n.cpus))
			var tick func(now sim.Time)
			tick = func(now sim.Time) {
				n.timerTick(c, now)
				n.eng.At(now+period, sim.PrioInterrupt, tick)
			}
			n.eng.At(offset, sim.PrioInterrupt, tick)
		}
	}
	if n.cfg.FavoredPeriod > 0 && n.cfg.UnfavoredPeriod > 0 {
		n.scheduleFavoredWindows()
	}
}

// scheduleFavoredWindows alternates favored (daemon-deferring) and
// unfavored (daemon-flushing) periods, the Jones et al. mitigation.
func (n *Node) scheduleFavoredWindows() {
	n.favored = true
	var flip func(now sim.Time)
	flip = func(now sim.Time) {
		if n.favored {
			// Favored window ends: release every deferred daemon wake.
			n.favored = false
			for _, d := range n.deferredWork {
				n.DaemonWork(d.task, d.cpu, d.items)
			}
			n.deferredWork = n.deferredWork[:0]
			n.eng.After(n.cfg.UnfavoredPeriod, sim.PrioKernel, flip)
			return
		}
		n.favored = true
		n.eng.After(n.cfg.FavoredPeriod, sim.PrioKernel, flip)
	}
	n.eng.After(n.cfg.FavoredPeriod, sim.PrioKernel, flip)
}

// Run boots (if needed) and advances the simulation to the horizon.
func (n *Node) Run(horizon sim.Time) {
	if !n.booted {
		n.Boot()
	}
	n.eng.Run(horizon)
	for _, c := range n.cpus {
		c.account(n.eng.Now())
	}
}

// timerTick delivers the periodic local timer interrupt on CPU c. The
// handler raises run_timer_softirq every tick, rcu_process_callbacks and
// run_rebalance_domains on their configured cadence, and performs the
// scheduler-tick preemption check.
func (n *Node) timerTick(c *CPU, now sim.Time) {
	c.tickCount++
	tick := c.tickCount
	n.deliverIRQ(c, now, trace.IRQTimer, func(t sim.Time) {
		c.raiseSoftIRQ(t, trace.SoftIRQTimer)
		if tick%int64(n.cfg.RCUTicks) == 0 {
			c.raiseSoftIRQ(t, trace.SoftIRQRCU)
		}
		if tick%int64(n.cfg.RebalanceTicks) == 0 {
			c.raiseSoftIRQ(t, trace.SoftIRQSched)
		}
		// Scheduler tick: timeslice expiry between same-class tasks.
		if cur := c.current; cur != nil && len(c.runq) > 0 {
			if t-cur.switchIn >= n.cfg.Timeslice && c.bestQueued() != nil {
				c.needResched = true
			}
		}
	})
}

// deliverIRQ models a hardware interrupt: it preempts whatever is
// executing (nesting over kernel activities), runs the handler for a
// sampled duration, and invokes inHandler at entry (to raise softirqs).
func (n *Node) deliverIRQ(c *CPU, now sim.Time, irq int64, inHandler func(now sim.Time)) {
	var dur sim.Duration
	switch irq {
	case trace.IRQTimer:
		dur = n.cfg.Model.TimerIRQ.Sample(c.rng)
	case trace.IRQNet:
		dur = n.cfg.Model.NetIRQ.Sample(c.rng)
	default:
		panic(fmt.Sprintf("kernel: unknown irq %d", irq))
	}
	c.push(now, trace.EvIRQEntry, trace.EvIRQExit, irq, dur, nil)
	if inHandler != nil {
		inHandler(now)
	}
}

// AddHRTimer arms a periodic high-resolution timer on CPU cpu, as an
// application would via timer_create/timerfd: each expiry raises its
// own local timer interrupt (handler cost dur) and runs the expired
// callback in the next run_timer_softirq. The paper's §IV-E notes that
// a timer-interrupt frequency above HZ reveals exactly such
// application-armed timers.
func (n *Node) AddHRTimer(cpu int, period sim.Duration, dur sim.Duration, fn func(now sim.Time)) {
	if period <= 0 {
		panic("kernel: AddHRTimer with non-positive period")
	}
	c := n.cpus[cpu]
	var expire func(now sim.Time)
	expire = func(now sim.Time) {
		c.push(now, trace.EvIRQEntry, trace.EvIRQExit, trace.IRQTimer, dur, nil)
		c.raiseSoftIRQ(now, trace.SoftIRQTimer)
		if fn != nil {
			fn(now)
		}
		n.eng.At(now+period, sim.PrioInterrupt, expire)
	}
	n.eng.After(period, sim.PrioInterrupt, expire)
}

// WhenUser runs fn the next time task t executes in user mode with the
// kernel idle. If that is true now, fn is queued to run via an immediate
// event. Workloads use this to issue page faults, I/O and phase markers
// from the task's own context.
func (n *Node) WhenUser(t *Task, fn func(now sim.Time)) {
	c := t.cpu
	if t.state == StateRunning && c != nil && !c.InKernel() && c.current == t {
		n.eng.At(n.eng.Now(), sim.PrioTask, func(now sim.Time) {
			if t.state == StateRunning && t.cpu != nil && !t.cpu.InKernel() && t.cpu.current == t {
				fn(now)
			} else {
				t.onResume = append(t.onResume, fn)
			}
		})
		return
	}
	t.onResume = append(t.onResume, fn)
}

// PageFault executes a page-fault exception for task t if t is currently
// executing in user mode; it reports whether the fault ran. dur<0 samples
// the model distribution.
func (n *Node) PageFault(t *Task, dur sim.Duration) bool {
	c := t.cpu
	if t.state != StateRunning || c == nil || c.current != t || c.InKernel() {
		return false
	}
	if dur < 0 {
		dur = n.cfg.Model.PageFault.Sample(c.rng)
	}
	now := n.eng.Now()
	c.push(now, trace.EvTrapEntry, trace.EvTrapExit, trace.TrapPageFault, dur, nil)
	return true
}

// TLBMiss executes a software TLB-reload exception for task t if it is
// currently executing in user mode; it reports whether the trap ran.
// dur < 0 samples the model distribution.
func (n *Node) TLBMiss(t *Task, dur sim.Duration) bool {
	c := t.cpu
	if t.state != StateRunning || c == nil || c.current != t || c.InKernel() {
		return false
	}
	if dur < 0 {
		if n.cfg.Model.TLBMiss == nil {
			return false
		}
		dur = n.cfg.Model.TLBMiss.Sample(c.rng)
	}
	c.push(n.eng.Now(), trace.EvTrapEntry, trace.EvTrapExit, trace.TrapTLBMiss, dur, nil)
	return true
}

// Syscall executes a system-call span for task t (submit cost only; the
// paper counts syscalls as requested service, not noise). It reports
// whether it ran.
func (n *Node) Syscall(t *Task, nr int64) bool {
	c := t.cpu
	if t.state != StateRunning || c == nil || c.current != t || c.InKernel() {
		return false
	}
	dur := n.cfg.Model.Syscall.Sample(c.rng)
	c.push(n.eng.Now(), trace.EvSyscallEntry, trace.EvSyscallExit, nr, dur, nil)
	return true
}

// MarkCompute emits the application compute-phase boundary markers.
func (n *Node) MarkCompute(t *Task, begin bool) {
	id := trace.EvAppComputeEnd
	if begin {
		id = trace.EvAppComputeBegin
	}
	cpu := int32(0)
	if t.cpu != nil {
		cpu = int32(t.cpu.ID)
	}
	n.emit(trace.Event{TS: int64(n.eng.Now()), CPU: cpu, ID: id, Arg1: int64(t.PID)})
}

// MarkQuantum emits an FTQ quantum boundary with the work count done.
func (n *Node) MarkQuantum(t *Task, work int64) {
	cpu := int32(0)
	if t.cpu != nil {
		cpu = int32(t.cpu.ID)
	}
	n.emit(trace.Event{TS: int64(n.eng.Now()), CPU: cpu, ID: trace.EvAppQuantum, Arg1: int64(t.PID), Arg2: work})
}
