package kernel

import (
	"fmt"

	"osnoise/internal/sim"
	"osnoise/internal/trace"
)

// activity is one kernel execution span on a CPU: an interrupt handler,
// a softirq, an exception, a syscall, or a schedule() call. Activities
// nest: a hardware interrupt may arrive while a softirq runs, in which
// case the softirq is paused (its scheduled exit cancelled, remaining
// time saved) and resumed when the interrupt handler returns.
type activity struct {
	entry     trace.ID
	exit      trace.ID
	vec       int64        // irq line / softirq vector / trap number / syscall number
	remaining sim.Duration // time still to run when paused
	exitTime  sim.Time     // scheduled completion time while running
	exitRef   sim.EventRef // scheduled completion while running
	onDone    func(now sim.Time)
}

// CPU is one simulated processor: an activity stack (kernel context),
// the currently running task, and a runqueue of waiting tasks.
type CPU struct {
	ID   int
	node *Node
	rng  *sim.RNG

	// stack holds the activities by value; a pointer into it (top) is
	// valid only until the next push.
	stack       []activity
	finish      sim.Handler // finishTop, bound once so scheduleExit allocates no closure
	pendingSoft []int64     // raised softirq vectors awaiting processing

	current *Task
	runq    []*Task

	needResched bool
	deferred    []func(now sim.Time) // work to run at next kernel-idle

	// Accounting.
	lastFlip  sim.Time
	kernelNS  sim.Time
	idleNS    sim.Time
	tracerNS  sim.Time
	tickCount int64
	inSched   bool // a schedule() span is in flight; suppress re-entry
}

// Current returns the running task (nil when idle).
func (c *CPU) Current() *Task { return c.current }

// KernelNS returns the cumulative time this CPU spent in kernel
// activities (the union of all spans: nested time counts once).
func (c *CPU) KernelNS() sim.Time { return c.kernelNS }

// IdleNS returns the cumulative idle time.
func (c *CPU) IdleNS() sim.Time { return c.idleNS }

// TracerNS returns the simulated instrumentation cost charged to this
// CPU (tracer overhead accounting; does not perturb event timing).
func (c *CPU) TracerNS() sim.Time { return c.tracerNS }

// InKernel reports whether a kernel activity is executing.
func (c *CPU) InKernel() bool { return len(c.stack) > 0 }

// SyncAccounting closes the open accounting interval so that UserNS,
// KernelNS and IdleNS are current as of now. Needed by measurement
// workloads (FTQ) that read accounting mid-run.
func (c *CPU) SyncAccounting(now sim.Time) { c.account(now) }

// RunqueueLen returns the number of runnable (not running) tasks queued.
func (c *CPU) RunqueueLen() int { return len(c.runq) }

// account closes the accounting interval [lastFlip, now], attributing it
// to kernel, idle, or the current task's own execution.
func (c *CPU) account(now sim.Time) {
	delta := now - c.lastFlip
	if delta < 0 {
		panic(fmt.Sprintf("kernel: cpu%d accounting going backwards (%v -> %v)", c.ID, c.lastFlip, now))
	}
	switch {
	case len(c.stack) > 0:
		c.kernelNS += delta
	case c.current == nil:
		c.idleNS += delta
	default:
		c.current.userNS += delta
	}
	c.lastFlip = now
}

// push starts a new kernel activity at time now, pausing whatever was
// executing. dur is the activity's own cost (nested interruptions extend
// its wall-clock span but not its cost).
func (c *CPU) push(now sim.Time, entry, exit trace.ID, vec int64, dur sim.Duration, onDone func(now sim.Time)) {
	c.account(now)
	// Pause the interrupted activity, saving its remaining cost. If the
	// top is already paused (its exit cancelled earlier), keep the saved
	// remainder untouched.
	if top := c.top(); top != nil && top.exitRef.Pending() {
		top.remaining = top.exitTime - now
		if top.remaining < 0 {
			top.remaining = 0
		}
		top.exitRef.Cancel()
	}
	c.stack = append(c.stack, activity{entry: entry, exit: exit, vec: vec, onDone: onDone})
	c.node.emit(trace.Event{TS: int64(now), CPU: int32(c.ID), ID: entry, Arg1: vec, Arg2: c.currentPID()})
	c.top().scheduleExit(c, now+dur)
}

// scheduleExit arranges the activity to finish at time at.
func (a *activity) scheduleExit(c *CPU, at sim.Time) {
	a.exitTime = at
	a.exitRef = c.node.eng.At(at, sim.PrioKernel, c.finish)
}

// finishTop completes the top-of-stack activity: emits its exit event,
// resumes the activity below (or processes pending softirqs / deferred
// work when the stack empties).
func (c *CPU) finishTop(now sim.Time) {
	if len(c.stack) == 0 {
		panic(fmt.Sprintf("kernel: cpu%d finishTop on empty stack", c.ID))
	}
	c.account(now)
	// Copy the activity out before popping it: onDone may push into the
	// slot it leaves.
	top := c.stack[len(c.stack)-1]
	c.stack[len(c.stack)-1] = activity{}
	c.stack = c.stack[:len(c.stack)-1]
	c.node.emit(trace.Event{TS: int64(now), CPU: int32(c.ID), ID: top.exit, Arg1: top.vec, Arg2: c.currentPID()})
	depth := len(c.stack)
	if top.onDone != nil {
		top.onDone(now)
	}
	if len(c.stack) > depth {
		// onDone entered the kernel again (e.g. the scheduler pushed its
		// second span); the paused activities resume when it unwinds.
		return
	}
	if next := c.top(); next != nil {
		// Resume the paused activity for its remaining cost.
		next.scheduleExit(c, now+next.remaining)
		return
	}
	c.kernelBecameIdle(now)
}

// kernelBecameIdle runs when the activity stack empties: pending
// softirqs execute first (Linux's irq_exit → do_softirq), then deferred
// work, then the scheduler's preemption check, then workload
// continuations of the (possibly new) current task.
func (c *CPU) kernelBecameIdle(now sim.Time) {
	if len(c.pendingSoft) > 0 {
		vec := c.pendingSoft[0]
		c.pendingSoft = c.pendingSoft[1:]
		c.runSoftIRQ(now, vec)
		return
	}
	c.account(now)
	for len(c.deferred) > 0 {
		fn := c.deferred[0]
		c.deferred = c.deferred[1:]
		fn(now)
		if len(c.stack) > 0 {
			return // deferred work entered the kernel; resume later
		}
	}
	if c.needResched && !c.inSched {
		c.needResched = false
		c.node.reschedule(c, now)
		return
	}
	// Workload continuations run only for a genuinely running task — a
	// task that just marked itself blocked (awaiting its switch-out)
	// must not see its resume callbacks yet.
	if c.current != nil && c.current.state == StateRunning && len(c.current.onResume) > 0 {
		fn := c.current.onResume[0]
		c.current.onResume = c.current.onResume[1:]
		fn(now)
		if len(c.stack) == 0 && c.current != nil && len(c.current.onResume) > 0 {
			// Let remaining continuations run without recursion.
			c.node.eng.At(now, sim.PrioTask, func(t sim.Time) {
				if len(c.stack) == 0 {
					c.kernelBecameIdle(t)
				}
			})
		}
	}
}

// runSoftIRQ executes one softirq (or network tasklet) span.
func (c *CPU) runSoftIRQ(now sim.Time, vec int64) {
	m := &c.node.cfg.Model
	var dur sim.Duration
	entry, exit := trace.EvSoftIRQEntry, trace.EvSoftIRQExit
	var onDone func(sim.Time)
	switch vec {
	case trace.SoftIRQTimer:
		dur = m.TimerSoftIRQ.Sample(c.rng)
	case trace.SoftIRQRCU:
		dur = m.RCUSoftIRQ.Sample(c.rng)
	case trace.SoftIRQSched:
		dur = m.RebalanceSoftIRQ.Sample(c.rng)
		onDone = func(t sim.Time) { c.node.rebalance(c, t) }
	case trace.SoftIRQNetRx:
		// net_rx_action is a tasklet in the paper's terminology.
		entry, exit = trace.EvTaskletEntry, trace.EvTaskletExit
		dur = m.NetRx.Sample(c.rng)
		onDone = func(t sim.Time) { c.node.nic.rxDone(c, t) }
	case trace.SoftIRQNetTx:
		entry, exit = trace.EvTaskletEntry, trace.EvTaskletExit
		dur = m.NetTx.Sample(c.rng)
	default:
		panic(fmt.Sprintf("kernel: unknown softirq vector %d", vec))
	}
	c.push(now, entry, exit, vec, dur, onDone)
}

// raiseSoftIRQ queues a softirq for execution when the stack unwinds.
// Tasklets of the same type are serialised by construction: the pending
// list is processed one vector at a time on this CPU.
func (c *CPU) raiseSoftIRQ(now sim.Time, vec int64) {
	c.node.emit(trace.Event{TS: int64(now), CPU: int32(c.ID), ID: trace.EvSoftIRQRaise, Arg1: vec})
	c.pendingSoft = append(c.pendingSoft, vec)
}

// deferToKernelIdle queues fn to run when this CPU's kernel context next
// unwinds. If the CPU is already in user/idle context, fn runs via an
// immediate event (not inline) to keep stack depth bounded.
func (c *CPU) deferToKernelIdle(now sim.Time, fn func(now sim.Time)) {
	if len(c.stack) == 0 && len(c.pendingSoft) == 0 {
		c.node.eng.At(now, sim.PrioKernel, func(t sim.Time) {
			if len(c.stack) == 0 && len(c.pendingSoft) == 0 {
				fn(t)
			} else {
				c.deferred = append(c.deferred, fn)
			}
		})
		return
	}
	c.deferred = append(c.deferred, fn)
}

// top returns the innermost activity, nil when the stack is empty. The
// pointer is into the stack and is invalidated by the next push.
func (c *CPU) top() *activity {
	if len(c.stack) == 0 {
		return nil
	}
	return &c.stack[len(c.stack)-1]
}

func (c *CPU) currentPID() int64 {
	if c.current == nil {
		return 0
	}
	return int64(c.current.PID)
}
