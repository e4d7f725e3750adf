package trace

// Collector accumulates events from a session during a run, playing the
// role of LTTng's consumer daemon: it periodically takes each per-CPU
// channel's full sub-buffers so the rings can stay small even for long
// traces. Wire its Drain method to a periodic callback (e.g. a virtual
// timer on the simulated node), then call Finalize once at the end.
//
// It keeps, per CPU, the list of sub-buffers taken from that CPU's ring,
// in ring order, and copies no event: Finalize merges the lists
// (MergeStreams) into the trace, whose event slice is the only copy.
type Collector struct {
	session *Session
	subBufs [][][]Event // per CPU, the sub-buffers taken, in ring order
}

// NewCollector returns a collector for s.
func NewCollector(s *Session) *Collector {
	return &Collector{session: s, subBufs: make([][][]Event, s.cfg.CPUs)}
}

// Drain takes every fully committed sub-buffer on every CPU.
func (c *Collector) Drain() {
	for cpu, r := range c.session.rings {
		c.subBufs[cpu] = r.Take(c.subBufs[cpu])
	}
}

// Len returns the number of events accumulated so far.
func (c *Collector) Len() int {
	n := 0
	for _, bufs := range c.subBufs {
		for _, b := range bufs {
			n += len(b)
		}
	}
	return n
}

// Finalize stops the session, takes everything remaining (including
// partial sub-buffers) onto each CPU's list, and returns the complete
// trace with the per-CPU streams merged by (TS, CPU).
func (c *Collector) Finalize() *Trace {
	c.session.Stop()
	tr := &Trace{CPUs: c.session.cfg.CPUs, Lost: c.session.Lost(), Procs: c.session.Processes()}
	for cpu, r := range c.session.rings {
		c.subBufs[cpu] = r.TakeRest(c.subBufs[cpu])
	}
	tr.Events = MergeStreams(c.subBufs)
	clear(c.subBufs)
	return tr
}
