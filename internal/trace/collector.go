package trace

// Collector accumulates events from a session during a run, playing the
// role of LTTng's consumer daemon: it periodically drains each per-CPU
// channel's full sub-buffers so the rings can stay small even for long
// traces. Wire its Drain method to a periodic callback (e.g. a virtual
// timer on the simulated node), then call Finalize once at the end.
//
// It keeps one stream per CPU, in that CPU's emission order, and
// Finalize merges the streams (MergeStreams) rather than sorting the
// whole trace.
type Collector struct {
	session *Session
	streams [][]Event // per CPU, in ring order
}

// NewCollector returns a collector for s.
func NewCollector(s *Session) *Collector {
	return &Collector{session: s, streams: make([][]Event, s.cfg.CPUs)}
}

// Drain consumes every fully committed sub-buffer on every CPU.
func (c *Collector) Drain() {
	for cpu := range c.streams {
		c.streams[cpu] = c.session.DrainCPU(cpu, c.streams[cpu])
	}
}

// Len returns the number of events accumulated so far.
func (c *Collector) Len() int {
	n := 0
	for _, s := range c.streams {
		n += len(s)
	}
	return n
}

// Finalize stops the session, flushes everything remaining (including
// partial sub-buffers) onto each CPU's stream, and returns the complete
// trace with the streams merged by (TS, CPU).
func (c *Collector) Finalize() *Trace {
	c.session.Stop()
	tr := &Trace{CPUs: c.session.cfg.CPUs, Lost: c.session.Lost(), Procs: c.session.Processes()}
	for cpu, r := range c.session.rings {
		c.streams[cpu] = r.Flush(c.streams[cpu])
	}
	tr.Events = MergeStreams(c.streams)
	clear(c.streams)
	return tr
}
