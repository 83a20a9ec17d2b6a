package dsm

import "nowomp/internal/engine"

// Parallel-construct coordination. The OpenMP layer drives every
// construct — loop bodies and task regions alike — on a deterministic
// discrete-event engine (internal/engine): team processes are
// coroutines, exactly one runs at a time, and the engine always wakes
// the runnable proc with the lowest virtual time. The cluster only
// needs to know which engine is driving the current construct so that
// blocking primitives (lock acquires) can park the calling proc on it.

// BeginPhase attaches the engine driving the parallel construct that
// is about to run. Called by the OpenMP runtime at fork (and by the
// task runner at region start), with no construct active.
func (c *Cluster) BeginPhase(e *engine.Engine) {
	c.eng = e
}

// EndPhase detaches the construct's engine at the join.
func (c *Cluster) EndPhase() {
	c.eng = nil
}

// runningProc returns the engine proc currently holding the token, or
// nil outside any engine-driven construct (sequential sections, unit
// tests driving the cluster directly).
func (c *Cluster) runningProc() *engine.Proc {
	if c.eng == nil {
		return nil
	}
	return c.eng.Running()
}
