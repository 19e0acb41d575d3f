package backend

import (
	"repro/internal/bundle"
	"repro/internal/pulse"
	"repro/internal/result"
)

// Pulse is the pulse-model backend: it realizes the bundle as a timed
// pulse schedule and reports duration costs instead of sampled counts.
// (The paper lists pulse/control among the orthogonal context services;
// this engine is the realization path for exec.engine = "pulse.model".)
type Pulse struct {
	engine string
}

// Name implements Backend.
func (p *Pulse) Name() string { return p.engine }

// PulseInfo is the meta record the pulse engine produces.
type PulseInfo struct {
	TotalDurationNS float64
	OpCount         int
	CriticalPathLen int
	PerQubitBusyNS  []float64
}

// Prepare implements Backend: a pulse bundle keeps nothing between
// points, so each point schedules its own concrete bundle.
func (p *Pulse) Prepare(_ *bundle.Bundle, o ExecOptions) (Prepared, error) {
	return PerPoint(p.execute, o), nil
}

// execute schedules the bundle's pulse realization (RealizeCircuit: the
// circuit transpiled to the Listing-4 basis). o.Stages hears "transpile"
// from the realization; scheduling is serial and untimed, so the other
// options are ignored.
func (p *Pulse) execute(b *bundle.Bundle, o ExecOptions) (*result.Result, error) {
	r, err := RealizeCircuit(b, true, o)
	if err != nil {
		return nil, err
	}
	sched, err := pulse.Lower(r.Circuit, pulse.FromContext(r.Context.Pulse))
	if err != nil {
		return nil, err
	}
	meta := map[string]any{
		"transpile": r.Transpiled.Stats,
		"pulse": PulseInfo{
			TotalDurationNS: sched.TotalDurationNS,
			OpCount:         len(sched.Ops),
			CriticalPathLen: len(sched.CriticalPath()),
			PerQubitBusyNS:  sched.PerQubitBusyNS,
		},
	}
	return &result.Result{Engine: p.engine, Samples: 0, Meta: meta}, nil
}
