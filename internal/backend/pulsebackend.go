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

// Execute schedules the bundle's pulse realization (RealizeCircuit: the
// circuit transpiled to the Listing-4 basis). Scheduling is serial and
// untimed, so the options are ignored.
func (p *Pulse) Execute(b *bundle.Bundle, _ ExecOptions) (*result.Result, error) {
	r, err := RealizeCircuit(b, true, ExecOptions{})
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
