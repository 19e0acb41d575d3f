package backend

import (
	"repro/internal/algolib"
	"repro/internal/bundle"
	"repro/internal/ctxdesc"
	"repro/internal/pulse"
	"repro/internal/qop"
	"repro/internal/result"
	"repro/internal/transpile"
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

// Execute lowers, transpiles to the Listing-4 basis (pulse hardware
// drives a calibrated native set), and schedules. Scheduling is serial
// and untimed, so the options are ignored.
func (p *Pulse) Execute(b *bundle.Bundle, _ ExecOptions) (*result.Result, error) {
	if err := b.Validate(qop.ValidateOptions{}); err != nil {
		return nil, err
	}
	regs := algolib.Registers{}
	for _, d := range b.QDTs {
		regs[d.ID] = d
	}
	lowered, err := algolib.Lower(b.Operators, regs)
	if err != nil {
		return nil, err
	}
	ctx := b.Context
	if ctx == nil {
		ctx = ctxdesc.New()
	}
	opts := transpile.FromContext(ctx)
	if len(opts.BasisGates) == 0 {
		opts.BasisGates = []string{"sx", "rz", "cx"}
	}
	tr, err := transpile.Transpile(lowered.Circuit, opts)
	if err != nil {
		return nil, err
	}
	cfg := pulse.FromContext(ctx.Pulse)
	sched, err := pulse.Lower(tr.Circuit, cfg)
	if err != nil {
		return nil, err
	}
	meta := map[string]any{
		"transpile": tr.Stats,
		"pulse": PulseInfo{
			TotalDurationNS: sched.TotalDurationNS,
			OpCount:         len(sched.Ops),
			CriticalPathLen: len(sched.CriticalPath()),
			PerQubitBusyNS:  sched.PerQubitBusyNS,
		},
	}
	return &result.Result{Engine: p.engine, Samples: 0, Meta: meta}, nil
}
