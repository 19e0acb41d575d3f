// Package backend implements the execution backends the context
// descriptor's exec.engine selects: the gate-model statevector path (the
// paper's IBM Qiskit Aer substitute), the simulated-annealing path (the
// D-Wave Ocean neal substitute), and a pulse-model path. A registry maps
// engine names — including the paper's own "gate.aer_simulator" and the
// Ocean-style "anneal.neal" — to implementations.
package backend

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/bundle"
	"repro/internal/result"
)

// Backend executes a validated job bundle.
type Backend interface {
	// Name is the canonical engine name.
	Name() string
	// Execute realizes and runs the bundle, returning decoded results. An
	// engine ignores the options it cannot use.
	Execute(b *bundle.Bundle, o ExecOptions) (*result.Result, error)
}

// StageFunc receives one callback per pipeline stage a backend times
// ("transpile", "compile", "execute", "sample") with its wall-clock
// duration. The jobs layer turns these into per-job span logs.
type StageFunc func(stage string, d time.Duration)

// ExecOptions is how an execution is scheduled and observed — never what
// it computes: results are bit-identical for any value. Shards is the
// parallelism grant (≤ 0 lets the engine choose; the serving layer's
// scheduler gives a large lone simulation every shard and keeps
// concurrent small jobs single-shard), Stages an optional per-stage
// timing callback, Profile requests the kernel-granular profile (the
// sim.Profile kernel table for the gate engine) under Meta["profile"].
type ExecOptions struct {
	Shards  int
	Stages  StageFunc
	Profile bool
}

// stage reports the time since start as one pipeline stage, if anyone
// listens.
func (o ExecOptions) stage(name string, start time.Time) {
	if o.Stages != nil {
		o.Stages(name, time.Since(start))
	}
}

// DefaultShots is used when the context specifies no sample count.
const DefaultShots = 1024

// registryMu guards registry: the serving layer resolves engines from
// concurrent worker goroutines while tests inject fakes via Register.
var registryMu sync.RWMutex

var registry = map[string]func() Backend{
	"gate.statevector":   func() Backend { return &Gate{engine: "gate.statevector"} },
	"gate.aer_simulator": func() Backend { return &Gate{engine: "gate.aer_simulator"} },
	"anneal.sa":          func() Backend { return &Anneal{engine: "anneal.sa"} },
	"anneal.neal":        func() Backend { return &Anneal{engine: "anneal.neal"} },
	"pulse.model":        func() Backend { return &Pulse{engine: "pulse.model"} },
}

// Get returns a fresh backend instance for the engine name. Safe for
// concurrent use.
func Get(engine string) (Backend, error) {
	registryMu.RLock()
	f, ok := registry[engine]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("backend: unknown engine %q (known: %v)", engine, Engines())
	}
	return f(), nil
}

// Register installs (or replaces) an engine constructor under the given
// name. The jobs layer and tests use it to inject fake backends; the
// constructor must return a new instance per call since backends execute
// concurrently. It returns the previous constructor, or nil, so callers
// can restore it.
func Register(engine string, f func() Backend) func() Backend {
	if engine == "" || f == nil {
		panic("backend: Register requires a non-empty name and constructor")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	prev := registry[engine]
	registry[engine] = f
	return prev
}

// Unregister removes an engine from the registry (test teardown for
// engines injected via Register).
func Unregister(engine string) {
	registryMu.Lock()
	defer registryMu.Unlock()
	delete(registry, engine)
}

// Engines returns the registered engine names, sorted. Safe for
// concurrent use.
func Engines() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
