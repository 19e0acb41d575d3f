package backend

import (
	"testing"

	"repro/internal/ctxdesc"
)

func TestNoiseFromOptionsAbsent(t *testing.T) {
	nm, err := noiseFromOptions(ctxdesc.New())
	if err != nil || !nm.Zero() {
		t.Errorf("empty context noise = %+v, %v", nm, err)
	}
	ctx := ctxdesc.NewGate("g", 1, 0)
	nm, err = noiseFromOptions(ctx)
	if err != nil || !nm.Zero() {
		t.Errorf("no-options noise = %+v, %v", nm, err)
	}
}

func TestNoiseFromOptionsParses(t *testing.T) {
	ctx := ctxdesc.NewGate("g", 1, 0)
	ctx.Exec.Options = map[string]any{
		"noise": map[string]any{"prob_1q": 0.01, "prob_2q": 0.05, "readout_flip": 0.02},
	}
	nm, err := noiseFromOptions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if nm.Prob1Q != 0.01 || nm.Prob2Q != 0.05 || nm.ReadoutFlip != 0.02 {
		t.Errorf("parsed noise = %+v", nm)
	}
}

func TestNoiseFromOptionsRejects(t *testing.T) {
	cases := []struct {
		name  string
		block any
	}{
		{"non-object", "loud"},
		{"mistyped field", map[string]any{"prob_1q": "high"}},
		{"out of range", map[string]any{"prob_2q": 1.5}},
		{"negative", map[string]any{"readout_flip": -0.1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := ctxdesc.NewGate("g", 1, 0)
			ctx.Exec.Options = map[string]any{"noise": tc.block}
			if _, err := noiseFromOptions(ctx); err == nil {
				t.Error("invalid noise block accepted")
			}
		})
	}
}

func TestGateBackendNoisyRunEndToEnd(t *testing.T) {
	ctx := ctxdesc.NewGate("gate.statevector", 1024, 3)
	ctx.Exec.Options = map[string]any{
		"noise": map[string]any{"prob_1q": 0.02, "prob_2q": 0.05},
	}
	res, err := run(&Gate{engine: "gate.statevector"}, gateMaxCutBundle(t, 0.5, 0.3, ctx), ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Meta["noise"]; !ok {
		t.Error("noise model missing from meta")
	}
	total := 0
	for _, e := range res.Entries {
		total += e.Count
	}
	if total != 1024 {
		t.Errorf("noisy run returned %d samples", total)
	}
}
