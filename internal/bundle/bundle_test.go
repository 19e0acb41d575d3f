package bundle

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ctxdesc"
	"repro/internal/qdt"
	"repro/internal/qop"
)

func testBundle(t *testing.T) *Bundle {
	t.Helper()
	vars := qdt.NewIsingVars("ising_vars", "s", 4)
	prep := qop.New("prep", qop.PrepUniform, "ising_vars")
	meas := qop.New("measure", qop.Measurement, "ising_vars")
	meas.Result = qop.DefaultResultSchema("ising_vars", 4, "AS_BOOL", "LSB_0")
	ctx := ctxdesc.NewGate("gate.statevector", 1024, 42)
	b, err := New([]*qdt.DataType{vars}, qop.Sequence{prep, meas}, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNewStampsProvenance(t *testing.T) {
	b := testBundle(t)
	if b.Provenance == nil || b.Provenance.IntentFingerprint == "" {
		t.Fatal("provenance not stamped")
	}
	if len(b.Provenance.IntentFingerprint) != 64 {
		t.Errorf("fingerprint length %d, want 64 hex chars", len(b.Provenance.IntentFingerprint))
	}
	if b.Provenance.Version != Version {
		t.Errorf("version = %q", b.Provenance.Version)
	}
}

func TestValidateOK(t *testing.T) {
	b := testBundle(t)
	if err := b.Validate(qop.ValidateOptions{}); err != nil {
		t.Errorf("valid bundle rejected: %v", err)
	}
	if err := b.ValidateAgainstSchemas(); err != nil {
		t.Errorf("valid bundle fails schemas: %v", err)
	}
}

func TestValidateCatches(t *testing.T) {
	t.Run("empty qdts", func(t *testing.T) {
		b := testBundle(t)
		b.QDTs = nil
		if err := b.Validate(qop.ValidateOptions{}); err == nil {
			t.Error("bundle without QDTs accepted")
		}
	})
	t.Run("empty operators", func(t *testing.T) {
		b := testBundle(t)
		b.Operators = nil
		if err := b.Validate(qop.ValidateOptions{}); err == nil {
			t.Error("bundle without operators accepted")
		}
	})
	t.Run("duplicate qdt id", func(t *testing.T) {
		b := testBundle(t)
		b.QDTs = append(b.QDTs, qdt.NewIsingVars("ising_vars", "dup", 4))
		err := b.Validate(qop.ValidateOptions{})
		if err == nil || !strings.Contains(err.Error(), "duplicate") {
			t.Errorf("duplicate id not caught: %v", err)
		}
	})
	t.Run("invalid qdt", func(t *testing.T) {
		b := testBundle(t)
		b.QDTs = append(b.QDTs, qdt.New("bad", "bad", 0, "NOPE", "AS_JPEG"))
		if err := b.Validate(qop.ValidateOptions{}); err == nil {
			t.Error("invalid QDT accepted")
		}
	})
	t.Run("dangling operator register", func(t *testing.T) {
		b := testBundle(t)
		b.Operators = append(qop.Sequence{qop.New("x", qop.PrepUniform, "ghost")}, b.Operators...)
		if err := b.Validate(qop.ValidateOptions{}); err == nil {
			t.Error("dangling register not caught")
		}
	})
	t.Run("invalid context", func(t *testing.T) {
		b := testBundle(t)
		b.Context = &ctxdesc.Context{Schema: ctxdesc.SchemaName, Anneal: &ctxdesc.Anneal{NumReads: 0}}
		if err := b.Validate(qop.ValidateOptions{}); err == nil {
			t.Error("invalid context not caught")
		}
	})
	t.Run("wrong schema", func(t *testing.T) {
		b := testBundle(t)
		b.Schema = "nope.json"
		if err := b.Validate(qop.ValidateOptions{}); err == nil {
			t.Error("wrong $schema not caught")
		}
	})
}

func TestQDTLookup(t *testing.T) {
	b := testBundle(t)
	d, err := b.QDT("ising_vars")
	if err != nil || d.Width != 4 {
		t.Errorf("QDT lookup: %v, %v", d, err)
	}
	if _, err := b.QDT("missing"); err == nil {
		t.Error("missing QDT lookup succeeded")
	}
}

func TestFingerprintContextIndependence(t *testing.T) {
	// The E9 core property: the fingerprint hashes only intent, so two
	// bundles differing only in context have identical fingerprints.
	b := testBundle(t)
	fpGate, err := b.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	annealCtx := ctxdesc.NewAnneal("anneal.sa", 1000, 7)
	b2 := b.WithContext(annealCtx)
	fpAnneal, err := b2.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpGate != fpAnneal {
		t.Errorf("fingerprint changed with context: %s vs %s", fpGate, fpAnneal)
	}
	// But changing intent changes it.
	b3 := testBundle(t)
	b3.Operators[0].SetParam("anything", 1)
	fp3, _ := b3.Fingerprint()
	if fp3 == fpGate {
		t.Error("intent change did not change fingerprint")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	b := testBundle(t)
	path := filepath.Join(t.TempDir(), "job.json")
	if err := b.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path, qop.ValidateOptions{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(back.QDTs) != 1 || len(back.Operators) != 2 {
		t.Errorf("round trip lost artifacts: %d qdts, %d ops", len(back.QDTs), len(back.Operators))
	}
	fpA, _ := b.Fingerprint()
	fpB, _ := back.Fingerprint()
	if fpA != fpB {
		t.Errorf("fingerprint not stable across save/load: %s vs %s", fpA, fpB)
	}
	if back.Context == nil || back.Context.Exec.Seed != 42 {
		t.Error("context lost in round trip")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.json"), qop.ValidateOptions{}); err == nil {
		t.Error("missing file load succeeded")
	}
}

func TestFromJSONRejectsInvalid(t *testing.T) {
	if _, err := FromJSON([]byte(`{`), qop.ValidateOptions{}); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := FromJSON([]byte(`{"$schema":"job.schema.json","qdts":[],"operators":[]}`), qop.ValidateOptions{}); err == nil {
		t.Error("empty bundle accepted")
	}
}
