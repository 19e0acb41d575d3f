package sim

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// validKinds is the label enum the profiler may emit.
var validKinds = map[string]bool{
	"gate1q": true, "gate2q": true, "monomial": true, "diag": true,
	"permute": true, "ctrlphase": true, "init": true,
}

// TestProfileParity is the profiling-is-free contract: with identical
// options plus Profile, amplitudes and sampled counts are bit-identical
// to the unprofiled run — across shard grants {1, 4, GOMAXPROCS}.
func TestProfileParity(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	c := randomMixedCircuit(r, 10, 80)
	c.MeasureAll()
	pl := mustCompile(t, c)
	for _, shards := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		base, baseSt := runKept(t, c, pl, Options{Shots: 1500, Seed: 7, Shards: shards})
		prof, profSt := runKept(t, c, pl, Options{Shots: 1500, Seed: 7, Shards: shards, Profile: true})
		if base.Profile != nil {
			t.Fatal("Profile set without Options.Profile")
		}
		if prof.Profile == nil {
			t.Fatal("Options.Profile set but Result.Profile is nil")
		}
		for i := uint64(0); i < uint64(baseSt.Dim()); i++ {
			// Exact equality — profiling wraps timers around sweeps, it must
			// never reorder or regroup the arithmetic.
			if a, b := baseSt.Amplitude(i), profSt.Amplitude(i); a != b {
				t.Fatalf("shards=%d amp[%d]: unprofiled %v != profiled %v", shards, i, a, b)
			}
		}
		if !reflect.DeepEqual(base.Counts, prof.Counts) {
			t.Fatalf("shards=%d: counts differ between profiled and unprofiled runs", shards)
		}
	}
}

// TestProfileContents sanity-checks the kernel table itself: every row
// carries a known kind, execution-order indexes, shard bounds that
// bracket the kernel time, and a total equal to the rowwise sum.
func TestProfileContents(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	c := randomMixedCircuit(r, 9, 60)
	for _, shards := range []int{1, 4} {
		res, err := Run(c, Options{Shards: shards, Profile: true})
		if err != nil {
			t.Fatal(err)
		}
		p := res.Profile
		if p == nil || len(p.Kernels) == 0 {
			t.Fatalf("shards=%d: empty profile", shards)
		}
		if p.Shards != shards {
			t.Fatalf("profile shards = %d, want %d", p.Shards, shards)
		}
		var total int64
		for i, k := range p.Kernels {
			if k.Index != i {
				t.Fatalf("kernel %d has index %d, want execution order", i, k.Index)
			}
			if !validKinds[k.Kind] {
				t.Fatalf("kernel %d has unknown kind %q", i, k.Kind)
			}
			if k.Support == 0 {
				t.Fatalf("kernel %d (%s) has empty support", i, k.Kind)
			}
			if k.ShardMinNs > k.ShardMaxNs {
				t.Fatalf("kernel %d: shard min %d > max %d", i, k.ShardMinNs, k.ShardMaxNs)
			}
			if k.Ns < 0 || k.ShardMinNs < 0 {
				t.Fatalf("kernel %d: negative timing", i)
			}
			if k.Imbalance < 0 || (shards == 1 && k.Imbalance > 1.000001 && k.ShardMaxNs > 0) {
				t.Fatalf("kernel %d: imbalance %v impossible for %d shard(s)", i, k.Imbalance, shards)
			}
			total += k.Ns
		}
		if total != p.TotalNs {
			t.Fatalf("TotalNs %d != sum of kernel rows %d", p.TotalNs, total)
		}
	}
}

// TestExecuteProfiledMatchesExecute proves the plan-level entry point
// yields the same final state as plain Execute.
func TestExecuteProfiledMatchesExecute(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	c := randomMixedCircuit(r, 8, 50)
	pl, err := Compile(c)
	if err != nil {
		t.Fatal(err)
	}
	plain := mustStateQuick(8)
	if err := pl.Execute(plain, 4); err != nil {
		t.Fatal(err)
	}
	profiled := mustStateQuick(8)
	prof, err := pl.ExecuteProfiled(profiled, 4)
	if err != nil {
		t.Fatal(err)
	}
	if prof == nil || len(prof.Kernels) == 0 {
		t.Fatal("ExecuteProfiled returned an empty profile")
	}
	for i := uint64(0); i < uint64(plain.Dim()); i++ {
		if a, b := plain.Amplitude(i), profiled.Amplitude(i); a != b {
			t.Fatalf("amp[%d]: %v != %v", i, a, b)
		}
	}
}
