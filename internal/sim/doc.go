// Package sim implements the statevector simulator backing the middle
// layer's gate path — the substitute for the paper's IBM Qiskit Aer state
// vector simulator.
//
// The simulator stores all 2^n complex amplitudes, applies unitary gates
// exactly, and samples measurement outcomes from the Born distribution
// with a seeded generator. The state vector is the hot data structure and
// every gate is a bandwidth-bound sweep over it, so in the HPC spirit of
// the paper the engine is organized around minimizing sweep count and
// memory traffic rather than per-gate convenience.
//
// # Compile → fuse → shard
//
// Execution is a three-stage pipeline:
//
//  1. Compile lowers a circuit.Circuit into a kernel Plan. Runs of
//     single-qubit gates on the same qubit fold into one 2×2 matrix,
//     consecutive diagonal/phase gates (CZ, CP, Diagonal) merge into a
//     single phase-table kernel, and the controlled permutations (CX,
//     SWAP, CCX, CSWAP) specialize to subspace pair exchanges. Chains of
//     CX/CZ/CP/SWAP on one qubit pair additionally fuse — together with
//     the single-qubit gates surrounding them on either qubit and any
//     pair-local diagonals — into a dense 4×4 kernel swept over the
//     2^(n-2) amplitude quadruples, so an entangler sandwich that would
//     cost three to five full-state sweeps runs as one (PlanStats.Fused2Q
//     counts the wins). A two-qubit gate with nothing to fold keeps its
//     cheaper specialized form. The compiler may hop over commuting
//     kernels (disjoint qubit support, or mutually diagonal) to find a
//     fusion partner, so a deep circuit becomes far fewer sweeps than it
//     has gates. All static validation happens here; executing a compiled
//     plan performs no per-gate checks. At finalize, any dense 4×4 that
//     ended up monomial — permutation × phase, the shape pure CX/CZ/SWAP
//     chains (plus X/Z/S-style 1Q gates) fuse to — is decomposed once
//     (PlanStats.Monomial2Q) and executes on a 4-multiply sweep instead
//     of the dense kernel's 16 multiplies + 12 adds, ~2.3× on
//     chain-heavy circuits.
//
//  2. Kernels iterate their natural index space directly instead of
//     scanning all 2^n indices and branching: a one-qubit kernel walks the
//     2^(n-1) amplitude pairs, a two-qubit dense kernel the 2^(n-2)
//     quadruples, a controlled permutation only the 2^(n-k) indices its k
//     constrained bits select. High-stride kernels (target qubits whose
//     pair halves sit far apart) run in cache-blocked order: the index
//     expansion hoists out of the inner loop and the two (or four)
//     quadrant streams advance through bounded contiguous runs that stay
//     cache-resident while they are transformed.
//
//  3. Execute sweeps each kernel across a persistent shard pool: the
//     index space splits into P contiguous shards owned by long-lived
//     workers that barrier between kernels, instead of forking and
//     joining a fresh goroutine set per gate. The shard count is an
//     execution option (Options.Shards, Plan.Execute) plumbed down from
//     the serving layer, which grants a large lone simulation all shards
//     while concurrent small jobs stay single-shard; 0 selects
//     automatically. The full-sweep reductions (State.Norm,
//     State.ExpectationDiagonal, the sampling CDF in Run) parallelize
//     over the same shard machinery.
//
// Evolve and Run compile internally, so callers keep the one-call API;
// Compile and Plan.Execute are exported for callers that reuse a plan
// across states.
//
// One executor, one validation site, one pool — noise trajectories
// included. A gate reaches a state in exactly one way: Compile lowers and
// checks it (qubit bounds, distinct operands, table sizes, init
// normalization), and kernel.apply sweeps it across a shard pool whose
// width is the caller's grant. RunNoisy is no exception: an error may
// follow any gate, so it compiles the circuit with fusion off — one
// kernel per instruction — and each trajectory worker applies those
// kernels, plus a Pauli kernel wherever a draw fires, on two arenas: its
// Runner's state and a branch state beside it. State itself has no gate
// methods; a per-gate consumer compiles a one-instruction circuit.
//
// Trajectories share their error-free prefix, and the sharing is exact.
// A trajectory's error draws never read the state — after each gate one
// uniform per operand, and a Pauli index when it fires — so a worker reads
// every shot's stream, on a copy, up to its first error before it evolves
// anything, in the order the seeded stream has always defined, and knows
// after which kernel each shot's first error lands. It walks one
// error-free evolution forward once, in the order of those first errors; a
// shot branches off by copying the planes into its second arena, redraws
// its errors from the start of its stream, applying them and its suffix
// there, and a shot that drew no error samples the error-free
// final state. Up to its first error a shot is exactly the error-free
// evolution — the same kernels on the same amplitudes, which no shard
// split can change since kernels hold no reductions — so every amplitude,
// and every count, is bit-identical to evolving shot by shot; the outcome
// draw and readout flips continue on the shot's own stream, and counts
// are a sum, so the visiting order is invisible. What would move counts
// is fusing kernels between injection points, which changes rounding.
//
// # Runner: one arena, many runs
//
// Everything a run needs that is O(2^n) lives in a Runner: the shard
// pool, the two aligned planes (and, through the State, its lazily
// allocated staging planes), the 2^n-entry sampling CDF and its per-block
// sums. Run and RunPlan build a Runner, run once and close it; a caller
// with many plans of one qubit count — a sweep lane binding point after
// point — keeps its Runner, and a warm run allocates only what it
// returns (the Counts map, the profile) plus one closure per kernel,
// nothing that grows with the state. What reuse costs is the reset: every
// run begins by clearing both planes to |0…0⟩ on the pool, 16·2^n bytes
// of streaming writes, which is the very pass a fresh state gets as its
// first touch. There is no second execution path — fresh or reused, the
// same reset, kernels, CDF build and sampling run over the same data —
// so amplitudes and counts cannot depend on what a Runner ran before
// (runner_test.go pins it bitwise); the staging planes and the CDF are
// fully overwritten before they are read. With KeepState the Result takes
// the state and the Runner allocates new planes next time. A Runner is
// single-goroutine; concurrent sweep lanes and trajectory workers each
// own one (a trajectory worker's branch state shares its pool and its
// staging planes).
//
// # Parametric plans
//
// A circuit whose rotation angles carry symbolic ParamRefs (the sweep
// path: algolib.LowerParametric) compiles once with CompileParametric
// into a ParamPlan. Compilation runs the ordinary fusion pipeline on a
// placeholder binding and records, per parameter-dependent kernel, a
// rebuild closure that re-derives just that kernel's fused matrix,
// split planes, and monomial decomposition from a concrete value
// vector. Bind(values) then produces a runnable Plan by rebuilding only
// the affected kernels — fusion never re-runs per point.
//
// The bind-invariance contract: a ParamPlan's kernel structure, order,
// and fusion stats (bar Monomial2Q, which each binding re-derives from
// its concrete matrices) are fixed at compile time and identical for
// every binding; Bind(v) yields a Plan whose execution is bit-identical
// to Compile on the concretely-lowered circuit for v. A parameter value
// that lands on a shape the template cannot reproduce exactly (e.g. an
// angle that would have made a kernel monomial under concrete
// compilation) is detected per kernel and that point falls back to a
// full recompile (Binds() reports binds vs. fallbacks), preserving
// bit-identity over raw speed. Sweep throughput rests on this: the
// serving layer's per-point results, cache keys and counts must be
// indistinguishable from individual concrete submissions.
//
// # Amplitude layout
//
// The statevector is stored structure-of-arrays: two parallel float64
// planes, re[k] and im[k], instead of one []complex128. Go's complex128
// code generation keeps real and imaginary parts interleaved and largely
// scalar; on the split planes every sweep body is plain float64 arithmetic
// over contiguous equal-length slices, which the compiler bounds-check
// eliminates and autovectorizes. Kernel matrices, phase tables and init
// amplitude tables are split once at compile finalize (gates.Split2 /
// gates.Split4, the phRe/phIm tables), never per sweep.
//
// Both planes come from alignedFloats, which over-allocates and re-slices
// so element 0 sits on a 64-byte cache-line boundary: plane base alignment
// is deterministic rather than allocator luck, sweeps never straddle an
// extra line at the block edges, and re and im keep identical offsets so
// a pair (re[k], im[k]) always splits across exactly two predictable
// lines. The full-size staging planes (State.scratch, used by permutation
// and init kernels that cannot run in place) are allocated the same way,
// lazily, and reused for the life of the State.
//
// First-touch ownership: a state created for plan execution (Runner.reset)
// has its planes zeroed by the shard pool itself — each worker clears
// exactly the contiguous range of re and im it will later sweep, before
// any kernel runs. On NUMA machines first touch decides page placement,
// so this puts every shard's pages on the socket of the worker that owns
// them; on single-socket machines it is equivalent to the allocator's
// lazy zeroing and costs nothing extra.
//
// The split arithmetic is grouped exactly as Go complex128 arithmetic —
// (m·a)ʳ computes as mr·ar − mi·ai, multi-term sums associate left to
// right, and no FMA contraction is introduced — so amplitudes match the
// pre-refactor engine bit for bit, except that fast paths may skip exact
// ±0-valued terms, which can only flip the sign of a zero and is
// unobservable through probabilities. Sampled counts for a fixed
// bundle+shots+seed are therefore unchanged by the layout (the parity
// suite in soa_parity_test.go pins this against a complex128 reference).
//
// External packages see none of this: Amplitude, Probability and the
// Evolve/Run APIs still speak complex128, and nothing outside the
// package may assume plane layout, alignment, or scratch reuse.
//
// # Profiling and the flight recorder
//
// Kernel execution is observable at two costs. Always on: every
// executed kernel increments a per-kind counter and observes its wall
// time in a per-kind histogram (the sim_kernels_total and
// sim_kernel_seconds labeled families — kinds gate1q, gate2q, monomial,
// diag, permute, ctrlphase, init), pre-resolved by ordinal so the cost
// is two clock reads and three atomic adds per kernel; plan executions
// also drop a kernel_batch event into the obs flight recorder. Opt in
// (Options.Profile, or Plan.ExecuteProfiled): execution additionally
// records the per-kernel table — kind, support mask, wall time, and
// per-shard sweep min/max with the max/mean imbalance ratio — into a
// Profile (Result.Profile), the document the serving layer attaches to
// job status. Per-shard timing wraps every sweep closure, so it is only
// paid when requested. Profiling is observational only: sweep bodies
// and shard ranges are identical with and without it, so amplitudes and
// sampled counts are bit-identical (pinned by profile_test.go).
package sim
