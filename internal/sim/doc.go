// Package sim implements the statevector simulator backing the middle
// layer's gate path — the substitute for the paper's IBM Qiskit Aer state
// vector simulator.
//
// The simulator stores all 2^n complex amplitudes, applies unitary gates
// exactly, and samples measurement outcomes from the Born distribution
// with a seeded generator. The state vector is the hot data structure and
// every gate is a full sweep over it. The Go sweeps are not bound by
// memory bandwidth: on a 2-vCPU Xeon the benchmark's roofline puts the
// kernel kinds of a 20-qubit QAOA job between about 0.2 (the dense 4×4)
// and 0.5 of the machine's measured bandwidth, so their arithmetic per
// amplitude counts as much as their traffic. The AVX bodies (see "Vector
// bodies") read 1.1–1.8 of that figure in one traced run of the same job.
// In the HPC spirit of the paper the engine is organized around
// minimizing sweep count, memory traffic and arithmetic rather than
// per-gate convenience.
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
//     plan performs no per-gate checks. At finalize, one function picks
//     each dense 4×4's sweep from its matrix's exact zeros. A kernel that
//     ended up diagonal — a CX chain around phase gates, such as the QAOA
//     ZZ phase CX·RZ·CX — executes on a 4-multiply sweep instead of the
//     dense kernel's 16 multiplies + 12 adds (PlanStats.Monomial2Q and
//     the profile kind monomial count these; the serving benchmark reads
//     that label). A kernel that ended up block-diagonal over one
//     qubit of its pair — a one-qubit gate on the other qubit, chosen by
//     this one's bit, the shape a QAOA ZZ phase fused with an RX takes —
//     executes as two 2×2 blocks (PlanStats.Block2Q): 8 complex
//     multiply-adds per quadruple instead of 16; a CX with phase gates
//     on its pair is one. Any other permutation — SWAP, a 3-cycle — sweeps
//     dense. Every form computes the dense sum with exact-zero terms left
//     out and the rest in the same order, so amplitudes match the dense
//     sweep under ==.
//
//  2. Kernels iterate their natural index space directly instead of
//     scanning all 2^n indices and branching: a one-qubit kernel walks the
//     2^(n-1) amplitude pairs, a two-qubit dense kernel the 2^(n-2)
//     quadruples, a controlled permutation only the 2^(n-k) indices its k
//     constrained bits select. Each of the 2×2, block, dense and
//     diagonal forms has one Go loop for every stride, and one AVX body
//     (see "Vector bodies").
//
//  3. Execute sweeps each kernel across a persistent shard pool: the
//     index space splits into P contiguous shards owned by long-lived
//     workers that barrier between kernels, instead of forking and
//     joining a fresh goroutine set per gate. The shard count is an
//     execution option (Options.Shards, Plan.Execute) plumbed down from
//     the serving layer, which grants a large lone simulation all shards
//     while concurrent small jobs stay single-shard; 0 selects
//     automatically. The engine's one full-state reduction, the sampling
//     CDF in Run, builds over the same pool in fixed blocks, so its sums
//     — and every count — do not depend on the shard count.
//
// Evolve (Compile, NewState, Plan.Execute) and Run compile internally, so
// callers keep the one-call API; Compile and Plan.Execute are exported
// for callers that reuse a plan across states.
//
// One executor, one validation site, one pool — noise trajectories
// included. A gate reaches a state in exactly one way: Compile lowers and
// checks it (qubit bounds, distinct operands, table sizes, init
// normalization), and kernel.apply sweeps it across a shard pool whose
// width is the caller's grant. RunNoisy is no exception: an error may
// follow any gate, so it compiles the circuit with fusion off — one
// kernel per instruction — and each trajectory worker applies those
// kernels, plus a Pauli kernel wherever a draw fires, on two arenas: its
// runner's state and a branch state beside it. State itself has no gate
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
// # Arenas: one pool per width
//
// Everything a run needs that is O(2^n) is its arena: the two aligned
// planes (and, through the State, its lazily allocated staging planes),
// the 2^n-entry sampling CDF and its per-block sums. runPlan — behind
// every plain job, every readout-only noisy job and every point of a
// sweep — builds a runner (the arena plus a shard pool), runs once and
// closes it, and the closing runner leaves its arena in a per-width
// sync.Pool. The next run of that width starts on it, and NewState takes
// (and clears) its state, so runs of one width back to back — a sweep
// lane's points, plain jobs of one size — reuse warm pages, and a warm
// run allocates only what it returns (the Counts map, the profile), the
// shard pool and one closure per kernel, nothing that grows with the
// state. What nobody takes is dropped by the garbage
// collector. What reuse costs is the reset: every run begins by clearing
// both planes to |0…0⟩ on the pool, 16·2^n bytes of streaming writes,
// which is the very pass a fresh state gets as its first touch. There is
// no second execution path — fresh or reused, the same reset, kernels,
// CDF build and sampling run over the same data — so amplitudes and
// counts cannot depend on what an arena held before (runner_test.go pins
// it bitwise); the staging planes and the CDF are fully overwritten
// before they are read. A runner is single-goroutine, and concurrent
// sweep lanes each take their own arena from the pool. A readout-only
// noisy run is a plain run whose shots draw from their own streams
// (runner.Run's readout), so it takes and leaves an arena like any other.
// A trajectory worker's runner stays outside the pool (its branch state
// shares its pool and its staging planes), so a trajectory run's
// footprint does not depend on what the pool held. Closing a runner waits
// for its shard workers to exit, so a lane's next point never runs beside
// the previous point's workers.
//
// # Parametric plans
//
// A circuit whose rotation angles carry symbolic ParamRefs (the sweep
// path: algolib.LowerParametric) compiles once with CompileParametric
// into a ParamPlan. Compilation runs the ordinary fusion pipeline on a
// placeholder binding and records, per parameter-dependent kernel, a
// rebuild closure that re-derives just that kernel's fused matrix,
// split planes, and sweep form from a concrete value vector.
// Bind(values) then produces a runnable Plan by rebuilding only the
// affected kernels — fusion never re-runs per point.
//
// The bind-invariance contract: a ParamPlan's kernel structure, order,
// and fusion stats (bar Monomial2Q and Block2Q, which each binding
// re-derives from its concrete matrices, as compile's finalize does) are
// fixed at compile time and identical for every binding; Bind(v) yields
// a Plan whose execution is bit-identical to Compile on the
// concretely-lowered circuit for v. A parameter value that lands on a
// shape the template cannot reproduce exactly (e.g. an angle that makes
// a rotation diagonal, which would change fusion under concrete
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
// code generation keeps real and imaginary parts interleaved; on the split
// planes every sweep body is plain float64 arithmetic over contiguous
// equal-length slices, whose bounds checks the compiler eliminates. The
// gc compiler does not vectorize: a Go sweep body is one scalar MULSD,
// ADDSD or SUBSD per operation (see "Vector bodies" below for the sweeps
// that are vectorized by hand). Kernel matrices, phase tables and init
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
// First-touch ownership: a state created for plan execution (runner.reset)
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
// # Vector bodies
//
// On amd64, when CPUID and XGETBV report AVX (useAVX), the 2×2, block,
// dense 4×4 and diagonal sweeps run at every stride in the AVX bodies of
// sweep_amd64.s: one assembly call sweeps a shard's whole index range
// (vecsweep.go). A body walks tile groups — a tile is four consecutive
// amplitudes starting at a multiple of 4, a group is a tile with its
// partner tiles at the kernel's masks of 4 and above — and steps from one
// group's first index to the next with an OR, an increment and an AND, so
// no Go call and no index expansion runs per contiguous run. A mask of 1
// or 2 lies inside the tile: the body pairs the tile's halves in
// registers (VMOVDDUP and VPERMILPD at stride 1, VBROADCASTF128 at stride
// 2; a dense 4×4 on masks 1 and 2 broadcasts each of the tile's four
// amplitudes) and gives every lane its own coefficients, so a stride-1
// 2×2 is C0·even + C1·odd with C0 = [m00, m10, m00, m10]. A block kernel
// whose selecting qubit is the low one needs no shuffle: its lanes
// alternate the two blocks' matrices. A diagonal scales each tile by its
// lanes' phases ([p0, p1, p0, p1] and [p2, p3, p2, p3] for a lowest qubit
// of 0). The coefficients are laid out once per call, and the few indices
// at a shard's ends that fill no whole group run in the Go loop.
//
// Each lane computes its Go loop's expression for its amplitude: the same
// products, the same left-to-right grouping, every subtraction with the
// same operands, and no fused multiply-add. A lane of VMULPD, VADDPD or
// VSUBPD rounds as MULSD, ADDSD or SUBSD does, and shuffles only move
// bits, so every amplitude — the sign of a zero included — is
// bit-identical with or without the bodies, and counts, golden files and
// cache keys do not depend on the CPU. Each form has one Go loop, the
// same at every stride, and the diagonal's multiplies every row by its
// full complex phase, unit and real phases included, as its body does, so
// no form skips on one CPU a product it computes on another.
//
// Still scalar: the kDiag phase tables (sweepDiag gathers each phase
// through an index per amplitude), the controlled permutations and
// phases, permute and init. Other architectures, CPUs without AVX and
// builds with the purego tag run the Go loops only. vec_amd64_test.go
// holds each body and each sweep to its Go loop, bit for bit;
// TestAssemblyHasNoFMA keeps FMA out of the assembly.
//
// External packages see none of this: they read a state through
// Amplitude (complex128) and Probability alone, and nothing outside the
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
