(** Differential oracles: run the library's routers and delay models
    against each other on one instance and audit every output against its
    own contract.

    - {!routers}: AST-DME, EXT-BST, greedy-DME and MMM-DME each produce a
      structurally/semantically valid tree satisfying the skew contract
      they were routed under (grouped bound for AST/MMM, fused global
      bound for EXT-BST, zero skew for greedy).  Wirelength orderings
      between routers are deliberately {e not} asserted — on grouped
      instances no router dominates another in general.
    - {!cache_identity}: the trial-merge cache is semantically inert —
      AST-DME with [trial_cache] off and on produce identical trees.
    - {!par_identity}: parallel cost ranking is deterministic — AST-DME
      planned and embedded on an explicit multi-domain pool produces the
      exact arena {e and} engine statistics of the serial run.
    - {!incremental_identity}: the cross-round proposal cache is
      semantically inert — AST-DME with [incremental] on produces the
      exact arena of the from-scratch run while never probing more, and
      its probe accounting balances.
    - {!trace_identity}: structured tracing is semantically inert —
      AST-DME planned and embedded with a live {!Obs.Trace} produces the
      exact arena and engine stats of the untraced run, the journal's
      per-round sums match the engine's aggregate stats, and the Chrome
      export round-trips through {!Obs.Json}.

    These three plan and embed through [Engine.plan] and
    [Embed.run_arena] with a pool of their own rather than through the
    router: [Engine.run_arena] plans instances of 1000 sinks or fewer
    serially whatever the jobs count, so routing at [jobs > 1] would
    compare the serial path with itself on fuzz-sized cases.  Arena
    bit-identity before repair implies identical repaired trees, delays
    and wirelength, since repair and evaluation are deterministic
    functions of the arena.
    - {!sched_identity}: the parallel-efficiency flight recorder and
      the progress heartbeat are semantically inert — AST-DME with a
      live {!Obs.Sched} and a muted {!Obs.Progress} produces the exact
      tree, delays, wirelength and engine stats of the unrecorded run
      at every jobs count, and the resulting report is present and
      sane (serial fraction in [0,1], phase walls >= parallel walls).
    - {!cluster_identity}: the two-level clustered router degenerates
      exactly — with [clusters = 1] it produces the flat router's tree,
      delays, wirelength and engine stats, for every jobs count.
    - {!repair_identity}: incremental / regional / parallel skew repair
      is bit-identical to the serial from-scratch pass — same tree,
      delays and stats for any jobs count, with regions both auto-derived
      and forced.
    - {!cluster_depth_identity}: multi-level clustering degenerates and
      scales exactly — a forced [cluster_depth = 1] reproduces the
      default (historical two-level) run bit for bit, and a forced
      depth-2 hierarchy is jobs-invariant, audit-clean and honestly
      reported in the clustering detail.
    - {!evaluate_identity}: the windowed parallel evaluation kernels
      reproduce the serial report bit for bit for every jobs count,
      with the decomposition forced so the parallel path actually runs
      on oracle-sized instances.
    - {!embed_identity}: the arena-direct embedding (serial and
      parallel) populates every arena column exactly as flattening the
      recursive reference embedder's boxed tree would.
    - {!clustered}: a genuinely clustered run ([clusters >= 2]) yields a
      covering partition and a stitched tree that passes the full audit
      under the global grouped contract.
    - {!delay_models}: Elmore and backward-Euler transient 50%-crossing
      delays agree on the routed RC tree wherever an exact relation
      exists: every sink crosses, no crossing exceeds its Elmore delay
      (Elmore is an upper bound for RC trees under step input), and
      crossings are non-decreasing from the root down (node voltages
      trail their parents' while charging).  The thesis' Chapter III
      claim — intra-group skews of the two models agree within a small
      tolerance — is additionally asserted for realistic interconnect
      parameters (default wire RC, rd >= 10 ohm, loads within 1-1000 fF);
      under adversarial RC the claim is legitimately false, which the
      fuzzer itself demonstrated.

    A raised exception anywhere is converted into a finding with oracle
    name ["exception"], so fuzzing surfaces crashes as ordinary
    failures. *)

type finding = {
  oracle : string;  (** "ast-dme", "cache-identity", "delay-models", ... *)
  violations : Audit.violation list;
}

val pp_finding : Format.formatter -> finding -> unit

val routers : ?inject:bool -> Clocktree.Instance.t -> finding list
val cache_identity : Clocktree.Instance.t -> finding list

(** Plan and embed serially, then on a fresh pool of each entry of
    [jobs] domains (default [[2; 4]]), and report any arena column that
    is not bit-equal and any difference in engine stats (gc zeroed).
    An enabled [sched] recorder ledgers the pooled runs' maps, which
    lets a test confirm the oracle really ranked on several domains. *)
val par_identity :
  ?jobs:int list -> ?sched:Obs.Sched.t -> Clocktree.Instance.t -> finding list

(** Plan and embed from scratch ([incremental = false], serial), then
    incrementally on a pool of each entry of [jobs] domains (default
    [[1; 2]]), and report any arena column that is not bit-equal, any
    probe-count increase, and any violation of the accounting identity
    [nn_reprobes + nn_probes_saved = from-scratch probes].  Trial-merge
    stats are deliberately not compared: skipped probes skip their
    candidates' trial merges (see DESIGN.md section 10). *)
val incremental_identity :
  ?jobs:int list -> Clocktree.Instance.t -> finding list

(** Plan and embed untraced and serially, then traced (fresh
    {!Obs.Trace}) on a pool of each entry of [jobs] domains (default
    [[1; 2]]), and report any arena column that is not bit-equal or any
    difference in engine stats (gc zeroed; tracing must be semantically
    inert), any disagreement
    between the journal's per-round sums (probes, probes saved, trial
    merges, trial-cache hits, round count) and the engine's aggregate
    stats, and any failure of the Chrome export to re-parse via
    {!Obs.Json.of_string} with a non-empty [traceEvents] list. *)
val trace_identity : ?jobs:int list -> Clocktree.Instance.t -> finding list

(** Route unrecorded with [jobs = 1], then with a fresh {!Obs.Sched}
    recorder and a muted {!Obs.Progress} reporter at each entry of
    [jobs] (default [[1; 2; 4]]), and report any difference in tree
    structure, per-sink delays, wirelength or engine stats (gc zeroed)
    against a same-jobs unrecorded run — recording observes scheduling,
    it must never steer it.  Additionally asserts the recorded result
    carries an efficiency report with the right jobs count, a serial
    fraction in [0, 1] and phase walls >= parallel walls, and that the
    unrecorded result carries none. *)
val sched_identity : ?jobs:int list -> Clocktree.Instance.t -> finding list

(** Route flat with [jobs = 1], then clustered with [clusters = 1] for
    each entry of [jobs] (default [[1; 2]]), and report any difference
    in tree structure, per-sink delays, wirelength or engine stats (gc
    zeroed): the degenerate single-region run must be bit-identical to
    the flat router — partitioning, sub-instance re-indexing and the
    top-level stitch all semantically invisible. *)
val cluster_identity : ?jobs:int list -> Clocktree.Instance.t -> finding list

(** Route clustered at [clusters = 4] with a forced [cluster_depth] of
    1 (must be bit-identical to the default-depth run — tree, delays,
    wirelength, aggregate engine stats with gc zeroed) and of 2 (must
    be bit-identical across [jobs = 1] and each entry of [jobs],
    default [[2; 4]], report a covering region set, realized depth 2
    with non-empty super-stitch detail, and pass the full grouped
    audit). *)
val cluster_depth_identity :
  ?jobs:int list -> Clocktree.Instance.t -> finding list

(** Route once serially, then re-evaluate the routed tree through the
    windowed kernels ([regions = 4] forced, each entry of [jobs],
    default [[2; 4]]) and report any field of the report — delays,
    wirelength, snaking, extrema, group skews — that is not bit-equal
    to the serial evaluation. *)
val evaluate_identity : ?jobs:int list -> Clocktree.Instance.t -> finding list

(** Plan once with the AST engine, then embed arena-direct under each
    entry of [jobs] (default [[1; 2; 4]]) and compare every arena
    column — topology, sizes, sink ids, groups, caps, positions, edge
    lengths — bit for bit against the recursive reference embedder's
    tree flattened through [Arena.of_routed]. *)
val embed_identity : ?jobs:int list -> Clocktree.Instance.t -> finding list

(** Plan once with the AST engine, then repair under two decomposition
    families — the default (auto regions, i.e. the pure global cycle on
    oracle-sized instances) and a forced 4-way regional split that
    exercises the regional-fixpoint machinery on every case — and
    report any difference between the serial from-scratch repair
    ([jobs = 1], [incremental = false]) and its incremental variants at
    [jobs = 1] and each entry of [jobs] (default [[2; 4]]): tree
    structure, per-sink delays and the full repair stats must be
    bit-identical (see {!Clocktree.Repair}'s determinism contract). *)
val repair_identity : ?jobs:int list -> Clocktree.Instance.t -> finding list

(** Audit the clustered router's output: the spatial partition covers
    every sink exactly once with non-empty regions
    ({!Audit.partition_cover}), and the stitched tree passes the full
    {!Audit.run} under the {e global} [Grouped] contract — the skew
    bound holds across cluster boundaries, not merely per region.
    [clusters] defaults to [min 4 n_sinks] (at least 2, pre-clamp);
    [inject] snakes one leaf before auditing, as in {!routers}. *)
val clustered :
  ?inject:bool -> ?clusters:int -> Clocktree.Instance.t -> finding list

val delay_models : ?resolution:int -> Clocktree.Instance.t -> finding list

(** Every oracle in sequence; the empty list means the case passed.
    [inject] deliberately snakes one leaf edge of the AST tree before
    auditing, to prove violations are caught (used by the fuzz
    self-test). *)
val all : ?inject:bool -> Clocktree.Instance.t -> finding list

(** Re-run only the oracles whose names appear in [of_run], e.g. to check
    that a shrunk instance still reproduces the original failure. *)
val reproduces : ?inject:bool -> of_run:finding list -> Clocktree.Instance.t -> bool
