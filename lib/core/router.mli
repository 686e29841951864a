(** One clock router: {!route} runs a {!Spec.t} on an instance.  The
    spec names one of four algorithms, its engine configuration and an
    optional clustered construction.  Three algorithms run the greedy
    merge engine ({!Dme.Engine}) on differently grouped copies of the
    instance; the fourth plans a fixed topology with {!Dme.Mmm}:

    - [Ast_dme] — the contribution: associative skew routing, enforcing
      the skew bound only within each sink group (Fig. 6).
    - [Ext_bst] — the baseline: all sinks fused into a single group at
      the same bound, i.e. the "extended greedy-BST" of [4] that adds
      inter-group zero/bounded skew constraints.
    - [Greedy_dme] — classic zero-skew routing (single group, bound 0).
    - [Mmm_dme] — associative skew routing on a Method-of-Means-and-
      Medians topology, isolating what the merge order contributes.

    Clustering is a construction step of its own ({!Dme.Cluster}): any
    greedy-engine algorithm can plan its (grouped or fused) instance in
    regions and stitch them.

    Every result is post-processed by {!Clocktree.Repair} so the reported
    trees always satisfy the constraints they were routed under;
    evaluation is against the original grouped instance.  The result's
    tree is the arena that was planned, repaired and evaluated; no boxed
    {!Clocktree.Tree.routed} is built on the way. *)

(** Per-phase wall-clock timings of one routing call, each the one
    measurement {!Obs.Run.phase} also hands to the run's trace span and
    recorder. *)
type timings = {
  engine_s : float;  (** planning + embedding (DME or MMM engine) *)
  repair_s : float;
  evaluate_s : float;
  total_s : float;  (** the sum of the three phase walls *)
}

type result = {
  routed : Clocktree.Arena.t;
      (** the repaired tree, the flat post-order arena that was planned,
          repaired and evaluated; a boxed {!Clocktree.Tree.routed} is a
          view its consumers build from it (DESIGN.md §31) *)
  evaluation : Clocktree.Evaluate.report;  (** w.r.t. the original instance *)
  engine : Dme.Engine.stats;
      (** clustered runs report the aggregate over region plans and the
          top-level stitch (see {!Dme.Cluster.run_arena}) *)
  repair : Clocktree.Repair.stats;
  cpu_seconds : float;  (** CPU time of planning + repair (no evaluation) *)
  timings : timings;
  clustering : Dme.Cluster.stats option;
      (** per-region detail when the run was clustered; [None] for the
          flat routers *)
  sched : Obs.Sched.report option;
      (** parallel-efficiency report when the run context carried an
          enabled {!Obs.Sched} recorder; [None] otherwise *)
  top_heap_words : int;
      (** [Gc.quick_stat]'s [top_heap_words], sampled at the end of the
          run (words).  Under OCaml 5 this is not a process high-water
          mark: successive routes in one process were seen to read lower
          than earlier ones, so it reports the domains' heap statistics
          at the sample, not the route's peak major-heap footprint *)
}

(** The configuration AST-DME and MMM-DME use by default: the engine
    defaults plus the §V.F delay-target merge order. *)
val ast_default_config : Dme.Engine.config

(** What to route, validated once, up front. *)
module Spec : sig
  type algorithm = Ast_dme | Ext_bst | Greedy_dme | Mmm_dme

  val algorithms : algorithm list  (** in the order above *)

  (** ["ast_dme"], ["ext_bst"], ["greedy_dme"] or ["mmm_dme"]: the
      router name of a traced run's manifest. *)
  val name : algorithm -> string

  (** Plan through {!Dme.Cluster.run_arena}: [clusters] spatial regions
      (default {!Dme.Cluster.auto_clusters}, clamped to the sink count),
      planned in parallel and stitched through [depth] levels of
      bounded-fan-in merges (default {!Dme.Cluster.auto_depth}).
      Repair and evaluation are those of a flat route.  One cluster is
      bit-identical to the flat route, any fixed count and depth is
      bit-identical across jobs, and depth 1 is the historical
      two-level construction. *)
  type clustering = { clusters : int option; depth : int option }

  type t = private {
    algorithm : algorithm;
    config : Dme.Engine.config;
        (** [config.jobs] is a route's only jobs setting *)
    clustering : clustering option;  (** [None]: a flat plan *)
  }

  (** [Error msg], [msg] naming the field, when [config.jobs],
      [clusters] or [depth] is below 1 or when [Mmm_dme] (a fixed
      topology) is clustered.  [config] defaults to the algorithm's. *)
  val make :
    ?config:Dme.Engine.config -> ?clustering:clustering -> algorithm ->
    (t, string) Stdlib.result

  (** The flat route under the algorithm's default configuration:
      {!ast_default_config} for [Ast_dme] and [Mmm_dme],
      {!Dme.Engine.default} (the plain nearest-neighbour order of the
      thesis' baselines) for [Ext_bst] and [Greedy_dme]. *)
  val default : algorithm -> t
end

(** [route ?run spec inst] routes [inst] as [spec] says.

    [spec.config.jobs] (default: the [ASTSKEW_JOBS] environment
    variable, else 1) bounds the domains of the engine's ranking and the
    repair pass's windows.  Trees are bit-identical for any [jobs]; the
    engine and repair each open their pool only above their grain, so
    flat routes of 1000 sinks or fewer (below two regions of
    {!Clocktree.Instance.auto_regions}) run serially at any [jobs].  The
    evaluate phase opens no pool and runs no Elmore kernel: it folds the
    sink delays of repair's last evaluation into the grouped report
    ({!Clocktree.Evaluate.of_delays}).
    The per-fixpoint repair cycle budget is scale-relative:
    [max Repair.default_config.max_cycles (n_sinks / 250)].

    [run] ({!Obs.Run}, default {!Obs.Run.null}) is handed unchanged to
    every layer, and each phase (["engine"], ["repair"], ["evaluate"])
    runs under {!Obs.Run.phase}, whose one measurement is the phase's
    [timings] entry.  An enabled trace also gets the router's
    {!Spec.name}, jobs and engine config in its manifest and the
    evaluated per-sink delays and per-group skews in the
    ["router.sink_delay_ps"] / ["router.group_skew_ps"] histograms; an
    enabled recorder's report is [result.sched].  Observation never
    changes a tree, a delay or a stat (the [Check.Oracle.trace] and
    [Check.Oracle.sched] rows). *)
val route : ?run:Obs.Run.t -> Spec.t -> Clocktree.Instance.t -> result

(** Perfbench's frozen surface, deleted with ROADMAP item 8 ("The
    perfbench half of one benchmark harness"); a CI lint
    keeps every other caller on {!route}.  [ast_dme] routes [Ast_dme]
    under [config] (default {!ast_default_config}) at [jobs] (default
    [config.jobs]), clustered at the automatic count and depth when
    [clustered]; [ext_bst] routes the default [Ext_bst] at [jobs].  Both
    raise [Invalid_argument] where {!Spec.make} is [Error]. *)
val ast_dme :
  ?config:Dme.Engine.config -> ?jobs:int -> ?clustered:bool ->
  Clocktree.Instance.t -> result

val ext_bst : ?jobs:int -> Clocktree.Instance.t -> result

(** Wirelength reduction of [vs] relative to [baseline], as a fraction
    (the "Reduction" column of Tables I and II).  [0.] when the baseline
    wirelength is zero (degenerate instances), never NaN. *)
val reduction : baseline:result -> result -> float

(** Machine-readable summary of a result: evaluation metrics, engine and
    repair stats, per-phase timings, the ["top_heap_words"] heap
    sample, a ["clustered"] flag, for clustered runs a ["clustering"]
    object with per-region stats, and — when the run carried an enabled
    recorder — an ["efficiency"] object ({!Obs.Sched.json_of_report}).
    This is the ["result"] object of the [BENCH_*.json] files and of
    [astroute --stats-json]. *)
val json_of_result : result -> Obs.Json.t

(** The [astroute --stats-json] document, schema 2:
    [{"schema": 2, "results": {<name>: json_of_result, ...}}], names in
    the order given.  Every count lives in its route's own result, so
    routes made in one process never share a tally.  The unversioned
    format, which appended a process-wide ["obs"] counter block, counts
    as schema 1. *)
val json_of_results : (string * result) list -> Obs.Json.t

val pp_result : Format.formatter -> result -> unit
