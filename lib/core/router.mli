(** The three clock routers of the thesis, sharing one engine:

    - {!ast_dme} — the contribution: associative skew routing, enforcing
      the skew bound only within each sink group (Fig. 6).
    - {!ext_bst} — the baseline: all sinks fused into a single group at
      the same bound, i.e. the "extended greedy-BST" of [4] that adds
      inter-group zero/bounded skew constraints.
    - {!greedy_dme} — classic zero-skew routing (single group, bound 0).

    Every result is post-processed by {!Clocktree.Repair} so the reported
    trees always satisfy the constraints they were routed under;
    evaluation is against the original grouped instance. *)

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
  routed : Clocktree.Tree.routed;
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
      (** [Gc.quick_stat]'s process heap high-water mark, sampled at the
          end of the run (words); with one route per process this is the
          route's peak major-heap footprint *)
}

(** The configuration [ast_dme] uses by default: the engine defaults
    plus the §V.F delay-target merge order. *)
val ast_default_config : Dme.Engine.config

(** Each router takes an optional [jobs] override for the engine's
    ranking parallelism (see {!Dme.Engine.config}); it wins over
    [config.jobs] and over the [ASTSKEW_JOBS] environment default.
    Routed trees are bit-identical for any [jobs], so the knob only
    affects wall time.  The effective [jobs] also drives the repair
    pass's regional parallelism and evaluation's windowed kernels (both
    equally jobs-invariant).  [jobs] is an upper bound: each phase opens
    its pool only above its grain, so flat routes of 1000 sinks or fewer
    (below two regions of {!Clocktree.Instance.auto_regions}) plan,
    repair and evaluate serially at any [jobs].  [repair_max_cycles]
    overrides the
    per-fixpoint cycle budget, whose default is scale-relative:
    [max Repair.default_config.max_cycles (n_sinks / 250)].

    Each router also takes an optional [run] context ({!Obs.Run}, default
    {!Obs.Run.null}) and hands it unchanged to every layer.  Each of the
    three phases runs under {!Obs.Run.phase}, whose one wall
    measurement is the phase's [timings] entry, the duration of its
    ["router.engine"] / ["router.repair"] / ["router.evaluate"] span and
    the phase wall of the recorder.  An enabled [run.trace] also gets
    router name, jobs and the full engine config in its manifest, the
    engine, repair and embedding spans, journal records and histograms,
    and the evaluated per-sink delays and per-group skews in the
    ["router.sink_delay_ps"] / ["router.group_skew_ps"] histograms.  An
    enabled [run.sched] ledgers every parallel map of the route and
    yields the per-phase utilization / serial-fraction / Amdahl report
    in [result.sched] (also one [type = "efficiency"] journal record
    when tracing).  An enabled [run.progress] prints throttled
    heartbeat lines to stderr: phase entry, region completions from
    the clustered planner and the repair pass, wall clock, live heap
    watermark and an ETA.  None of them influences routing: trees,
    delays and stats are bit-identical under any context at any jobs
    count (the [Check.Oracle.trace] and [Check.Oracle.sched] rows). *)

(** [ast_dme ~clustered:true] routes through {!Dme.Cluster.run_arena}:
    a multi-level construction that partitions the sinks into
    [clusters] spatial regions (default {!Dme.Cluster.auto_clusters}),
    plans each region in parallel across the pool's domains and
    stitches the region roots back through a bounded-fan-in hierarchy
    of [cluster_depth] levels (default {!Dme.Cluster.auto_depth} of the
    region count).  Repair and evaluation are unchanged, so the
    reported tree satisfies the same global constraints as a flat run.
    [clusters = 1] is bit-identical to the flat router; any fixed
    cluster count and depth is bit-identical across [jobs], and a
    forced depth 1 is bit-identical to the historical two-level
    construction.  [clusters] and [cluster_depth] are ignored without
    [clustered]. *)
val ast_dme :
  ?config:Dme.Engine.config ->
  ?jobs:int ->
  ?clustered:bool ->
  ?clusters:int ->
  ?cluster_depth:int ->
  ?repair_max_cycles:int ->
  ?run:Obs.Run.t ->
  Clocktree.Instance.t ->
  result

val ext_bst :
  ?config:Dme.Engine.config ->
  ?jobs:int ->
  ?repair_max_cycles:int ->
  ?run:Obs.Run.t ->
  Clocktree.Instance.t ->
  result

val greedy_dme :
  ?config:Dme.Engine.config ->
  ?jobs:int ->
  ?repair_max_cycles:int ->
  ?run:Obs.Run.t ->
  Clocktree.Instance.t ->
  result

(** Associative-skew routing on a fixed Method-of-Means-and-Medians
    topology instead of the greedy merge order; a second baseline that
    isolates how much the merge order contributes.  The MMM engine never
    trial-merges or probes, so [jobs] drives only repair and
    evaluation. *)
val mmm_dme :
  ?config:Dme.Engine.config ->
  ?jobs:int ->
  ?repair_max_cycles:int ->
  ?run:Obs.Run.t ->
  Clocktree.Instance.t ->
  result

(** Wirelength reduction of [vs] relative to [baseline], as a fraction
    (the "Reduction" column of Tables I and II).  [0.] when the baseline
    wirelength is zero (degenerate instances), never NaN. *)
val reduction : baseline:result -> result -> float

(** Machine-readable summary of a result: evaluation metrics, engine and
    repair stats, per-phase timings, the ["top_heap_words"] high-water
    mark, a ["clustered"] flag, for clustered runs a ["clustering"]
    object with per-region stats, and — when the run carried an enabled
    recorder — an ["efficiency"] object ({!Obs.Sched.json_of_report}).
    This is the ["result"] object of the [BENCH_*.json] files and of
    [astroute --stats-json]. *)
val json_of_result : result -> Obs.Json.t

val pp_result : Format.formatter -> result -> unit
