(** The complete deferred-merge engine: bottom-up merging (Fig. 6) plus
    top-down embedding.  All three routers of the library — AST-DME,
    EXT-BST and greedy-DME — are this engine run on differently grouped
    instances. *)

type config = {
  multi_merge : bool;  (** §V.F enhancement 1: batch merges per round *)
  merge_fraction : float;  (** batch size as a fraction of active subtrees *)
  knn : int;  (** nearest-neighbour candidates per query *)
  delay_order_weight : float;
      (** §V.F enhancement 2: bias merge order toward slow subtrees
          (0 = off).  Dimensionless: a subtree whose delay hull equals
          the delay of an unloaded die-diameter wire is biased by
          [weight × diameter] layout units.  Deriving the units from
          the instance keeps the merge order invariant under a change
          of layout unit (an absolute layout-units-per-ps weight would
          rank the same layout differently at different scales). *)
  split_slack : float;
      (** fraction of the skew bound a cross-group merge may spend on
          split-range delay uncertainty *)
  slack_usage : float;
      (** fraction of a group's remaining slack one constrained merge may
          consume before snaking is considered (gradual slack spending) *)
  width_cap : float;
      (** cumulative cap on any group's delay-window width as a fraction
          of the bound; reserves slack for end-game merges *)
  sdr_samples : int;  (** slices used to build shortest-distance regions *)
  cost_by_planned_wire : bool;
      (** rank merge candidates by planned wire (including snaking)
          instead of region distance; an ablation knob — distance wins
          in practice because deferring balancing cost lets group
          offsets drift *)
  avoid_infeasible : bool;
      (** heavily penalize candidate pairs whose trial merge has
          mutually inconsistent shared-group constraints (Instance 2
          conflicts), merging them only as a last resort *)
  trial_cache : bool;
      (** avoid redundant trial {!Merge.run}s in the cost ranking:
          cross-group probes are elided outright (an unconstrained merge
          is always feasible with planned wire = region distance),
          shared-group trials are memoized per candidate pair across
          rounds, and the winning pair's committed merge reuses its own
          trial.  Routed trees are bit-identical with the cache on or
          off; off exists for benchmarking and as a paranoia switch *)
  jobs : int;
      (** upper bound on the domains used for the per-round candidate
          ranking (nearest neighbour probes and their trial merges) and
          the embedding; 1 = fully serial.  {!run_arena} opens a pool
          only for instances of more than 1000 sinks (two regions of
          {!Clocktree.Instance.auto_regions}); smaller ones plan
          serially, since a pool's spawn and per-round hand-offs cost
          more than their probes.  Routed trees and engine stats are
          bit-identical for any value:
          probes run against frozen round-start state, side results are
          absorbed in a fixed order on the main domain, and merges
          commit serially (see {!Order}).  The default is the
          [ASTSKEW_JOBS] environment variable, else 1
          ({!Par.Pool.default_jobs}) *)
}

val default : config

(** Trial-merge workload of one engine run.  With the cache off,
    [trial_merges] counts every cost-probe [Merge.run]; with it on,
    [trial_merges = cache_misses] and the saving is
    [elided_trials + cache_hits + reused_trials]. *)
type trial_stats = {
  trial_merges : int;  (** trial [Merge.run] executions performed *)
  cache_hits : int;  (** cost probes answered from the cache *)
  cache_misses : int;  (** cost probes that ran a fresh trial *)
  elided_trials : int;
      (** priced candidates answered without a trial merge: under
          distance ranking every priced candidate (its feasibility comes
          from {!Merge.committed_feasible}), under planned-wire ranking
          the cross-group ones.  Candidates a probe skips unpriced
          ({!Order.cheapest}) are not counted; 0 with the cache off *)
  reused_trials : int;  (** committed merges promoted from their trial *)
}

(** All-zero [trial_stats], for engines that never trial-merge (MMM). *)
val no_trials : trial_stats

type stats = {
  rounds : int;
  same_group : int;
  cross_group : int;
  shared_one : int;
  shared_multi : int;
  planned_snake : float;  (** snaking wire committed during planning *)
  infeasible_merges : int;
      (** merges whose constraints were mutually inconsistent; their
          residual skew is fixed by {!Clocktree.Repair} *)
  nn_reprobes : int;
      (** nearest-neighbour probes executed by the ranking loop: one
          per active subtree per round *)
  nn_queries : int;
      (** grid k-NN queries those probes ran: one per probe plus one
          per widening ({!Order.settle}), so never below
          [nn_reprobes] *)
  nn_probes_saved : int;
      (** always 0.  Counted probes a cross-round proposal cache served
          until that cache was retired (DESIGN.md section 10); kept
          until the benchmark harness stops reading it *)
  trial : trial_stats;
  gc : Obs.Gcstat.t;
      (** GC work of the whole run (plan + embed) as seen from the
          calling domain: {!Obs.Gcstat.sample} at entry diffed against
          exit.  The allocation budget the bench gate enforces; the only
          stats field that is {e not} bit-identical across equivalent
          runs — identity oracles compare with [gc] zeroed *)
}

(** [config] as a JSON object (one field per record field), for run
    manifests and stats dumps. *)
val json_of_config : config -> Obs.Json.t

(** [cost config inst ~dist a b] is the ranking cost a probe gives the
    candidate pair [(a, b)] whose regions are [dist] apart: [dist],
    plus a penalty when the pair's committed merge would be infeasible
    ([config.avoid_infeasible]), or the trial merge's planned wire
    under [config.cost_by_planned_wire].  The same function the ranking
    loop prices candidates with, run without the trial cache's memo.
    Never below [dist] and never NaN for finite [dist] — the
    {!Order.coster} contract.  Exposed for testing. *)
val cost :
  config ->
  Clocktree.Instance.t ->
  dist:float ->
  Subtree.t ->
  Subtree.t ->
  float

(** Bottom-up merge planning only: reduce the instance's sinks — or an
    explicit [leaves] population (see {!Order.run_ranked}: dense ids,
    delay windows against [inst]'s groups) — to a single root subtree,
    without embedding.  Unlike {!run_arena}, [plan] does not own a pool:
    ranking parallelism comes from the caller's [pool] (absent = fully
    serial; [config.jobs] is ignored).  This is the re-entrant core the
    clustered router calls once per region from worker domains
    ({!Par.Pool} is not reentrant, so region plans pass no pool) and
    once at top level over the region roots with the shared pool.
    [stats.gc] covers planning only.  Planning is bit-identical for any
    pool size. *)
val plan :
  ?config:config ->
  ?run:Obs.Run.t ->
  ?pool:Par.Pool.t ->
  ?leaves:Subtree.t array ->
  Clocktree.Instance.t ->
  Subtree.t * stats

(** Plan and embed a clock tree for the instance straight into a flat
    post-order arena.  The result is the pre-repair tree: callers
    normally pass it through {!Clocktree.Repair.run_arena}, and
    [Arena.to_routed] gives the boxed view.  Owns the pool:
    [config.jobs] domains for instances of more than 1000 sinks, none
    at or below that grain (see [config.jobs]).  The arena is
    bit-identical for any [config.jobs].  To run the parallel ranking
    and embedding paths on a small instance, call {!plan} and
    [Embed.run_arena] with an explicit pool.

    With [run.trace] enabled the run merges its config into the trace
    manifest, wraps planning in an ["engine.plan"] span, emits one
    ["merge"] instant per committed merge, feeds committed region
    extents into the ["engine.region_extent"] histogram and appends one
    journal record per merge round (probe/cache/trial counts, cheapest
    committed cost, cumulative planned wire, wall time).  An enabled
    [run.sched] recorder ledgers the pooled ranking/commit/embed maps
    (phase ["engine"]).  The arena and stats are byte-identical under
    any [run] ([Check.Oracle.trace] and [Check.Oracle.sched] rows). *)
val run_arena :
  ?config:config -> ?run:Obs.Run.t -> Clocktree.Instance.t ->
  Clocktree.Arena.t * stats
