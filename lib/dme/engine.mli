(** The complete deferred-merge engine: bottom-up merging (Fig. 6) plus
    top-down embedding.  Three of the library's four routers — AST-DME,
    EXT-BST and greedy-DME — are this engine run on differently grouped
    instances; MMM-DME plans with {!Mmm.run_arena} instead.

    {!plan} runs the merge rounds itself.  Each round packs the active
    subtrees' centers into a k-NN snapshot, probes every one of them for
    its cheapest partner among its [knn] nearest ({!probe}: one ring
    scan of the snapshot, priced by {!cost}: the pair's region
    distance, plus a penalty when {!Merge.committed_feasible} says the
    merge is infeasible), biases each proposal by the pair's delay
    hulls (§V.F enhancement 2), selects a disjoint prefix of the ranked
    pairs ({!Order.select_pairs}, §V.F enhancement 1) and merges it with
    {!Merge.run}.  No probe runs a trial merge. *)

type config = {
  multi_merge : bool;  (** §V.F enhancement 1: batch merges per round *)
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
  width_cap : float;
      (** cumulative cap on any group's delay-window width as a fraction
          of the bound; reserves slack for end-game merges *)
  jobs : int;
      (** upper bound on the domains used for the per-round candidate
          ranking (nearest neighbour probes) and the round's merges;
          1 = fully serial.  {!run_arena} opens a pool
          only for instances of more than 1000 sinks (two regions of
          {!Clocktree.Instance.auto_regions}); smaller ones plan
          serially, since a pool's spawn and per-round hand-offs cost
          more than their probes.  Routed trees and engine stats are
          bit-identical for any value:
          probes run against frozen round-start state, their counts
          are summed in a fixed order on the main domain, and merges
          install serially (see {!plan}).  The default is the
          [ASTSKEW_JOBS] environment variable, else 1
          ({!Par.Pool.default_jobs}) *)
}

val default : config

(** Candidate-pricing workload of one engine run. *)
type trial_stats = {
  trial_merges : int;
      (** always 0, kept for perfbench until ROADMAP item 8 ("The
          perfbench half of one benchmark harness").  It counted the
          trial {!Merge.run}s of a planned-wire ranking that was
          deleted (DESIGN.md section 6.4); the result JSON still carries
          it, as 0 *)
  elided_trials : int;
      (** candidates the probes priced (their {!cost} calls), each
          answered without a trial merge: its feasibility comes from
          {!Merge.committed_feasible}.  Candidates a probe skips
          unpriced ({!probe}) are not counted *)
}

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
      (** grid passes those probes ran: one ring scan per probe plus
          one k-NN query per probe whose scan could not prove its
          answer ({!probe}), so never below [nn_reprobes] *)
  nn_cells : int;
      (** grid cells those passes walked, never below [nn_queries] *)
  nn_entries : int;  (** grid entries those cells held *)
  nn_probes_saved : int;
      (** always 0, kept for perfbench until ROADMAP item 8 ("The
          perfbench half of one benchmark harness").  It counted
          probes a cross-round proposal cache served until that cache
          was retired (DESIGN.md section 6.4); no JSON output carries it *)
  trial : trial_stats;
  gc : Obs.Gcstat.t;
      (** GC work of the whole run (plan + embed): {!Obs.Gcstat.sample}
          diffed across the run inside the pool's lifetime, with the
          pool workers' minor words added ({!Par.Pool.gc_window}), so [minor_words] counts the run's allocation on every
          domain and reads the same at any jobs count.  The allocation
          budget the bench gate enforces; the only
          stats field that is {e not} bit-identical across equivalent
          runs — identity oracles compare with [gc] zeroed *)
}

(** [config] as a JSON object (one field per record field), for run
    manifests and stats dumps. *)
val json_of_config : config -> Obs.Json.t

(** [cost inst c] is the function a probe prices candidate pairs of
    the run [c] over [inst] with: [~dist a b] is the ranking cost of the
    pair of ids [(a, b)] whose regions are [dist] apart — [dist], plus
    a penalty, scaled by the instance's diameter, when the pair's merge
    would be infeasible ({!Merge.committed_feasible}).  Never below
    [dist] and never NaN for finite [dist], as the [price] contract of
    {!Order.cheapest} requires.  The probes' price; exposed for
    testing. *)
val cost :
  Clocktree.Instance.t -> Subtree.cols -> dist:float -> int -> int -> float
[@@reference]

(** [probe inst c snap ~cx ~cy ~rad ~rmax ~knn props sid] is one ranking
    probe of the subtree [sid] of the run [c]: it writes to [props]'
    slots [sid] the (cost, lowest id) argmin, by {!cost}, over the [knn]
    entries of [snap] nearest to [sid]'s center by (L1 distance, id),
    [sid] excluded — exactly what {!Geometry.Grid_index.query} at [k =
    knn] followed by {!Order.cheapest} returns, partner [-1] at
    [infinity] when no entry is eligible — and its grid passes (1, or 2
    when it fell back to that query), cells, entries and price calls.
    [cx], [cy] and [rad] hold every subtree's center and the L1 radius
    of its region ([c.regions]) about it, by id; [rmax] is at least the
    radius of every entry of [snap], which must hold [sid] and have been
    packed from ascending ids at those centers.  One ring scan, with
    deferred pricing and no closure (DESIGN.md section 6.3). *)
val probe :
  Clocktree.Instance.t ->
  Subtree.cols ->
  Geometry.Grid_index.snapshot ->
  cx:floatarray ->
  cy:floatarray ->
  rad:floatarray ->
  rmax:float ->
  knn:int ->
  Order.proposals ->
  int ->
  unit
[@@reference]

(** [of_run c ~rounds] is the stats of the planning run [c] after
    [rounds] rounds: its merge-kind counts, [infeasible_merges] and
    [planned_snake], folded over its merges' [kinds] and [snakes]
    columns in id order (the order the merges were installed in); every
    ranking counter 0 and [gc] zero.  {!plan} and {!Mmm.plan} tally
    their merges with it. *)
val of_run : Subtree.cols -> rounds:int -> stats

(** Bottom-up merge planning only: reduce the instance's sinks — or an
    explicit [leaves] population ({!type:Subtree.leaves}: ids in array
    order, delay windows against [inst]'s groups) — to a single root
    subtree, without embedding.  Unlike {!run_arena}, [plan] does not
    own a pool: ranking parallelism comes from the caller's [pool]
    (absent = fully
    serial; [config.jobs] is ignored).  This is the re-entrant core the
    clustered router calls once per region from worker domains
    ({!Par.Pool} is not reentrant, so region plans pass no pool) and
    once at top level over the region roots with the shared pool.
    [stats.gc] covers planning only, [pool]'s workers' minor words
    included.  Planning is bit-identical for any pool size. *)
val plan :
  ?config:config ->
  ?run:Obs.Run.t ->
  ?pool:Par.Pool.t ->
  ?leaves:Subtree.leaves ->
  Clocktree.Instance.t ->
  Subtree.t * stats

(** Plan and embed a clock tree for the instance straight into a flat
    post-order arena.  The result is the pre-repair tree: callers
    normally pass it through {!Clocktree.Repair.run_arena}, and
    [Arena.to_routed] gives the boxed view.  Owns the pool:
    [config.jobs] domains for instances of more than 1000 sinks, none
    at or below that grain (see [config.jobs]).  The arena is
    bit-identical for any [config.jobs].  A flat plan embeds on the
    calling domain.  To run the parallel ranking path on a small
    instance, call {!plan} with an explicit pool.

    With [run.trace] enabled the run merges its config into the trace
    manifest, wraps planning in an ["engine.plan"] span, emits one
    ["merge"] instant per committed merge, feeds committed region
    extents into the ["engine.region_extent"] histogram and appends one
    journal record per merge round (probe, query and priced counts, cheapest
    committed cost, cumulative planned wire, wall time).  An enabled
    [run.sched] recorder ledgers the pooled ranking/commit maps
    (phase ["engine"]).  The arena and stats are byte-identical under
    any [run] ([Check.Oracle.trace] and [Check.Oracle.sched] rows). *)
val run_arena :
  ?config:config -> ?run:Obs.Run.t -> Clocktree.Instance.t ->
  Clocktree.Arena.t * stats
