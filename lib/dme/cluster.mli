(** Multi-level clustered AST-DME: partition the sinks into spatial
    regions, plan each region bottom-up with its own {!Engine} instance
    — in parallel across a {!Par.Pool}'s domains — then stitch the
    region roots back together through a bounded-fan-in hierarchy of
    further plans and embed the whole tree, each region's and stitch's
    plan store into its own arena window.

    The shape follows Held–Kämmerling's two-level rectilinear Steiner
    construction and the 3D-MMM "Cluster DME" decomposition, extended
    recursively: no stitch plan sees more than {!fanout_cap} children,
    so a 10^6-sink instance gets ~1000 regions stitched through two
    levels instead of one 1000-ary merge.  The per-region work is
    embarrassingly parallel (each region plan owns a private arena and
    packs its own per-round {!Geometry.Grid_index.snapshot}, and is a
    pure function of its sub-instance), every stitch level plans over
    the {e global} instance (the global diameter drives the penalty and
    grid-cell scales),
    and each stitch sees exact per-group delay intervals, so
    the associative skew bound is enforced across region boundaries
    exactly as within them — the stitched tree goes through the same
    {!Clocktree.Repair} as a flat one.

    Determinism contract: for a fixed cluster count and depth the
    partition, the routed tree, per-sink delays and wirelength are
    bit-identical for any jobs count; with [clusters = 1] they are
    additionally bit-identical to the flat {!Engine.run_arena}, and a forced
    [depth = 1] is bit-identical to the historical two-level
    construction ({!Check.Oracle}'s [cluster] and
    [cluster_depth] rows enforce this).  [gc] is, as ever, the one
    run-dependent stats field. *)

(** One plan of the hierarchy: its 0-based index in traversal
    (partition) order, the sink count it covers, wall-clock planning
    seconds (as measured on whichever domain ran the plan) and the
    engine's stats ([gc] sampled on that same domain).  Used both for
    leaf regions ([per_cluster]) and stitch plans ([super]). *)
type cluster_stats = {
  cluster : int;
  n_sinks : int;
  wall_s : float;
  stats : Engine.stats;
}

(** Clustering detail of one run: the realized leaf-region count (after
    clamping to the sink count), the realized stitch depth (1 for the
    classic two-level construction), per-region stats, per-super-stitch
    stats (empty at depth 1 — the top-level stitch is reported in
    [top], not [super]) and the top-level stitch plan's stats. *)
type stats = {
  n_clusters : int;
  depth : int;
  per_cluster : cluster_stats array;
  super : cluster_stats array;
  top : Engine.stats;
}

(** Default region count: {!Clocktree.Instance.auto_regions} of the
    sink count, about one region per thousand sinks — no upper cap;
    past [fanout_cap] regions the stitch goes multi-level
    ({!auto_depth}) rather than letting regions grow with the
    instance. *)
val auto_clusters : Clocktree.Instance.t -> int

(** Maximum children any stitch plan sees (64). *)
val fanout_cap : int

(** Smallest stitch depth whose hierarchy reaches [k] regions under
    {!fanout_cap}: 1 for [k <= 64], 2 up to 4096, and so on. *)
val auto_depth : int -> int

(** [split_ids ?pool ?run point_of ids ~budget ~fanout] is one level
    of the budgeted halving: [ids] split by recursive
    {!Geometry.Split.bipartition} into [min fanout budget] groups (at
    least 1, at most [Array.length ids]), each with its share of the
    region [budget], in bipartition order.  Each group lists its ids in
    the (coordinate, id) order of the median split that emitted it.
    The halving runs level by level; with [pool], each level of two or
    more parts is one batch on it (ledgered under ["engine.partition"]
    by an enabled [run.sched] recorder),
    and the groups, their ids' order and their budgets equal the serial
    ones. *)
val split_ids :
  ?pool:Par.Pool.t ->
  ?run:Obs.Run.t ->
  (int -> Geometry.Pt.t) ->
  int array ->
  budget:int ->
  fanout:int ->
  (int array * int) array

(** [partition ?pool ?run inst ~clusters] splits the sink ids into
    [min clusters (n_sinks)] non-empty regions (at least 1) by
    recursive median bipartition along the longer bounding-box axis
    ({!Geometry.Split.bipartition}), level by level on [pool] as
    {!split_ids} does.  Every sink id appears in exactly one region; the
    result is a pure function of the instance — deterministic across
    pools, jobs counts and runs, and identical to the leaf regions of
    the multi-level hierarchy at any depth. *)
val partition :
  ?pool:Par.Pool.t ->
  ?run:Obs.Run.t ->
  Clocktree.Instance.t ->
  clusters:int ->
  int array array

(** [run_arena ?config ?run ?clusters ?depth inst] routes the instance
    in clustered mode straight into the flat post-order arena and
    returns it with the aggregate engine stats (component-wise sum over
    region plans, super stitches and the top-level stitch, with [gc]
    the caller-domain whole-run differential) and the per-cluster
    detail.  [clusters] defaults to {!auto_clusters}, clamped to
    [1 .. n_sinks]; [depth] defaults to {!auto_depth} of the realized
    cluster count and is clamped to [>= 1] (forcing it higher than
    needed degenerates gracefully — a budget-1 group plans directly
    regardless of remaining depth).
    [config.jobs] sizes the pool the whole route runs on, opened before
    the partition: the leaf regions' halving (the hierarchy above them
    follows from the region budgets alone), then every leaf region (one
    chunk each), then the stitches level by level (one batch per
    height), then the top-level stitch and the final embed.  Each plan below the top runs
    serially on the domain that claimed it ({!Par.Pool} is not
    reentrant).  A route of a single region opens no pool at all.  With
    [run.trace] enabled, plans
    emit the usual engine spans/journal records from their domains, a
    ["cluster.plan"] span wraps the levels below the top, one journal record of
    [type = "cluster"] (regions) or ["cluster_super"] (sub-level
    stitches) summarizes each plan, and the manifest gains the region
    count and realized depth.

    An enabled [run.sched] recorder ledgers the partition's batches
    under ["engine.partition"], the leaf regions under
    ["engine.regions"] (one item per region), the stitch levels under
    ["engine.stitch"], each embedding level of stitch and region plans
    under ["engine.embed"] (plus the top stitch's ledgers from
    {!Engine.plan} / {!Embed.run_arena}); an enabled [run.progress]
    reporter is told the top-level group count (depth 0) and — for
    hierarchies deeper than one level — the leaf-region count
    (depth 1), and sees a completion per planned region.  Neither
    influences planning: results stay bit-identical with recorder and
    reporter on or off. *)
val run_arena :
  ?config:Engine.config ->
  ?run:Obs.Run.t ->
  ?clusters:int ->
  ?depth:int ->
  Clocktree.Instance.t ->
  Clocktree.Arena.t * Engine.stats * stats
