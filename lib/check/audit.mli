(** Invariant auditor for routed clock trees, read from the route's
    flat post-order {!Clocktree.Arena}.

    Three layers, each returning the (possibly empty) list of violated
    invariants:

    - {!structure}: the tree is well-formed, checked on the arena's
      columns — post-order topology ([left]/[right]/[parent]/[size]
      agree), every instance sink appears as exactly one leaf at the
      instance's location and cap; positions and edge lengths are
      finite; every edge is at least as long as the L1 distance between
      its endpoints (the excess being snaking wire).  The derived RC
      tree must be electrically sane.
    - {!semantics}: an {!Clocktree.Evaluate.report} is consistent with
      the tree it claims to describe — delays, wirelength, snaking and
      all skew aggregates match an independent recomputation.
    - {!bound}: the tree satisfies the skew contract it was routed
      under ({!Grouped} for AST-DME/MMM-DME, {!Global} for the fused
      EXT-BST and zero-skew baselines).

    The RC-tree audit and the recomputation of delays, wirelength and
    snaking read the boxed view ({!Clocktree.Arena.to_routed} through
    {!Clocktree.Tree.to_rctree}, {!Rc.Rctree.elmore},
    {!Clocktree.Tree.wirelength} and {!Clocktree.Tree.total_snaking}),
    never the arena kernels that produced the report.  The view is built
    once per audit, and only from an arena whose columns passed.

    {!journal}, {!sched_report} and {!clustering} audit the accounts a
    run keeps of itself against what the run did. *)

type violation = { invariant : string; detail : string }

val pp_violation : Format.formatter -> violation -> unit

(** Skew contract of a router's output (see {!Astskew.Router}). *)
type contract =
  | Grouped  (** per-group skew within each group's own bound *)
  | Global of float  (** global skew within the given bound *)

val structure : Clocktree.Instance.t -> Clocktree.Arena.t -> violation list [@@reference]

(** On an arena that fails {!structure}'s column checks nothing is
    recomputed, and a ["delays-match"] violation says so. *)
val semantics :
  Clocktree.Instance.t ->
  Clocktree.Arena.t ->
  Clocktree.Evaluate.report ->
  violation list
[@@reference]

val bound :
  contract -> Clocktree.Instance.t -> Clocktree.Evaluate.report -> violation list
[@@reference]

(** [partition_cover inst regions] audits a spatial partition of the
    instance's sink ids (see {!Dme.Cluster.partition}): every sink id
    appears in exactly one region, every region is non-empty, and at
    least one region exists when the instance has sinks. *)
val partition_cover :
  Clocktree.Instance.t -> int array array -> violation list

(** All three layers in order, sharing one boxed view. *)
val run :
  contract ->
  Clocktree.Instance.t ->
  Clocktree.Arena.t ->
  Clocktree.Evaluate.report ->
  violation list

(** A trace's per-round journal records sum exactly to the engine's
    aggregate stats (round count, probes, queries, elided trials), and
    its Chrome export re-parses through
    {!Obs.Json} with a non-empty [traceEvents] list. *)
val journal : Obs.Trace.t -> Dme.Engine.stats -> violation list

(** A recorded run at [jobs] carries an efficiency report whose pool
    width is in [1, jobs] (one-sided: tiny instances clamp below the
    request), whose serial fraction is in [0, 1] and whose phase walls
    are at least its parallel walls. *)
val sched_report : jobs:int -> Obs.Sched.report option -> violation list

(** A clustered run's detail: [min clusters n_sinks] (at least 1)
    non-empty regions whose sizes sum to the sink count, and — when
    [depth] is forced and there are at least [2^depth] regions — that
    realized depth, with super-stitch plans at depth 2 and above. *)
val clustering :
  Clocktree.Instance.t ->
  clusters:int ->
  ?depth:int ->
  Dme.Cluster.stats option ->
  violation list
