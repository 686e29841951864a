(** Exact skew repair by wire snaking, on the flat post-order {!Arena}.

    Stage 1 revisits every merge node bottom-up.  For each group spanning
    both children the admissible range of the delay shift
    [x = extra_left - extra_right] is an interval; intersecting the
    intervals of all spanning groups and realizing the smallest |x| by
    lengthening one child edge enforces the intra-group bound at that
    node (classic Tsay-style balancing restricted to the groups that
    meet there).  When several spanning groups demand inconsistent
    shifts — the thesis' Instance 2 situation — a single edge cannot
    satisfy them all.

    Stage 2 therefore lifts individual sinks: leaf edges are group-pure,
    so snaking the leaf edge of every sink whose delay falls below
    [group max - bound] always converges to a feasible tree.  It runs
    only when stage 1 leaves a residual violation.

    The cycle is {e incremental}: each balance pass memoizes every
    node's downstream cap and group-interval slab, and later passes
    revisit only the dirty frontier — nodes whose own edges were
    adjusted (by balance ulp-chasing or a lift sweep) plus the nodes
    above anything that changed.  A clean node's inputs are bit-identical
    to its memo, so skipping it is exact, not approximate: incremental
    repair returns the same tree and stats bitwise as the from-scratch
    walk (guarded by [Check.Oracle.repair]).

    Cost of one incremental cycle on a range of [n] nodes, whose balance
    frontier holds [F] nodes and whose lift changes the caps of [L]
    nodes (the snaked edges' parents and their ancestors):
    - balance: O(F log n) — an ascending heap seeded with the dirty
      nodes, pushing the parent of every balanced node;
    - evaluate: O(F) downstream caps (the balanced nodes and their
      children), then one dense O(n) Elmore sweep and one scan of the
      sinks for the per-group delay range and lift target;
    - lift: one sweep over the group-pure subtrees (fixed by the
      topology and found once per fixpoint; in an intermingled tree
      nearly all of them are single sinks), then O(L log n) edge
      adjustments.
    The sweeps read flat arrays only.  The hot loops allocate nothing
    but the boxed result of each [Rc.Elmore.wire_for_delay] call and of
    each added-wire update.  With [incremental = false] every pass walks
    the whole range instead: the from-scratch reference.

    On large instances the cycle is also {e regional}: maximal subtrees
    of at most [ceil (nodes / k)] nodes (k the shared density target
    {!Instance.auto_regions}, as for [Dme.Cluster.auto_clusters], so
    [--clustered] regions and repair regions coincide at scale) first
    run their own local
    balance/evaluate/lift fixpoints — in parallel across [Par.Pool] when
    [jobs > 1], which is safe because regions are disjoint index ranges
    and balancing node [v] reads only [v]'s subtree — and the global
    cycle then runs on the residual dirty set.  Regions depend only on
    the tree shape and [config.regions], never on the jobs count, and
    regional fixpoints accept at twice the final slack (the global cycle
    enforces the real bound), so results are independent of [jobs].

    A well-planned tree needs ~0 added wire; this pass is the hard
    guarantee, not the optimizer. *)

type config = {
  max_cycles : int;
      (** balance/lift cycle budget, per fixpoint (each regional fixpoint
          and the global cycle get this many balance passes); default
          300 *)
  jobs : int;  (** worker domains for the regional phase; default
          [Par.Pool.default_jobs ()] *)
  incremental : bool;
      (** revisit only the dirty frontier between cycles; [false] forces
          the from-scratch walk every pass (same result bitwise — this
          knob exists for the identity oracle and for debugging) *)
  regions : int option;
      (** regional-fixpoint target count: [None] derives
          {!Arena.windows}' default [clamp 1 64 (ceil (n_sinks / 1000))]
          (below 2 the regional phase is skipped and repair is the pure
          global cycle);
          [Some k] forces a target, letting tests and oracles exercise
          the regional machinery on small instances *)
}

val default_config : config

type stats = {
  added_wire : float;  (** total snaking wire added by both stages *)
  adjusted_edges : int;
  conflict_nodes : int;
      (** merge nodes whose spanning groups demanded inconsistent shifts
          on their first balance visit (resolved by stage 2) *)
  lift_iterations : int;
      (** stage-2 sweeps performed (regional + global), 0 when not
          needed *)
  unresolved_groups : int;
      (** groups still violating the bound after repair; 0 in all
          supported configurations *)
  cycles : int;  (** balance passes executed (regional + global) *)
  budget_exhausted : bool;
      (** some fixpoint hit [max_cycles] before converging *)
}

(** [run_arena ?config ?run inst a] repairs the tree in place on its
    flat arena: only the [len] column is mutated.  This is the
    arena-native pipeline's entry point — {!run} is the pointer-tree
    wrapper (flatten, repair, rebuild).  With [run.trace] enabled the whole
    pass is wrapped in a ["repair"] span, each global cycle emits
    ["balance_pass"] / ["lift_sweep"] instants and a ["repair_cycle"]
    journal record, the regional phase emits one ["regional_repair"]
    instant plus a ["repair_region"] journal record per region, and
    exhausting a cycle budget emits a ["budget_exhausted"] instant.

    An enabled [run.sched] recorder ledgers the parallel regional phase
    under ["repair.regions"]; an enabled [run.progress] reporter is told
    the region count, sees a completion per converged regional
    fixpoint, and gets a heartbeat tick per global cycle.  Neither
    perturbs the repair: trees and stats stay bit-identical with them
    on or off. *)
val run_arena :
  ?config:config -> ?run:Obs.Run.t -> Instance.t -> Arena.t -> stats

(** {!run_arena} on [Arena.of_routed routed], rebuilding the repaired
    pointer tree afterwards. *)
val run :
  ?config:config ->
  ?run:Obs.Run.t ->
  Instance.t ->
  Tree.routed ->
  Tree.routed * stats
