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

    Stage 2 therefore lifts group-pure subtrees, whose edges delay one
    group only.  A sink's deficit is its group's target, [group max -
    bound], less its delay.  The top edge of every maximal group-pure
    subtree is snaked by the smallest deficit under it, and every edge
    below by what its own subtree's smallest deficit still exceeds the
    snaking above it, so a subtree whose sinks all lag is lifted once,
    at its top, and no sink is lifted past its target.  A lone sink —
    a pure subtree of one, under a mixed node — is lifted at its leaf
    edge.  It runs only when stage 1 leaves a residual violation.

    Each amount is scaled by its group's {e step}.  The cap a snake adds
    delays all the sinks below the snaked edge's ancestors, mostly by
    far more than the snake's own delay, so the full deficit overshoots.
    The step starts at 1 and, after each lift, the next evaluation's
    excess (spread over bound) rescales it by secant: by the excess
    before the lift over the distance it moved, capped at 1; an excess
    that grows right after a growth keeps the step (DESIGN.md §5.3).

    The cycle is {e incremental}: each balance pass memoizes every
    node's downstream cap and group-interval slab, and later passes
    revisit only the dirty frontier — nodes whose own edges were
    adjusted (by balance ulp-chasing or a lift sweep) plus the nodes
    above anything that changed.  A clean node's inputs are bit-identical
    to its memo, so skipping it is exact, not approximate: incremental
    repair returns the same tree and stats bitwise as the from-scratch
    walk (guarded by [Check.Oracle.repair]).  A node's group set is fixed
    by the topology, so its slab sits at a fixed offset of one flat
    store laid out before the first pass and is rewritten in place: the
    store holds exactly the live slabs and never grows or compacts.

    One fixpoint loop does all of it: balance, evaluate, count the groups
    over their bound plus an acceptance slack, then stop or lift and go
    round again, within a budget of [max_cycles] lifts ([max_cycles + 1]
    balance passes).  It has two callers, because the cycle is also
    {e windowed}.  {!Arena.windows} splits the tree into maximal
    subtrees of at most [ceil (nodes / k)] nodes (k the shared density
    target {!Instance.auto_regions}, as for [Dme.Cluster.auto_clusters],
    so [--clustered] regions and repair windows coincide at scale) under
    a thin spine of the nodes above them.  First, each window runs the
    fixpoint alone ({e regional}), serially on one domain, with delays
    measured from its root and acceptance at twice the final slack.
    Then the {e global} cycle runs the same fixpoint at the final slack
    on the residual dirty set, window by window and then the spine:
    - balance: each window pops its own ascending heap, and a window
      root balanced this pass hands its parent to the spine's heap;
    - evaluate: the spine's downstream caps (the windows refresh theirs
      in their balance task) and Elmore sweep, then each window fills
      its delays from its root's spine parent and scans its own sinks
      for its per-group delay range, and the spine folds those ranges
      with its own sinks' into the lift target;
    - lift: the spine's maximal group-pure subtrees (fixed by the
      topology and found once; in an intermingled tree nearly all of
      them are single sinks) set their snaking amounts first, then each
      window sets its own and makes its edge adjustments up to its root,
      then the spine makes its own, consuming the window roots' marks.
    Balancing or lifting a node reads only its subtree, so every node
    sees the inputs of the ascending walk of the whole tree.  Windows
    are disjoint index ranges, so their steps run on a [Par.Pool] of
    [jobs] domains, which also runs the regional fixpoints, one window
    per task; at
    [jobs = 1] or below two windows the same code runs serially.
    Windows depend only on the tree shape and [config.regions], never on
    the jobs count, and each pass's added wire is replayed on the
    calling domain from per-window adjustment logs merged by node index,
    in the order of the serial walk.  So trees, stats and every float
    sum are bit-identical for any [jobs].

    Cost of one incremental global cycle on [n] nodes, whose balance
    frontier holds [F] nodes and whose lift changes the caps of [L]
    nodes (the snaked edges' parents and their ancestors): O(F log n)
    balance, O(F) caps plus the O(n) delay sweep and sink scan, one
    sweep over the pure subtrees and O(L log n) edge adjustments.  The
    balance, evaluation and lift work is split across the windows, and
    so is laying out the slabs and the windows' worklists before the
    first pass.  The sweeps read flat arrays only, and the hot
    loops allocate nothing per node or edge: a global cycle allocates a
    small constant number of minor-heap words.  With
    [incremental = false] every pass walks the whole tree serially
    instead: the from-scratch reference.

    A well-planned tree needs ~0 added wire; this pass is the hard
    guarantee, not the optimizer. *)

type config = {
  max_cycles : int;
      (** cycle budget, per fixpoint: each regional fixpoint and the
          global cycle lift at most this many times, so balance at most
          [max_cycles + 1] times; default 300 *)
  jobs : int;  (** domains for the windows (regional fixpoints and the
          global cycle); default [Par.Pool.default_jobs ()] *)
  incremental : bool;
      (** revisit only the dirty frontier between cycles; [false] forces
          the from-scratch walk every pass (same result bitwise — this
          knob exists for the identity oracle and for debugging) *)
  regions : int option;
      (** window target count: [None] derives
          {!Arena.windows}' default [clamp 1 64 (ceil (n_sinks / 1000))]
          (below 2 there are no windows: no regional phase, and the
          global cycle walks the whole tree as one range);
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
  delays : float array;
      (** per sink id: the Elmore delays (ps, driver included) of the
          global cycle's last evaluation, which is of the returned tree —
          bit-identical to {!Evaluate.report_of_arena}'s serial sweep *)
}

(** [run_arena ?config ?run inst a] repairs the tree in place on its
    flat arena: only the [len] column is mutated.  A boxed tree is
    repaired by flattening it first ({!Arena.of_routed}).

    The global cycle is balance, evaluate, then either stop or lift, so
    whether it converges or exhausts its budget its last step is an
    evaluate, and no edit follows it: the returned [delays] are those of
    the final tree, and a route's report is {!Evaluate.of_delays} of
    them — one Elmore pass per route.  With
    [run.trace] enabled the whole
    pass is wrapped in a ["repair"] span, each global cycle emits
    ["balance_pass"] / ["lift_sweep"] instants and a ["repair_cycle"]
    journal record, each global lift a ["repair_lift"] record (per
    group: the step, and the predicted and the realized movement of the
    group's min and max sink delay — the prediction is the
    Elmore response to the lift's snaking, computed after it from the
    lengths it added, the realization the next evaluation's), the
    regional phase emits one ["regional_repair"]
    instant plus a ["repair_region"] journal record per region, and
    the global cycle exhausting its budget emits a ["budget_exhausted"]
    instant (a regional fixpoint never touches the trace: its record's
    ["exhausted"] field says it ran out).

    An enabled [run.sched] recorder ledgers the set-up batches under
    ["repair.setup"], the parallel regional phase under
    ["repair.regions"], and the global cycle's window batches under
    ["repair.cycle"] (balance, lift) and ["repair.evaluate"] (one per
    cycle); an enabled [run.progress] reporter is told
    the region count, sees a completion per finished regional
    fixpoint, and gets a heartbeat tick per global cycle.  Neither
    perturbs the repair: trees and stats stay bit-identical with them
    on or off. *)
val run_arena :
  ?config:config -> ?run:Obs.Run.t -> Instance.t -> Arena.t -> stats
