(** Exact Elmore evaluation of embedded clock trees: wirelength, per-sink
    delays, global skew and per-group skew — the quantities reported in
    the thesis' Tables I and II.

    A route evaluates once: {!Repair.run_arena} returns the per-sink
    Elmore delays of its last evaluation, which is always of the final
    tree, and {!of_delays} folds them into the grouped report.
    {!report_of_arena} is the serial reference sweep over the flat
    post-order {!Arena}, whose RC kernels are bit-identical to the
    {!Tree.to_rctree} + {!Rc.Rctree.elmore} pipeline but iterative, so
    arbitrarily deep (comb-shaped) trees evaluate without stack
    overflow.  The two agree bit for bit ([Check.Oracle.evaluate]). *)

type report = {
  wirelength : float;
  snaking : float;
  delays : float array;  (** per sink id, ps, driver included *)
  min_delay : float;
  max_delay : float;
  global_skew : float;  (** max - min over all sinks, ps *)
  group_skew : float array;  (** per-group max - min, ps *)
  max_group_skew : float;
}

(** The default acceptance slack of {!within_bound} (ps).
    {!Repair.run_arena} uses the same constant, so repair's convergence test and the final
    acceptance check cannot drift apart. *)
val default_slack : float

(** [of_delays inst a delays]: the report of arena [a] whose per-sink
    delays (indexed by sink id, ps, driver included) are [delays] —
    wirelength and snaking from [a], the global and per-group extremes
    folded over [inst]'s sinks.  [delays] becomes the report's own
    array.  The router's evaluate phase is this call on
    {!Repair.stats}' [delays]. *)
val of_delays : Instance.t -> Arena.t -> float array -> report

(** Evaluate a tree on its arena (a boxed tree is flattened first with
    {!Arena.of_routed}) by the serial reference sweep: downstream caps,
    node delays and the per-sink scatter, then {!of_delays}.  The
    oracles, the auditor's callers and the tests compare against it.
    [jobs] is ignored: it is kept only because the benchmark's frozen
    replay passes [~jobs], until that replay routes through
    [Router.route] (ROADMAP item 8, "The perfbench half of one
    benchmark harness"). *)
val report_of_arena : ?jobs:int -> Instance.t -> Arena.t -> report

(** Does the tree satisfy the instance's intra-group bound (within
    [slack], default {!default_slack} ps of numerical slack)? *)
val within_bound : ?slack:float -> Instance.t -> report -> bool

val pp_report : Format.formatter -> report -> unit
