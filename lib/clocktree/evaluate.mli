(** Exact Elmore evaluation of embedded clock trees: wirelength, per-sink
    delays, global skew and per-group skew — the quantities reported in
    the thesis' Tables I and II.

    Evaluation runs on the flat post-order {!Arena}, whose RC kernels
    are bit-identical to the {!Tree.to_rctree} + {!Rc.Rctree.elmore}
    pipeline but iterative, so arbitrarily deep (comb-shaped) trees
    evaluate without stack overflow.

    With [jobs > 1] the kernels run windowed: {!Arena.windows} subtrees
    fill in parallel and a serial spine pass stitches the gaps.  Every
    node's value is computed by the serial kernel's expression from the
    serial operands, so reports are bit-identical for any [jobs] /
    [regions] (enforced by [Check.Oracle.evaluate]).  [regions]
    forces the window count; by default it derives from the sink count
    (small instances stay on the plain serial path). *)

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

(** Evaluate a tree on its arena (the router's representation; a boxed
    tree is flattened first with {!Arena.of_routed}).  An
    enabled [run.sched] recorder ledgers the windowed kernel maps under
    ["evaluate.windows"]; recording never changes the computed report
    ([Check.Oracle.sched] row). *)
val report_of_arena :
  ?jobs:int -> ?regions:int -> ?run:Obs.Run.t -> Instance.t -> Arena.t ->
  report

(** Does the tree satisfy the instance's intra-group bound (within
    [slack], default {!default_slack} ps of numerical slack)? *)
val within_bound : ?slack:float -> Instance.t -> report -> bool

val pp_report : Format.formatter -> report -> unit
