(** The four merge cases of the AST-DME algorithm (Fig. 6 of the thesis).

    Dispatch is on the group relation between the two subtrees:

    - {b same group} / {b shared groups} (steps 4, 6, 7): the shared
      groups impose skew constraints; wire lengths are committed by
      {!Rc.Balance.plan} (snaking when the slack cannot absorb the
      imbalance — the Instance 1/2 machinery of §V.E reduced to delay
      algebra) and the merging region is
      [trr(A, ea) ∩ trr(B, eb)].
    - {b different groups} (step 5): no constraint; the merging region is
      the shortest-distance region between the child regions (Fig. 3),
      restricted so that the delay uncertainty it introduces stays within
      the configured fraction of each group's remaining slack. *)

type kind = Same_group | Cross_group | Shared_one | Shared_multi

type result = {
  subtree : Subtree.t;
  kind : kind;
  planned_wire : float;  (** wire committed by this merge *)
  snake : float;  (** part of [planned_wire] beyond the region distance *)
  feasible : bool;  (** false when constraints were mutually inconsistent *)
}

(** Fraction of a group's remaining slack one constrained merge may
    consume before snaking is considered (gradual slack spending): 0.3. *)
val slack_usage : float

(** [run inst ~split_slack ~width_cap ~id a b] merges two subtrees.
    [split_slack] is the fraction of [bound] a cross-group merge may
    spend on split-range delay uncertainty per merge; [width_cap] caps
    the cumulative width of any group's delay window at that fraction of
    the bound, reserving slack for later constrained merges;
    [slack_usage] (default {!slack_usage}) is the fraction of each
    group's remaining slack one merge may consume before snaking is
    considered; [id] names the new subtree.  Allocates the merged
    subtree and the result, and little else: the plan, the windows and
    the merging region are computed in unboxed locals and per-domain
    scratch. *)
val run :
  Clocktree.Instance.t ->
  ?slack_usage:float ->
  split_slack:float ->
  width_cap:float ->
  id:int ->
  Subtree.t ->
  Subtree.t ->
  result

(** [run_reference] is {!run}'s executable specification: the same
    merge with every step as the octagon, interval and
    {!Rc.Balance.plan} values it describes.  {!run} equals it bit for
    bit in every field of the result; kept as the reference the tests
    compare against. *)
val run_reference :
  Clocktree.Instance.t ->
  ?slack_usage:float ->
  split_slack:float ->
  width_cap:float ->
  id:int ->
  Subtree.t ->
  Subtree.t ->
  result

(** [committed_feasible inst ~dist a b] is [(run inst ... a b).feasible]
    under the same [slack_usage], bit for bit, computed without building
    the merged subtree — no region intersection, no window union: one
    two-pointer walk over the two subtrees' delay windows.  [dist] must
    be [Octagon.dist a.region b.region].  This is the trial merge's only
    cost-relevant output when ranking by region distance, so the ranking
    loop never runs a trial merge there (see {!Engine}). *)
val committed_feasible :
  Clocktree.Instance.t ->
  ?slack_usage:float ->
  dist:float ->
  Subtree.t ->
  Subtree.t ->
  bool

val pp_kind : Format.formatter -> kind -> unit
