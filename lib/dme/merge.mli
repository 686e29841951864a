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

(** A merge's outcome as the reference returns it. *)
type result = {
  subtree : Subtree.t;
  kind : kind;
  planned_wire : float;  (** wire committed by this merge *)
  snake : float;  (** part of [planned_wire] beyond the region distance *)
  feasible : bool;  (** false when constraints were mutually inconsistent *)
}

(** [run inst ~split_slack ~width_cap c ~id a b] merges the run's
    subtrees [a] (left) and [b] into [id], the id {!Subtree.reserve}
    gave them.  [split_slack] is the fraction of [bound] a cross-group
    merge may spend on split-range delay uncertainty per merge;
    [width_cap] caps the cumulative width of any group's delay window
    at that fraction of the bound, reserving slack for later
    constrained merges.  A constrained merge may consume 0.3 of each
    shared group's remaining slack before snaking is considered.  It
    writes [id]'s region, capacitance, delay windows, kind,
    feasibility and snake to [c], and the merge's edge-length rule and
    region to its slot of [c.plan], and reads nothing else of [c]
    that a merge writes: the merges a round reserved may run on
    several domains at once.  It allocates nothing: the balance plan,
    the windows and the merging region are computed in unboxed locals
    and per-domain scratch.  {!view}[ c id] equals
    {!run_reference}'s subtree bit for bit, and {!kind_at},
    {!feasible_at}, [c.snakes] and {!planned_wire} its outcome. *)
val run :
  Clocktree.Instance.t ->
  split_slack:float ->
  width_cap:float ->
  Subtree.cols ->
  id:int ->
  int ->
  int ->
  unit

(** The kind {!run} wrote for merge [id]. *)
val kind_at : Subtree.cols -> int -> kind

(** Whether merge [id]'s constraints were consistent, as {!run} wrote
    it. *)
val feasible_at : Subtree.cols -> int -> bool

(** The wire merge [id] committed: its lengths' sum, or its split
    total. *)
val planned_wire : Subtree.cols -> int -> float

(** [run_reference] is {!run}'s executable specification: the same
    merge over subtree records, with every step as the octagon,
    interval and {!Rc.Balance.plan} values it describes.  Kept as the
    reference the tests compare {!run} against. *)
val run_reference :
  Clocktree.Instance.t ->
  split_slack:float ->
  width_cap:float ->
  id:int ->
  Subtree.t ->
  Subtree.t ->
  result
[@@reference]

(** [committed_feasible inst c ~dist a b] is [a] and [b]'s merge's
    feasibility as {!run} would write it, bit for bit, computed without
    building the merged subtree — no region intersection, no window
    union: one two-pointer walk over the two subtrees' delay windows.
    [dist] must be the two regions' distance ([Octslab.dist]).  This is
    the trial merge's only cost-relevant output when ranking by region
    distance, so the ranking loop never runs a trial merge (see
    {!Engine}). *)
val committed_feasible :
  Clocktree.Instance.t ->
  Subtree.cols ->
  dist:float ->
  int ->
  int ->
  bool

val pp_kind : Format.formatter -> kind -> unit
