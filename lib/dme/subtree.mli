(** Bottom-up subtree state of the deferred-merge engine.

    A subtree is represented by the region of admissible root locations
    (an octagon: the generalized merging segment / merging region),
    its downstream capacitance, and *exact* per-group delay intervals:
    for every point of the region, the realized Elmore delay from that
    point to each sink of group [g] lies in the recorded interval of [g].
    Exactness holds because merges either commit their wire lengths
    (delays are then position-independent) or restrict the region to
    shortest-path points whose split range is accounted for in the
    intervals. *)

(** Per-group delay windows: group [gid.(i)]'s delays lie in
    [[lo.(i), hi.(i)]] (ps), with [gid] strictly ascending.  Flat arrays
    rather than a map, so a feasibility walk over two subtrees' shared
    groups is a two-pointer merge over unboxed floats.  Never mutated
    once built. *)
type windows = { gid : int array; lo : floatarray; hi : floatarray }

(** How the two child wires of a merge are realized at embedding time. *)
type lengths =
  | Committed of { ea : float; eb : float }
      (** fixed wire lengths; shortfall against the placed distance is
          snaked *)
  | Split of { total : float; split_lo : float; split_hi : float }
      (** shortest-path merge: the wire to the left child has length
          [dist(p, left.region)] ∈ [split_lo, split_hi] and the right
          wire takes the rest of [total] *)

(** The merge plan: what the top-down embedding reads of a subtree —
    its region, its sink count, its children's plans and its edge-length
    rule — and nothing of the bottom-up state (delay windows, cap, id).
    A merged subtree's record and windows become garbage once the
    ranking loop drops it, while its plan node lives on inside its
    parent's.  A sink's region is [Octagon.of_point s.loc], rebuilt by
    {!plan_region} where the embedding needs it.  Never mutated. *)
type plan =
  | Sink of Clocktree.Sink.t
  | Join of {
      region : Geometry.Octagon.t;
      n_sinks : int;
      left : plan;
      right : plan;
      lengths : lengths;
    }

type t = {
  id : int;
  region : Geometry.Octagon.t;
  cap : float;  (** downstream capacitance, fF, wires included *)
  delay : windows;  (** per-group delay from the region, ps *)
  n_sinks : int;
  plan : plan;  (** [region] and [n_sinks] are the plan's own *)
}

val leaf : Clocktree.Sink.t -> t

(** [join ~id ~region ~cap ~delay a b lengths] is the subtree merging
    [a] (left) and [b] (right) at [region]: its plan node points at the
    children's plans, not at [a] and [b]. *)
val join :
  id:int -> region:Geometry.Octagon.t -> cap:float -> delay:windows -> t -> t ->
  lengths -> t

(** A plan's region of admissible root locations: a join's own, a
    sink's [Octagon.of_point s.loc], the region {!leaf} gives it. *)
val plan_region : plan -> Geometry.Octagon.t

(** Sinks under a plan. *)
val plan_n_sinks : plan -> int

(** Group ids present in the subtree. *)
val groups : t -> int list

(** Group [g]'s delay window, [None] when the subtree has no sink of
    [g]. *)
val window : t -> int -> Geometry.Interval.t option

(** Groups present in both subtrees, ascending. *)
val shared_groups : t -> t -> int list

(** [union_shifted ~wa a ~wb b] is the windows of a merge whose wires
    add delay [wa] above [a] and [wb] above [b]: each side's windows
    shifted, and the hull of the two where a group is on both sides. *)
val union_shifted : wa:float -> windows -> wb:float -> windows -> windows

(** Hull of all per-group delay intervals. *)
val delay_hull : t -> Geometry.Interval.t

(** Largest per-group delay interval width (ps). *)
val max_group_width : t -> float

(** Smallest remaining slack [bound - width] over the subtree's groups;
    [bound] when there are none (never happens). *)
val min_slack : bound:float -> t -> float

(** Per-group variant: smallest [bound_of g - width g]. *)
val min_slack_by : bound_of:(int -> float) -> t -> float

val pp : Format.formatter -> t -> unit
