(** Bottom-up subtree state of the deferred-merge engine.

    A subtree is represented by the region of admissible root locations
    (an octagon: the generalized merging segment / merging region),
    its downstream capacitance, and *exact* per-group delay intervals:
    for every point of the region, the realized Elmore delay from that
    point to each sink of group [g] lies in the recorded interval of [g].
    Exactness holds because merges either commit their wire lengths
    (delays are then position-independent) or restrict the region to
    shortest-path points whose split range is accounted for in the
    intervals.  The top-down embedding reads none of that: it reads a
    ranking run's {!store}, the merge plan, which the run's root
    carries. *)

(** Per-group delay windows: group [gid.(i)]'s delays lie in
    [[lo.(i), hi.(i)]] (ps), with [gid] strictly ascending.  Flat arrays
    rather than a map, so a feasibility walk over two subtrees' shared
    groups is a two-pointer merge over unboxed floats.  Never mutated
    once built. *)
type windows = { gid : int array; lo : floatarray; hi : floatarray }

(** What the top-down embedding needs of a subtree, and nothing of its
    bottom-up state.  A merged subtree keeps its own edge-length rule,
    never its children: the ranking run that merged it records them in
    its plan {!store}. *)
type plan =
  | Sink of Clocktree.Sink.t  (** a sink leaf *)
  | Committed of { ea : float; eb : float }
      (** fixed wire lengths; shortfall against the placed distance is
          snaked *)
  | Split of { total : float; split_lo : float; split_hi : float }
      (** shortest-path merge: the wire to the left child has length
          [dist(p, left.region)] ∈ [split_lo, split_hi] and the right
          wire takes the rest of [total] *)
  | Stored of store  (** a finished plan, the root of its store *)

(** One ranking run's merge plan, append-only and indexed by subtree id
    (DESIGN.md section 6.1).  Ids below {!leaves} are the run's leaves,
    each standing for a sink ([sinks]) or, in a stitch, a finished
    sub-plan ([subs]); one of the two is empty.  Merge [m] has id
    [leaves + m] and slot [m] of the columns: child ids [kids.(2m)]
    (left) and [kids.(2m+1)], its sink count, its rule ([rule.[m]] is
    ['c'] for [Committed] with [ea], [eb] at [lengths.(3m)],
    [lengths.(3m+1)], or ['s'] for [Split] with [total], [split_lo],
    [split_hi] from [lengths.(3m)]) and its region's bounds. *)
and store = {
  sinks : Clocktree.Sink.t array;
  subs : store array;
  mutable merges : int;  (** merges recorded, at most [leaves - 1] *)
  kids : int array;
  n_sinks : int array;
  rule : Bytes.t;
  lengths : floatarray;
  bounds : Geometry.Octslab.t;
}

type t = {
  id : int;
  region : Geometry.Octagon.t;
  cap : float;  (** downstream capacitance, fF, wires included *)
  delay : windows;  (** per-group delay from the region, ps *)
  n_sinks : int;
  plan : plan;
}

val leaf : Clocktree.Sink.t -> t

(** [join ~id ~region ~cap ~delay a b plan] merges [a] (left) and [b]
    (right) at [region] by the rule [plan]; it keeps neither. *)
val join :
  id:int -> region:Geometry.Octagon.t -> cap:float -> delay:windows -> t -> t ->
  plan -> t

(** An empty store over non-empty leaves with ids [0 .. n-1], all sinks
    or all [Stored]; raises [Invalid_argument] otherwise. *)
val store : t array -> store

val leaves : store -> int

(** The root's id: the last merge's, or the one leaf's. *)
val root : store -> int

(** [record st t ~left ~right] appends merge [t] of ids [left] and
    [right]; [t.id] must be [leaves st + st.merges]. *)
val record : store -> t -> left:int -> right:int -> unit

(** [stored st t] is the finished root [t] with [plan = Stored st]. *)
val stored : store -> t -> t

(** A [Stored] root's store; raises [Invalid_argument] otherwise. *)
val store_of : t -> store

(** Sinks under an id. *)
val sinks_at : store -> int -> int

(** An id's region: a merge's, a sink's point, a sub-plan root's. *)
val region : store -> int -> Geometry.Octagon.t

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

(** Smallest remaining slack [bound_of g - width g] over the subtree's
    groups [g]; [infinity] when there are none (never happens). *)
val min_slack_by : bound_of:(int -> float) -> t -> float
