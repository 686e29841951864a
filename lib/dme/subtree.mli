(** Bottom-up subtree state of the deferred-merge engine.

    A subtree is represented by the region of admissible root locations
    (an octagon: the generalized merging segment / merging region),
    its downstream capacitance, and *exact* per-group delay intervals:
    for every point of the region, the realized Elmore delay from that
    point to each sink of group [g] lies in the recorded interval of [g].
    Exactness holds because merges either commit their wire lengths
    (delays are then position-independent) or restrict the region to
    shortest-path points whose split range is accounted for in the
    intervals.  A planning run keeps that state for every subtree in
    columns indexed by id ({!cols}); a record ({!t}) is a view of one.
    The top-down embedding reads none of it: it reads the run's
    {!store}, the merge plan, which the run's root carries. *)

(** Per-group delay windows: group [gid.(i)]'s delays lie in
    [[lo.(i), hi.(i)]] (ps), with [gid] strictly ascending.  Flat arrays
    rather than a map, so a feasibility walk over two subtrees' shared
    groups is a two-pointer merge over unboxed floats.  Never mutated
    once built. *)
type windows = { gid : int array; lo : floatarray; hi : floatarray }

(** What the top-down embedding needs of a subtree, and nothing of its
    bottom-up state.  A merged subtree keeps its own edge-length rule,
    never its children: the run that merged it records them in its plan
    {!store}. *)
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

(** One planning run's merge plan, append-only and indexed by subtree id
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

(** A sink leaf's state, for the reference merge's tests. *)
val leaf : Clocktree.Sink.t -> t
[@@reference]

(** [join ~id ~region ~cap ~delay a b plan] merges [a] (left) and [b]
    (right) at [region] by the rule [plan]; it keeps neither.  The
    reference merge's constructor ({!Merge.run_reference}). *)
val join :
  id:int -> region:Geometry.Octagon.t -> cap:float -> delay:windows -> t -> t ->
  plan -> t

val leaves : store -> int

(** The root's id: the last merge's, or the one leaf's. *)
val root : store -> int

(** A [Stored] root's store; raises [Invalid_argument] otherwise. *)
val store_of : t -> store

(** Sinks under an id. *)
val sinks_at : store -> int -> int

(** An id's region: a merge's, a sink's point, a sub-plan root's. *)
val region : store -> int -> Geometry.Octagon.t

(** {1 A planning run's columns}

    One planning run keeps the state of every subtree it makes in
    columns indexed by id (DESIGN.md section 6.2), so a merge reads its
    children and writes the merged id by index and allocates nothing:
    no record, region, window array or boxed float.  A {!t} is a view
    of one id ({!view}), built on demand. *)

(** The leaves a run starts from, ids [0 .. n-1] in array order: sinks,
    or subtrees that are all sinks or all finished plans ([Stored], a
    stitch). *)
type leaves = Sinks of Clocktree.Sink.t array | Subtrees of t array

(** The run's plan store, and by id: the region ([regions] slot [id]),
    capacitance, sink count and delay windows — group [wgid.(i)] in
    [[wlo.(i), whi.(i)]] for [i] in [woff.(id) .. woff.(id) + wlen.(id) -
    1], ascending — and, for a merge, its kind and feasibility as
    {!Merge.run} codes them ([kinds]) and its planned snake.  Window
    space is appended from [wtop]; the arrays are replaced only by
    {!reserve}.  Ids never return, so a merged-away id's slots are
    never reused. *)
type cols = private {
  plan : store;
  regions : Geometry.Octslab.t;
  caps : floatarray;
  sizes : int array;
  woff : int array;
  wlen : int array;
  mutable wgid : int array;
  mutable wlo : floatarray;
  mutable whi : floatarray;
  mutable wtop : int;
  kinds : Bytes.t;
  snakes : floatarray;
}

(** The columns of a run over non-empty [leaves], with room for its
    [n - 1] merges and an empty store.  A subtree leaf's state is
    copied; raises [Invalid_argument] on no leaves or on subtrees that
    are not all sinks or all [Stored]. *)
val cols : leaves -> cols

(** [reserve c a b] opens the next merge, of [a] (left) and [b], and
    returns its id, [leaves c.plan + merges]: it records the children
    and the sink count in the store, and reserves the merged windows'
    space — as many slots as the two windows have distinct groups —
    growing the window arrays when needed.  Called on one domain, in id
    order, before {!Merge.run} fills the id; once a round's merges are
    reserved, runs of them on several domains write disjoint slots.
    Raises [Invalid_argument] when every merge is reserved. *)
val reserve : cols -> int -> int -> int

(** The state of [id] as a record, with its plan: a leaf's [Sink] or
    [Stored], a merge's edge-length rule. *)
val view : cols -> int -> t

(** The run's root as a record, with [plan = Stored c.plan]. *)
val finish : cols -> t

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

(** [hull_hi c id] is [(delay_hull (view c id)).hi]. *)
val hull_hi : cols -> int -> float

(** [union_at ~wa c a ~wb b id] writes {!union_shifted}[ ~wa] of [a]'s
    windows [~wb] of [b]'s to the space {!reserve} gave [id], with the
    same float operations. *)
val union_at : wa:float -> cols -> int -> wb:float -> int -> int -> unit

(** Smallest remaining slack [bound_of g - width g] over the subtree's
    groups [g]; [infinity] when there are none (never happens). *)
val min_slack_by : bound_of:(int -> float) -> t -> float
