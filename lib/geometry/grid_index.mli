(** Uniform-grid spatial index over representative points.

    Used by the merge-ordering stage to generate nearest-neighbour
    candidates in roughly O(1) per query.  Distances here are between the
    stored representative points (L1); callers refine candidates with
    exact region distances.

    Storage is a dense window of cells over the bounding box of the
    points added, one word per cell until the cell is first occupied, so
    memory grows with the box's area in cells.  A non-finite point has
    no cell: {!add}, {!remove}, {!cell_of} and any query that scans the
    grid raise [Invalid_argument] on one. *)

type 'a t

(** [create ~cell] builds an empty index with square cells of side
    [cell].  Raises [Invalid_argument] unless [cell] is positive and
    finite. *)
val create : cell:float -> 'a t

(** [add t ~id p v] indexes value [v] under [id] at point [p].  An
    existing entry with the same [id] must be removed first.  Raises
    [Invalid_argument] on a non-finite [p]. *)
val add : 'a t -> id:int -> Pt.t -> 'a -> unit

(** [remove t ~id p] removes the entry; [p] must be the point it was added
    at.  Unknown ids are ignored. *)
val remove : 'a t -> id:int -> Pt.t -> unit

val size : 'a t -> int

(** [nearest t ?skip p] is the entry whose point is L1-nearest to [p],
    ignoring entries for which [skip] holds.  [None] when no eligible
    entry exists. *)
val nearest : 'a t -> ?skip:(int -> bool) -> Pt.t -> (int * Pt.t * 'a) option

(** [k_nearest t ?skip p k] is up to [k] eligible entries ordered by
    increasing L1 point distance. *)
val k_nearest :
  'a t -> ?skip:(int -> bool) -> Pt.t -> int -> (int * Pt.t * 'a) list

(** [k_nearest_probe t ?skip p k] is {!k_nearest} plus the query's
    {e exclusion bound}: [Some d] promises that every eligible entry
    {e not} in the returned list lies at L1 distance >= [d] (the k-th
    candidate's distance) from [p] — the lower bound the DME incremental
    ranking needs to prove that entries it never evaluated cannot beat a
    cached proposal.  [None] means the scan was exhaustive: the list
    contains {e every} eligible entry, so nothing was excluded. *)
val k_nearest_probe :
  'a t -> ?skip:(int -> bool) -> Pt.t -> int -> (int * Pt.t * 'a) list * float option

(** [cell_of t p] is the grid-cell key of point [p] — exposed so callers
    tracking cached query results can detect mutations landing in a
    specific entry's cell (same-cell bucket churn may reorder distance
    ties, see {!k_nearest_probe}). *)
val cell_of : 'a t -> Pt.t -> int * int

(** All entries within L1 distance [r] of [p].  A negative [r] or an
    empty index returns [[]] without scanning. *)
val within : 'a t -> Pt.t -> float -> (int * Pt.t * 'a) list

(** [iter_within t p r f] applies [f] to every entry within L1 distance
    [r] of [p], without materializing the {!within} list.  Visit order is
    unspecified; callers must be order-insensitive. *)
val iter_within : 'a t -> Pt.t -> float -> (int -> Pt.t -> 'a -> unit) -> unit

(** [for_all_within t p r f] is [List.for_all f (within t p r)] without
    the list.  The scan is {e not} cut short by a failing entry, so the
    grid visit counters do not depend on which entry fails. *)
val for_all_within : 'a t -> Pt.t -> float -> (int -> Pt.t -> 'a -> bool) -> bool
