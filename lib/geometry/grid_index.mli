(** Uniform-grid spatial index over representative points.

    Used by the merge-ordering stage to generate nearest-neighbour
    candidates in roughly O(1) per query.  Distances here are between the
    stored representative points (L1); callers refine candidates with
    exact region distances.

    Storage is a dense window of cells over the bounding box of the
    points added, one word per cell until the cell is first occupied, so
    memory grows with the box's area in cells.  Each occupied cell's
    bucket is structure-of-arrays — ids and unboxed x/y coordinates in
    parallel arrays, values beside them only for the list wrappers — so
    the two query kernels, {!knn_into} and {!iter_within}, scan entries
    without touching a boxed point.  A non-finite point has
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

(** {1 The k-NN kernel} *)

(** A caller-owned k-NN answer buffer, reused across queries: [kids],
    [kdist], [kx] and [ky] hold the answer's ids, L1 distances from the
    query and points at indices [0 .. klen - 1], ascending by distance,
    the later-added (later-visited) entry first on distance ties.
    [exhaustive] reports that the answer holds every eligible entry;
    otherwise [kth] is the query's {e exclusion bound}: every eligible
    entry not in the answer lies at L1 distance >= [kth] (the k-th
    answer's distance) from the query — the lower bound the DME
    incremental ranking needs to prove that entries it never evaluated
    cannot beat a cached proposal.  [kth] is [infinity] when
    [exhaustive].  A buffer must not be shared between domains. *)
type knn = private {
  mutable kids : int array;
  mutable kdist : floatarray;
  mutable kx : floatarray;
  mutable ky : floatarray;
  mutable klen : int;
  mutable kth : float;
  mutable exhaustive : bool;
}

val knn_buffer : unit -> knn

(** [knn_into t buf ~skip q k] overwrites [buf] with the up to [k]
    entries L1-nearest to [q], ignoring entries whose id satisfies
    [skip].  Scanning an entry allocates nothing. *)
val knn_into : 'a t -> knn -> skip:(int -> bool) -> Pt.t -> int -> unit

(** [iter_within t p r f] applies [f] to the id of every entry within
    L1 distance [r] of [p], without materializing a list.  A negative
    [r] or an empty index visits nothing without scanning.  Visit order
    is unspecified; callers must be order-insensitive. *)
val iter_within : 'a t -> Pt.t -> float -> (int -> unit) -> unit

(** {1 List wrappers}

    Convenience forms over the two kernels above, allocating a fresh
    result (and, for the k-NN forms, a fresh buffer) per call.  Points
    come back rebuilt from the stored coordinates. *)

(** [k_nearest_probe t ?skip p k] is {!knn_into} as a list plus the
    exclusion bound: [Some kth], or [None] when the answer is
    exhaustive. *)
val k_nearest_probe :
  'a t -> ?skip:(int -> bool) -> Pt.t -> int -> (int * Pt.t * 'a) list * float option

(** [k_nearest t ?skip p k] is up to [k] eligible entries ordered by
    increasing L1 point distance. *)
val k_nearest :
  'a t -> ?skip:(int -> bool) -> Pt.t -> int -> (int * Pt.t * 'a) list

(** [nearest t ?skip p] is the eligible entry whose point is L1-nearest
    to [p] (the later-added one on ties), [None] when no eligible entry
    exists. *)
val nearest : 'a t -> ?skip:(int -> bool) -> Pt.t -> (int * Pt.t * 'a) option

(** All entries within L1 distance [r] of [p], in unspecified order. *)
val within : 'a t -> Pt.t -> float -> (int * Pt.t * 'a) list

(** [cell_of t p] is the grid-cell key of point [p] — exposed so callers
    tracking cached query results can detect mutations landing in a
    specific entry's cell (same-cell bucket churn may reorder distance
    ties, see {!knn}). *)
val cell_of : 'a t -> Pt.t -> int * int
