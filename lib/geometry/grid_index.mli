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
    the k-NN kernel {!knn_into} scans entries without touching a boxed
    point.  Every answer is ordered by ascending (L1 distance, id): it
    is a function of the stored (id, point) set and the query alone, so
    two indexes holding the same entries answer identically whatever
    their cell sizes or mutation histories.  A non-finite point has no
    cell: {!add}, {!remove} and any query that scans the grid raise
    [Invalid_argument] on one. *)

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
    query and points at indices [0 .. klen - 1], ascending by
    (distance, id).  [exhaustive] reports that the answer holds every
    eligible entry; otherwise [kth] is the query's {e exclusion bound}:
    every eligible entry not in the answer lies at L1 distance >= [kth]
    (the k-th answer's distance) from the query.  [kth] is [infinity]
    when [exhaustive].  A buffer must not be shared between domains. *)
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

(** [knn_into t buf ~skip q k] overwrites [buf] with the [k] entries
    that come first by (L1 distance to [q], id), ignoring entries whose
    id satisfies [skip] (fewer when fewer are eligible).  Scanning an
    entry allocates nothing. *)
val knn_into : 'a t -> knn -> skip:(int -> bool) -> Pt.t -> int -> unit

(** {1 List wrappers}

    Convenience forms over the kernel above, allocating a fresh
    result (and, for the k-NN forms, a fresh buffer) per call.  Points
    come back rebuilt from the stored coordinates. *)

(** [k_nearest_probe t ?skip p k] is {!knn_into} as a list plus the
    exclusion bound: [Some kth], or [None] when the answer is
    exhaustive. *)
val k_nearest_probe :
  'a t -> ?skip:(int -> bool) -> Pt.t -> int -> (int * Pt.t * 'a) list * float option

(** [k_nearest t ?skip p k] is up to [k] eligible entries ordered by
    increasing (L1 point distance, id). *)
val k_nearest :
  'a t -> ?skip:(int -> bool) -> Pt.t -> int -> (int * Pt.t * 'a) list

(** [nearest t ?skip p] is the eligible entry whose point is L1-nearest
    to [p] (the lowest id on ties), [None] when no eligible entry
    exists. *)
val nearest : 'a t -> ?skip:(int -> bool) -> Pt.t -> (int * Pt.t * 'a) option
