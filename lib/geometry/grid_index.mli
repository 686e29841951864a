(** Uniform-grid spatial index over representative points.

    Used by the merge-ordering stage to generate nearest-neighbour
    candidates in roughly O(1) per query.  Distances here are between the
    stored representative points (L1); callers refine candidates with
    exact region distances.

    The index is a read-only {e snapshot}: {!pack} sorts a set of
    (id, point) entries by cell into one compressed layout — one start
    offset per cell of the window the entries span, then ids and
    unboxed x/y coordinates contiguous in cell order, each cell's
    entries in input order — so a row of cells is one contiguous range
    and the k-NN kernel {!query} scans entries without touching a boxed
    point.  A merge round packs its active subtree centers once, with
    the cell sized for that population, and every probe of the round
    reads the same snapshot: through {!query}, or cell by cell through
    the snapshot's read-only fields and {!query_key} (the engine's fused
    probe).  The builder ({!create}, {!add}, {!k_nearest_probe}) is a
    thin list API over it that re-packs on the first query after a
    mutation.

    Every answer is ordered by ascending (L1 distance, id): it is a
    function of the packed (id, point) set and the query alone, so two
    snapshots holding the same entries answer identically whatever their
    cell sizes or packing order.  A non-finite point has no cell:
    {!pack}, {!add} and any query that scans a non-empty snapshot raise
    [Invalid_argument] on one. *)

(** {1 Packed snapshots} *)

(** Packed storage, reused by every {!pack} into it, and its read-only
    view.  Cell keys are [floor (x / cell)] on each axis; the directory
    covers the [w] by [h] window of keys from [(gx0, gy0)], row-major,
    and the window's cell [c = (ky - gy0) * w + (kx - gx0)] holds the
    entries at positions [start.(c) .. start.(c + 1) - 1] of [ids],
    [xs] and [ys], in the order {!pack} was given them.  Only the first
    [len] entries and [w * h + 1] offsets are live; [slot] is {!pack}'s
    scratch.  A snapshot may be read by several domains at once while
    nothing packs into it. *)
type snapshot = private {
  mutable cell : float;
  mutable gx0 : int;
  mutable gy0 : int;
  mutable w : int;
  mutable h : int;
  mutable start : int array;
  mutable ids : int array;
  mutable xs : floatarray;
  mutable ys : floatarray;
  mutable len : int;
  mutable slot : int array;
}

(** An empty snapshot. *)
val snapshot : unit -> snapshot

(** [pack s ~cell ids xs ys n] replaces the contents of [s] with the
    [n] entries [ids.(i)] at [(xs.(i), ys.(i))], [i < n], in square
    cells of side [cell].  Ids must be distinct.  The packing is stable:
    a cell's entries keep their input order, so ids given in ascending
    order ascend within every cell.  When the entries span more than
    [64 + 4 n] cells the side is doubled until they do not, which bounds
    the directory and, like any cell size, never changes a {!query}
    answer.  Raises [Invalid_argument] unless [cell] is positive and
    finite and every point is finite. *)
val pack : snapshot -> cell:float -> int array -> floatarray -> floatarray -> int -> unit

(** {1 The k-NN kernel} *)

(** A caller-owned k-NN answer buffer, reused across queries: [kids]
    and [kdist] hold the answer's ids and L1 distances from the query at
    indices [0 .. klen - 1], ascending by (distance, id).  [exhaustive]
    reports that the answer holds every eligible entry; otherwise the
    last answer's distance [kdist.(klen - 1)] is the query's {e
    exclusion bound}: every eligible entry not in the answer lies at L1
    distance at least that from the query.
    [cells_visited] and [entries] are running totals of the ring-scan
    work of every query run into the buffer (cells walked, entries
    scanned, skipped or not); a caller reads a batch's work as their
    difference across it.  A buffer must not be shared between
    domains. *)
type knn = private {
  mutable kids : int array;
  mutable kdist : floatarray;
  mutable klen : int;
  mutable exhaustive : bool;
  mutable cells_visited : int;
  mutable entries : int;
}

val knn_buffer : unit -> knn

(** [query s buf ~skip xs ys i k] overwrites [buf]'s answer with the
    [k] entries of [s] that come first by (L1 distance to the query
    point [q] = [(xs.(i), ys.(i))], id), ignoring
    the entry whose id is [skip] — the probing entry itself; pass [-1],
    which no entry carries, to skip nothing — (fewer when fewer are
    eligible), and adds the query's work to [buf]'s running totals: the
    scan counts [1 + 4 R (R - 1)] cells for the [R] rings it walks, and
    every entry those cells hold.  A query allocates nothing. *)
val query : snapshot -> knn -> skip:int -> floatarray -> floatarray -> int -> int -> unit

(** [query_key ~cell g0 len v] is the key, relative to the window
    origin [g0], of the cell on one axis a ring scan around the
    coordinate [v] is centered on, clamped to [[-1, len]] for a window
    [len] cells long: {!query} centers its rings there.  An entry in a
    cell whose key on either axis differs from the center's by [r] or
    more lies at L1 distance above [(r - 1) * cell] from [v]'s point, up
    to the rounding of the keys' quotients.  Raises [Invalid_argument]
    on a non-finite [v]. *)
val query_key : cell:float -> int -> int -> float -> int

(** {1 Builder}

    A mutable (id, point, value) set over a private snapshot, packed on
    the first query after a mutation.  Queries therefore mutate the
    builder: query one from a single domain at a time.  A query
    allocates a fresh buffer and result. *)

type 'a t

(** [create ~cell] builds an empty index with square cells of side
    [cell].  Raises [Invalid_argument] unless [cell] is positive and
    finite. *)
val create : cell:float -> 'a t

(** [add t ~id p v] indexes value [v] under [id] at point [p],
    replacing any entry with the same [id].  Raises [Invalid_argument]
    on a non-finite [p], leaving [t] unchanged. *)
val add : 'a t -> id:int -> Pt.t -> 'a -> unit

(** [k_nearest_probe t ?skip p k] is the list of up to [k] entries
    (id, point, value) of [t] whose ids do not satisfy [skip], ordered
    by increasing (L1 point distance, id), plus the exclusion bound:
    [Some kth], the [k]-th entry's distance, when [k] entries are
    eligible, or [None] when the answer holds every eligible entry.  It
    filters {!query}'s canonical answer, widening the query until [k]
    entries are eligible or none is left out. *)
val k_nearest_probe :
  'a t -> ?skip:(int -> bool) -> Pt.t -> int -> (int * Pt.t * 'a) list * float option
