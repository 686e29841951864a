(** Deterministic median bipartition of point sets, the geometric kernel
    of the top-down clustering partitioner (see [Dme.Cluster]).

    It takes the points by a [point_of : int -> Pt.t] lookup
    over an id array rather than materialized point arrays, so callers
    can split index sets over a shared sink table without copying. *)

(** [bipartition ~sorted point_of ids] splits [ids] into two halves at
    the median along the longer axis of their bounding box (ties go to
    x, so a square extent splits vertically) — one step of the top-down
    MMM-style partition.  The lower half gets [ceil (n / 2)] ids, so
    both halves are non-empty whenever [n >= 2] (raises
    [Invalid_argument] for [n < 2]).  The split is a pure function of
    the id {e set}: entries order by [(coordinate, id)] ([Float.compare],
    then [Int.compare]), so duplicate coordinates break ties by id and
    the input array's order never matters.  The halves are found by an
    O(n) expected selection; [sorted = (lower, upper)] names the halves
    that must also come back in that order, at O(k log k) each — the
    others come in an unspecified order.  Each coordinate is read
    once into a float key array; comparisons read keys inline, with no
    [point_of] or C call per comparison. *)
val bipartition :
  sorted:bool * bool -> (int -> Pt.t) -> int array -> int array * int array
