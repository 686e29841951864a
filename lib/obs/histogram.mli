(** Log-bucketed histograms for positively skewed observability metrics
    (probe costs, merging-region extents, per-sink delays).

    Buckets partition the positive reals into [per_decade] logarithmic
    slices per power of ten: an observation [v > 0] lands in the bucket
    whose bounds are [10^(i/k) <= v < 10^((i+1)/k)].  Only touched
    buckets are stored, so the value range is unbounded in both
    directions.  Non-positive observations are tallied in a separate
    underflow cell (log buckets cannot hold them), positive infinities
    in an overflow cell, and NaNs are ignored entirely.

    Histograms do not register in a global registry: they belong to the
    {!Trace} context that created them (or to the caller, when built
    directly).  Observation is
    mutex-guarded, so recording from concurrent domains is safe.

    Buckets are stored as a dense count array over the touched index
    range, so once a histogram has seen its value range, {!observe},
    {!reset} and {!merge_into} allocate nothing — the property the
    progress heartbeat and the scheduler ledger rely on to stay off the
    allocator in steady state. *)

type t

(** [create ?per_decade name] makes an empty histogram.  [per_decade]
    (default 8) is clamped to at least 1. *)
val create : ?per_decade:int -> string -> t

val name : t -> string

(** Record one observation (see the bucketing rules above). *)
val observe : t -> float -> unit

(** Observations recorded, NaNs excluded. *)
val count : t -> int

(** Sum of all counted observations. *)
val sum : t -> float

val underflow : t -> int
val overflow : t -> int

(** Touched buckets as [(lo, hi, count)], ascending by bound; [lo] is
    inclusive, [hi] exclusive. *)
val buckets : t -> (float * float * int) list

(** Zero every cell but keep the grown bucket storage, so a scratch
    histogram refilled per heartbeat tick never re-allocates. *)
val reset : t -> unit

(** [merge_into src ~into:dst] adds every cell of [src] (counts, sum,
    min/max, under/overflow) into [dst] in place; [src] is left
    untouched.  Allocation-free once [dst]'s bucket range covers
    [src]'s.  Safe against concurrent observers of either side (locks
    are taken in a global order).  Raises [Invalid_argument] when the
    two histograms disagree on [per_decade] or are the same histogram. *)
val merge_into : t -> into:t -> unit

(** [quantile t q] estimates the [q]-quantile ([q] clamped to [0, 1])
    from the bucket tallies: the upper bound of the first bucket whose
    cumulative count reaches [ceil (q * count)], clamped into the
    observed [min, max] range (underflow resolves to [min], overflow to
    [max]).  [None] while the histogram is empty.  Resolution is one
    bucket, i.e. a factor of [10^(1/per_decade)]. *)
val quantile : t -> float -> float option

(** {v
    { "name": ..., "count": n, "sum": s, "min": ..., "max": ...,
      "underflow": n, "overflow": n,
      "buckets": [ { "lo": ..., "hi": ..., "count": n }, ... ] }
    v}

    [min]/[max] are [null] while the histogram is empty. *)
val to_json : t -> Json.t
