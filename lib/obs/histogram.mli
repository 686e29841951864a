(** Log-bucketed histograms for positively skewed observability metrics
    (probe costs, merging-region extents, per-sink delays).

    Buckets partition the positive reals into 8 logarithmic slices per
    power of ten: an observation [v > 0] lands in the bucket whose bounds
    are [10^(i/8) <= v < 10^((i+1)/8)].  Only touched
    buckets are stored, so the value range is unbounded in both
    directions.  Non-positive observations are tallied in a separate
    underflow cell (log buckets cannot hold them), positive infinities
    in an overflow cell, and NaNs are ignored entirely.

    Histograms do not register in a global registry: they belong to the
    {!Trace} context that created them (or to the caller, when built
    directly).  Observation is
    mutex-guarded, so recording from concurrent domains is safe.

    Buckets are stored as a dense count array over the touched index
    range, so once a histogram has seen its value range, {!observe}
    allocates nothing — the property the scheduler ledger relies on to
    stay off the allocator in steady state. *)

type t

(** [create name] makes an empty histogram. *)
val create : string -> t

(** Record one observation (see the bucketing rules above). *)
val observe : t -> float -> unit

(** [quantile t q] estimates the [q]-quantile ([q] clamped to [0, 1])
    from the bucket tallies: the upper bound of the first bucket whose
    cumulative count reaches [ceil (q * count)], clamped into the
    observed [min, max] range (underflow resolves to [min], overflow to
    [max]).  [None] while the histogram is empty.  Resolution is one
    bucket, i.e. a factor of [10^(1/8)]. *)
val quantile : t -> float -> float option

(** {v
    { "name": ..., "count": n, "sum": s, "min": ..., "max": ...,
      "underflow": n, "overflow": n,
      "buckets": [ { "lo": ..., "hi": ..., "count": n }, ... ] }
    v}

    [min]/[max] are [null] while the histogram is empty. *)
val to_json : t -> Json.t
