(** Deterministic splitmix64 PRNG.

    Workload generation must be reproducible across runs and platforms,
    so the library carries its own generator instead of using [Random]. *)

type t

val create : int64 -> t

(** Uniform in [lo, hi). *)
val float_range : t -> float -> float -> float

(** Uniform in [0, n). *)
val int : t -> int -> int

(** Fair coin. *)
val bool : t -> bool

(** Uniform element of a non-empty array. *)
val choice : t -> 'a array -> 'a

(** An independent generator split off deterministically. *)
val split : t -> t

(** Fisher–Yates shuffle in place. *)
val shuffle : t -> 'a array -> unit
