(** Closed real intervals, used for bound bookkeeping (delay ranges,
    octagon projections). *)

type t = { lo : float; hi : float }

val make : float -> float -> t

(** Degenerate interval [v, v]. *)
val point : float -> t

val is_empty : t -> bool
val width : t -> float
val mid : t -> float
val inter : t -> t -> t
val hull : t -> t -> t

(** Signed gap between two intervals: 0 when they overlap, otherwise the
    distance between the nearest endpoints. *)
val gap : t -> t -> float

(** Shift by a constant. *)
val shift : float -> t -> t

val clamp : t -> float -> float
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
