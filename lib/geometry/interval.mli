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
val clamp : t -> float -> float
val pp : Format.formatter -> t -> unit
