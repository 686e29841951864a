(** Points of the Manhattan plane. *)

type t = { x : float; y : float }

val make : float -> float -> t
val zero : t

(** Manhattan (L1) distance. *)
val dist : t -> t -> float

val add : t -> t -> t
val scale : float -> t -> t

(** Rotated coordinates [x + y] (often written [s]) and [x - y] ([d]); the
    Manhattan metric is the Chebyshev metric in these coordinates. *)
val s : t -> float

val d : t -> float

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
