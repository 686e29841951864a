(** Floating-point tolerances shared by the geometry kernel. *)

(** Absolute tolerance used for all geometric comparisons. *)
val tol : float

val equal : float -> float -> bool
val leq : float -> float -> bool
val clamp : float -> float -> float -> float
