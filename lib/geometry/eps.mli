(** Floating-point tolerances shared by the geometry kernel, and the
    float helpers every hot loop calls. *)

(** Absolute tolerance used for all geometric comparisons. *)
val tol : float

val equal : float -> float -> bool

(** [leq a b] is [a <= b +. tol]. *)
val leq : float -> float -> bool

(** [clamp lo hi x] is [lo] when [x < lo], else [hi] when [x > hi], else
    [x]. *)
val clamp : float -> float -> float -> float

(** [fmin x y] and [fmax x y] return the bits [Float.min x y] and
    [Float.max x y] return on every input: -0 is below +0, and a NaN
    operand wins with the stdlib's choice between two NaNs.  Unlike
    the stdlib's, their usual path makes no C call. *)
val fmin : float -> float -> float

val fmax : float -> float -> float
