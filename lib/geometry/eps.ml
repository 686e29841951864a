(** Floating-point tolerances shared by the geometry kernel.

    Coordinates are layout units with magnitudes up to ~1e6; a chain of a
    few thousand additions keeps the absolute error well below 1e-6, so a
    single absolute tolerance is adequate for the whole kernel. *)

let tol = 1e-6

let equal a b = Float.abs (a -. b) <= tol
let leq a b = a <= b +. tol

(** [clamp lo hi x] restricts [x] to the closed interval [lo, hi].  The
    [float] annotation makes the comparisons float compares: unannotated,
    the body is polymorphic and every call runs [compare_val]. *)
let clamp (lo : float) hi x = if x < lo then lo else if x > hi then hi else x
