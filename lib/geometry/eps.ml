(** Floating-point tolerances shared by the geometry kernel.

    Coordinates are layout units with magnitudes up to ~1e6; a chain of a
    few thousand additions keeps the absolute error well below 1e-6, so a
    single absolute tolerance is adequate for the whole kernel. *)

let tol = 1e-6

let equal a b = Float.abs (a -. b) <= tol
let[@inline] leq (a : float) b = a <= b +. tol

(** [clamp lo hi x] restricts [x] to the closed interval [lo, hi].  The
    [float] annotation makes the comparisons float compares: unannotated,
    the body is polymorphic and every call runs [compare_val]. *)
let[@inline] clamp (lo : float) hi x = if x < lo then lo else if x > hi then hi else x

(* The two comparisons settle every ordered pair.  Equal operands differ
   in their bits only as -0 and +0, told apart by the sign of [1 /. x]
   without the C call [Float.sign_bit] makes, which would clobber the
   caller's float registers.  What is left has a NaN operand, and the
   stdlib's own rule picks which NaN. *)
let[@inline] fmin (x : float) y =
  if x < y then x
  else if y < x then y
  else if x = y then if x = 0. && 1. /. x < 0. then x else y
  else Float.min x y

let[@inline] fmax (x : float) y =
  if x < y then y
  else if y < x then x
  else if x = y then if x = 0. && 1. /. x < 0. then y else x
  else Float.max x y
