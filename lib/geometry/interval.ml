type t = { lo : float; hi : float }

let make lo hi = { lo; hi }
let point v = { lo = v; hi = v }
let is_empty i = i.lo > i.hi +. Eps.tol
let width i = Float.max 0. (i.hi -. i.lo)
let mid i = (i.lo +. i.hi) /. 2.
let inter a b = { lo = Float.max a.lo b.lo; hi = Float.min a.hi b.hi }
let clamp i v = Eps.clamp i.lo i.hi v
let pp ppf i = Format.fprintf ppf "[%g, %g]" i.lo i.hi
