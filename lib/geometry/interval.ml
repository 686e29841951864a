type t = { lo : float; hi : float }

let make lo hi = { lo; hi }
let point v = { lo = v; hi = v }
let is_empty i = i.lo > i.hi +. Eps.tol
let width i = Float.max 0. (i.hi -. i.lo)
let mid i = (i.lo +. i.hi) /. 2.
let inter a b = { lo = Float.max a.lo b.lo; hi = Float.min a.hi b.hi }
let hull a b = { lo = Float.min a.lo b.lo; hi = Float.max a.hi b.hi }

let gap a b =
  if a.hi < b.lo then b.lo -. a.hi
  else if b.hi < a.lo then a.lo -. b.hi
  else 0.

let shift c i = { lo = i.lo +. c; hi = i.hi +. c }
let clamp i v = Eps.clamp i.lo i.hi v
let equal a b = Eps.equal a.lo b.lo && Eps.equal a.hi b.hi
let pp ppf i = Format.fprintf ppf "[%g, %g]" i.lo i.hi
