type t = { x : float; y : float }

let[@inline] make x y = { x; y }
let zero = { x = 0.; y = 0. }

(* [dist] runs per scanned grid entry inside the ranking loops; the
   [@inline] keeps its float result unboxed at the call sites. *)
let[@inline] dist p q = Float.abs (p.x -. q.x) +. Float.abs (p.y -. q.y)

let[@inline] dist_linf p q =
  Float.max (Float.abs (p.x -. q.x)) (Float.abs (p.y -. q.y))

let add p q = { x = p.x +. q.x; y = p.y +. q.y }
let sub p q = { x = p.x -. q.x; y = p.y -. q.y }
let scale k p = { x = k *. p.x; y = k *. p.y }
let mid p q = { x = (p.x +. q.x) /. 2.; y = (p.y +. q.y) /. 2. }
let[@inline] s p = p.x +. p.y
let[@inline] d p = p.x -. p.y
let of_sd s d = { x = (s +. d) /. 2.; y = (s -. d) /. 2. }
let equal p q = Eps.equal p.x q.x && Eps.equal p.y q.y

let pp ppf p = Format.fprintf ppf "(%g, %g)" p.x p.y
let to_string p = Format.asprintf "%a" pp p
