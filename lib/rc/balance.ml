module Interval = Geometry.Interval
module Eps = Geometry.Eps

type side = { lo : float; hi : float }
type cons = { a : side; b : side; bound : float }

type plan = {
  ea : float;
  eb : float;
  wa : float;
  wb : float;
  snake : float;
  feasible : bool;
}

(* Interval of [x = wa - wb] satisfying one constraint (may be empty). *)
let cons_x_interval c =
  Interval.make (c.b.hi -. c.a.lo -. c.bound) (c.bound +. c.b.lo -. c.a.hi)

let plan ?(allow_snake = true) params ~dist ~cap_a ~cap_b ~cons ~pref =
  if dist < 0. then invalid_arg "Balance.plan: negative dist";
  let everything = Interval.make Float.neg_infinity Float.infinity in
  let wanted =
    List.fold_left
      (fun acc c -> Interval.inter acc (cons_x_interval c))
      everything cons
  in
  let feasible = not (Interval.is_empty wanted) in
  (* On inconsistent constraints aim at the point minimizing the worst
     violation; the repair pass deals with the residual. *)
  let wanted =
    if feasible then wanted else Interval.point (Interval.mid wanted)
  in
  (* Realizable x without snaking spans [x_min, x_max].  Snaking is a
     last resort: any constraint-satisfying x in the detour-free range
     beats equalizing delays with extra wire, so [pref] is only honoured
     within [wanted ∩ realizable]. *)
  let x_min = -.Elmore.wire_delay params ~len:dist ~load:cap_b in
  let x_max = Elmore.wire_delay params ~len:dist ~load:cap_a in
  let candidates = Interval.inter wanted (Interval.make x_min x_max) in
  let x =
    if not (Interval.is_empty candidates) then Interval.clamp candidates pref
    else if allow_snake then
      (* minimal snake: the endpoint of [wanted] nearest the range *)
      if wanted.Interval.lo > x_max then wanted.Interval.lo
      else wanted.Interval.hi
    else Geometry.Eps.clamp x_min x_max (Interval.clamp wanted pref)
  in
  let ea, eb =
    if x > x_max then
      (* Subtree a must be slowed beyond the detour-free maximum: the b
         wire degenerates to length 0 and the a wire snakes. *)
      (Elmore.wire_for_delay params ~load:cap_a ~delay:x, 0.)
    else if x < x_min then
      (0., Elmore.wire_for_delay params ~load:cap_b ~delay:(-.x))
    else if dist = 0. then (0., 0.)
    else
      let ea =
        Eps.clamp 0. dist
          (Elmore.balance_split params ~dist ~cap_a ~cap_b ~diff:x)
      in
      (ea, dist -. ea)
  in
  let wa = Elmore.wire_delay params ~len:ea ~load:cap_a in
  let wb = Elmore.wire_delay params ~len:eb ~load:cap_b in
  { ea; eb; wa; wb; snake = Float.max 0. (ea +. eb -. dist); feasible }

let instance2 params ~l_cf ~l_ac ~l_bc ~l_df ~l_ef ~cap_a ~cap_b ~cap_c ~cap_d
    ~cap_e ~cap_f =
  (* Eq. (5.1) balances group 1 (sinks under a and d); with
     alpha + beta = l_cf it is linear in alpha. *)
  let w len load = Elmore.wire_delay params ~len ~load in
  let diff = w l_df cap_d -. w l_ac cap_a in
  let alpha =
    Elmore.balance_split params ~dist:l_cf ~cap_a:cap_c ~cap_b:cap_f ~diff
  in
  let beta = l_cf -. alpha in
  (* Eq. (5.2) then fixes the total e-side wire length; gamma is the part
     beyond the existing l_ef. *)
  let lhs = w alpha cap_c +. w l_bc cap_b in
  let rhs_base = w beta cap_f in
  let delay_e = lhs -. rhs_base in
  let gamma =
    if delay_e <= 0. then -.l_ef
    else Elmore.wire_for_delay params ~load:cap_e ~delay:delay_e -. l_ef
  in
  (alpha, beta, gamma)
