let[@inline] wire_delay (p : Wire.params) ~len ~load =
  Wire.ps_per_ohm_ff *. p.r *. len *. ((p.c *. len /. 2.) +. load)

let driver_delay ~rd ~load = Wire.ps_per_ohm_ff *. rd *. load

(* Positive root of (k·r·c/2)·L² + (k·r·load)·L - delay = 0. *)
let[@inline] wire_for_delay (p : Wire.params) ~load ~delay =
  if delay < 0. then invalid_arg "Elmore.wire_for_delay: negative delay";
  if delay = 0. then 0.
  else begin
    let k = Wire.ps_per_ohm_ff in
    let a = k *. p.r *. p.c /. 2. in
    let b = k *. p.r *. load in
    let disc = (b *. b) +. (4. *. a *. delay) in
    ((-.b) +. Float.sqrt disc) /. (2. *. a)
  end

(* delay(ea into cap_a) - delay(eb into cap_b) with ea + eb = dist:
   the quadratic terms cancel, leaving
   ea·k·r·(c·dist + cap_a + cap_b) = diff + k·r·dist·(c·dist/2 + cap_b). *)
let[@inline] balance_split (p : Wire.params) ~dist ~cap_a ~cap_b ~diff =
  if dist <= 0. then invalid_arg "Elmore.balance_split: dist must be positive";
  let k = Wire.ps_per_ohm_ff in
  let denom = k *. p.r *. ((p.c *. dist) +. cap_a +. cap_b) in
  let num = diff +. (k *. p.r *. dist *. ((p.c *. dist /. 2.) +. cap_b)) in
  num /. denom
