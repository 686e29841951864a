module Interval = Geometry.Interval
module Octagon = Geometry.Octagon
module Eps = Geometry.Eps

type kind = Same_group | Cross_group | Shared_one | Shared_multi

type result = {
  subtree : Subtree.t;
  kind : kind;
  planned_wire : float;
  snake : float;
  feasible : bool;
}

let slack_usage = 0.3

(* --- Reference: the merge over octagon values and Rc.Balance plans ------ *)

(* The executable specification of {!run}: each step as the octagon and
   interval values it describes, and both plans from
   [Rc.Balance.plan].  The production merge below replays it float
   operation for float operation; test_dme compares the two bit for
   bit. *)

let classify (a : Subtree.t) (b : Subtree.t) shared =
  match shared with
  | [] -> Cross_group
  | [ _ ] ->
    if Array.length a.delay.gid = 1 && Array.length b.delay.gid = 1 then
      Same_group
    else Shared_one
  | _ :: _ :: _ -> Shared_multi

let mid_pref (a : Subtree.t) (b : Subtree.t) =
  Interval.mid (Subtree.delay_hull b) -. Interval.mid (Subtree.delay_hull a)

(* Merging region with float-fuzz fallbacks: widen slightly if the exact
   intersection degenerates, and as a last resort use the point of [a]'s
   boundary nearest to [b]. *)
let merge_region (a : Octagon.t) ea (b : Octagon.t) eb =
  let attempt extra =
    Octagon.inter (Octagon.inflate (ea +. extra) a) (Octagon.inflate (eb +. extra) b)
  in
  let r = attempt 0. in
  if not (Octagon.is_empty r) then r
  else begin
    let r = attempt (4. *. Eps.tol) in
    if not (Octagon.is_empty r) then r
    else Octagon.of_point (fst (Octagon.closest_pair a b))
  end

(* Shared-group merge (steps 4, 6 and 7 of Fig. 6): commit wire lengths
   satisfying every shared group's skew constraint; snaking covers
   imbalance beyond the slack. *)
let merge_committed (inst : Clocktree.Instance.t) ~slack_usage ~id kind shared
    (a : Subtree.t) (b : Subtree.t) =
  let params = inst.params in
  let dist = Octagon.dist a.region b.region in
  let cons_with effective_bound =
    List.map
      (fun g ->
        let ia = Option.get (Subtree.window a g) in
        let ib = Option.get (Subtree.window b g) in
        let wmax = Float.max (Interval.width ia) (Interval.width ib) in
        Rc.Balance.
          {
            a = { lo = ia.Interval.lo; hi = ia.Interval.hi };
            b = { lo = ib.Interval.lo; hi = ib.Interval.hi };
            bound = effective_bound (Clocktree.Instance.bound_for inst g) wmax;
          })
      shared
  in
  (* Spending the whole skew slack at the first opportunity drifts group
     windows to their limits and forces later merges to snake; so first
     plan against windows that only grow by [slack_usage] of the
     remaining slack, and fall back to the full bound before paying
     snaking wire. *)
  let strict =
    cons_with (fun group_bound wmax ->
        wmax +. (slack_usage *. (group_bound -. wmax)))
  in
  let pref = mid_pref a b in
  let plan =
    Rc.Balance.plan params ~dist ~cap_a:a.cap ~cap_b:b.cap ~cons:strict ~pref
  in
  let plan =
    if plan.snake > 0. || not plan.feasible then
      Rc.Balance.plan params ~dist ~cap_a:a.cap ~cap_b:b.cap
        ~cons:(cons_with (fun group_bound _ -> group_bound))
        ~pref
    else plan
  in
  let region = merge_region a.region plan.ea b.region plan.eb in
  let delay = Subtree.union_shifted ~wa:plan.wa a.delay ~wb:plan.wb b.delay in
  let wire = plan.ea +. plan.eb in
  let subtree =
    Subtree.
      {
        id;
        region;
        cap = a.cap +. b.cap +. (params.c *. wire);
        delay;
        n_sinks = a.n_sinks + b.n_sinks;
        build = Merge { left = a; right = b; lengths = Committed { ea = plan.ea; eb = plan.eb } };
      }
  in
  { subtree; kind; planned_wire = wire; snake = plan.snake; feasible = plan.feasible }

(* Cross-group merge (step 5 of Fig. 6): the merging region is the
   shortest-distance region between the child regions.  The admissible
   split range [l, h] around the delay-balanced split is chosen so the
   delay uncertainty it adds stays within [split_slack]·bound and within
   each group's remaining slack. *)
let merge_cross (inst : Clocktree.Instance.t) ~split_slack ~width_cap ~id
    (a : Subtree.t) (b : Subtree.t) =
  let params = inst.params in
  let dist = Octagon.dist a.region b.region in
  (* The tightest group bound present on either side limits how much
     split-range uncertainty one merge may introduce. *)
  let min_bound =
    let fold (t : Subtree.t) acc =
      Array.fold_left
        (fun acc g -> Float.min acc (Clocktree.Instance.bound_for inst g))
        acc t.delay.gid
    in
    fold a (fold b Float.infinity)
  in
  let plan =
    Rc.Balance.plan params ~allow_snake:false ~dist ~cap_a:a.cap ~cap_b:b.cap
      ~cons:[] ~pref:(mid_pref a b)
  in
  let l, h =
    if dist <= Eps.tol then (0., 0.)
    else begin
      (* Widening consumes skew slack; keep every group's window below
         width_cap·bound so the end-game merges retain room to balance. *)
      let budget side_subtree =
        let slack =
          Subtree.min_slack_by
            ~bound_of:(fun g ->
              width_cap *. Clocktree.Instance.bound_for inst g)
            side_subtree
        in
        Float.max 0. (Float.min (split_slack *. min_bound) slack)
      in
      let omega_a = budget a and omega_b = budget b in
      let stretch cap w omega =
        (* wire lengths whose delay is w ± omega/2 *)
        let lo =
          if w -. (omega /. 2.) <= 0. then 0.
          else Rc.Elmore.wire_for_delay params ~load:cap ~delay:(w -. (omega /. 2.))
        in
        let hi = Rc.Elmore.wire_for_delay params ~load:cap ~delay:(w +. (omega /. 2.)) in
        (lo, hi)
      in
      let la, ha = stretch a.cap plan.wa omega_a in
      let lb, hb = stretch b.cap plan.wb omega_b in
      let l = Float.max 0. (Float.max la (dist -. hb)) in
      let h = Float.min dist (Float.min ha (dist -. lb)) in
      if l > h then (plan.ea, plan.ea) else (l, h)
    end
  in
  let region =
    if dist <= Eps.tol then
      let r = Octagon.inter a.region b.region in
      if Octagon.is_empty r then Octagon.of_point (fst (Octagon.closest_pair a.region b.region))
      else r
    else begin
      let sdr = Octagon.sdr a.region b.region in
      let r =
        Octagon.inter sdr
          (Octagon.inter
             (Octagon.inflate h a.region)
             (Octagon.inflate (dist -. l) b.region))
      in
      if Octagon.is_empty r then merge_region a.region plan.ea b.region plan.eb
      else r
    end
  in
  (* Delay bookkeeping is nominal: a split merge shifts every group of a
     side by the same (uncertain) wire delay, so group widths are
     invariant; positions are recorded as if the balanced split [ea]
     realizes.  The deviation of an actual embedding is at most
     w(h) - w(l) <= split_slack·bound per split merge, and the repair
     pass removes whatever accumulates. *)
  let delay = Subtree.union_shifted ~wa:plan.wa a.delay ~wb:plan.wb b.delay in
  let subtree =
    Subtree.
      {
        id;
        region;
        cap = a.cap +. b.cap +. (params.c *. dist);
        delay;
        n_sinks = a.n_sinks + b.n_sinks;
        build =
          Merge
            {
              left = a;
              right = b;
              lengths = Split { total = dist; split_lo = l; split_hi = h };
            };
      }
  in
  { subtree; kind = Cross_group; planned_wire = dist; snake = 0.; feasible = true }

let run_reference inst ?(slack_usage = slack_usage) ~split_slack ~width_cap ~id a b =
  let shared = Subtree.shared_groups a b in
  match classify a b shared with
  | Cross_group -> merge_cross inst ~split_slack ~width_cap ~id a b
  | kind -> merge_committed inst ~slack_usage ~id kind shared a b

(* --- The merge kernel --------------------------------------------------- *)

(* [run] computes the reference's result with the same float operations
   on the same operands in the same order, but keeps every intermediate
   in unboxed locals or in a per-domain scratch: no group list, no
   constraint or interval records, no plan records, no closures and no
   intermediate octagons.  What it allocates beyond the merged subtree
   and the result record is a few boxed floats at calls into other
   modules, which dev-profile (-opaque) builds never inline.  The
   helpers are [@inline] and copy the expressions of their
   counterparts ([Float.min]/[Float.max], [Eps.clamp],
   [Instance.bound_for], [Rc.Elmore]) for the same reason: an
   out-of-line call that takes or returns a float boxes it. *)

(* [Float.min] and [Float.max], bit for bit on every input, signed zeros
   and NaN included (as Octagon's). *)
let[@inline] fmin x y =
  if x < y then x
  else if y < x then y
  else if (not (Float.sign_bit y)) && Float.sign_bit x then
    if y <> y then y else x
  else if x <> x then x
  else y

let[@inline] fmax x y =
  if x < y then y
  else if y < x then x
  else if (not (Float.sign_bit y)) && Float.sign_bit x then
    if x <> x then x else y
  else if y <> y then y
  else x

let[@inline] clamp (lo : float) hi x = if x < lo then lo else if x > hi then hi else x

let[@inline] bound_for (inst : Clocktree.Instance.t) g =
  match inst.group_bounds with Some bs -> bs.(g) | None -> inst.bound

let[@inline] wire_delay (p : Rc.Wire.params) len load =
  Rc.Wire.ps_per_ohm_ff *. p.r *. len *. ((p.c *. len /. 2.) +. load)

let[@inline] wire_for_delay (p : Rc.Wire.params) load delay =
  if delay < 0. then invalid_arg "Elmore.wire_for_delay: negative delay";
  if delay = 0. then 0.
  else begin
    let k = Rc.Wire.ps_per_ohm_ff in
    let a = k *. p.r *. p.c /. 2. in
    let b = k *. p.r *. load in
    let disc = (b *. b) +. (4. *. a *. delay) in
    ((-.b) +. Float.sqrt disc) /. (2. *. a)
  end

let[@inline] balance_split (p : Rc.Wire.params) dist cap_a cap_b diff =
  let k = Rc.Wire.ps_per_ohm_ff in
  let denom = k *. p.r *. ((p.c *. dist) +. cap_a +. cap_b) in
  let num = diff +. (k *. p.r *. dist *. ((p.c *. dist /. 2.) +. cap_b)) in
  num /. denom

(* Per-domain scratch of a merge: the strict-bound window [0, 1] and the
   full-bound window [2, 3] folded over the shared groups, then the
   last plan's [ea], [eb], [wa], [wb] and [snake] at [4 .. 8].  A merge
   fills it and reads it back before returning and calls nothing that
   merges, so one per domain is never shared. *)
let scratch_key = Domain.DLS.new_key (fun () -> Float.Array.create 9)

let[@inline] get w i = Float.Array.unsafe_get w i

(* One ascending two-pointer walk over both window arrays — the order
   [Subtree.shared_groups] feeds the reference's constraint list —
   folding each shared group's [Rc.Balance.cons_x_interval] into the
   strict and the full window as [Rc.Balance.plan]'s [Interval.inter]
   fold does.  Writes the windows to [w.(0 .. 3)] and returns the
   number of shared groups. *)
let[@inline] fold_windows inst slack_usage (da : Subtree.windows)
    (db : Subtree.windows) w =
  let na = Array.length da.gid and nb = Array.length db.gid in
  let slo = ref Float.neg_infinity and shi = ref Float.infinity in
  let flo = ref Float.neg_infinity and fhi = ref Float.infinity in
  let shared = ref 0 in
  let i = ref 0 and j = ref 0 in
  while !i < na && !j < nb do
    let ga = Array.unsafe_get da.gid !i and gb = Array.unsafe_get db.gid !j in
    if ga < gb then incr i
    else if ga > gb then incr j
    else begin
      incr shared;
      let bound = bound_for inst ga in
      let alo = Float.Array.unsafe_get da.lo !i and ahi = Float.Array.unsafe_get da.hi !i in
      let blo = Float.Array.unsafe_get db.lo !j and bhi = Float.Array.unsafe_get db.hi !j in
      let wmax = fmax (fmax 0. (ahi -. alo)) (fmax 0. (bhi -. blo)) in
      let strict_bound = wmax +. (slack_usage *. (bound -. wmax)) in
      slo := fmax !slo (bhi -. alo -. strict_bound);
      shi := fmin !shi (strict_bound +. blo -. ahi);
      flo := fmax !flo (bhi -. alo -. bound);
      fhi := fmin !fhi (bound +. blo -. ahi);
      incr i;
      incr j
    end
  done;
  Float.Array.unsafe_set w 0 !slo;
  Float.Array.unsafe_set w 1 !shi;
  Float.Array.unsafe_set w 2 !flo;
  Float.Array.unsafe_set w 3 !fhi;
  !shared

(* [Rc.Balance.plan] on the folded constraint window [[lo, hi]] (the
   whole line for no constraint): writes [ea], [eb], [wa], [wb] and
   [snake] to [w.(4 .. 8)] and returns [feasible]. *)
let[@inline] plan_into w (p : Rc.Wire.params) ~allow_snake ~dist ~cap_a ~cap_b
    ~lo ~hi ~pref =
  if dist < 0. then invalid_arg "Balance.plan: negative dist";
  let feasible = not (lo > hi +. Eps.tol) in
  let wlo = if feasible then lo else (lo +. hi) /. 2. in
  let whi = if feasible then hi else (lo +. hi) /. 2. in
  let x_min = -.wire_delay p dist cap_b in
  let x_max = wire_delay p dist cap_a in
  let clo = fmax wlo x_min and chi = fmin whi x_max in
  let x =
    if not (clo > chi +. Eps.tol) then clamp clo chi pref
    else if allow_snake then if wlo > x_max then wlo else whi
    else clamp x_min x_max (clamp wlo whi pref)
  in
  let ea =
    if x > x_max then wire_for_delay p cap_a x
    else if x < x_min || dist = 0. then 0.
    else clamp 0. dist (balance_split p dist cap_a cap_b x)
  in
  let eb =
    if x > x_max then 0.
    else if x < x_min then wire_for_delay p cap_b (-.x)
    else if dist = 0. then 0.
    else dist -. ea
  in
  Float.Array.unsafe_set w 4 ea;
  Float.Array.unsafe_set w 5 eb;
  Float.Array.unsafe_set w 6 (wire_delay p ea cap_a);
  Float.Array.unsafe_set w 7 (wire_delay p eb cap_b);
  Float.Array.unsafe_set w 8 (fmax 0. (ea +. eb -. dist));
  feasible

(* [Interval.mid (Subtree.delay_hull t)]. *)
let[@inline] hull_mid (d : Subtree.windows) =
  let lo = ref Float.infinity and hi = ref Float.neg_infinity in
  for i = 0 to Array.length d.gid - 1 do
    lo := fmin !lo (Float.Array.unsafe_get d.lo i);
    hi := fmax !hi (Float.Array.unsafe_get d.hi i)
  done;
  (!lo +. !hi) /. 2.

(* The reference's [merge_region]. *)
let[@inline] committed_region (a : Octagon.t) ea (b : Octagon.t) eb =
  let r = Octagon.within ~ra:ea a ~rb:eb b in
  if not (Octagon.is_empty r) then r
  else begin
    let extra = 4. *. Eps.tol in
    let r = Octagon.within ~ra:(ea +. extra) a ~rb:(eb +. extra) b in
    if not (Octagon.is_empty r) then r
    else Octagon.of_point (fst (Octagon.closest_pair a b))
  end

(* The reference's [merge_committed], its windows already folded into
   [w]. *)
let committed (inst : Clocktree.Instance.t) ~id kind (a : Subtree.t)
    (b : Subtree.t) w =
  let params = inst.params in
  let dist = Octagon.dist a.region b.region in
  let pref = hull_mid b.delay -. hull_mid a.delay in
  let strict =
    plan_into w params ~allow_snake:true ~dist ~cap_a:a.cap ~cap_b:b.cap
      ~lo:(get w 0) ~hi:(get w 1) ~pref
  in
  let feasible =
    if get w 8 > 0. || not strict then
      plan_into w params ~allow_snake:true ~dist ~cap_a:a.cap ~cap_b:b.cap
        ~lo:(get w 2) ~hi:(get w 3) ~pref
    else strict
  in
  let ea = get w 4 and eb = get w 5 in
  let region = committed_region a.region ea b.region eb in
  let delay = Subtree.union_shifted ~wa:(get w 6) a.delay ~wb:(get w 7) b.delay in
  let wire = ea +. eb in
  let subtree =
    Subtree.
      {
        id;
        region;
        cap = a.cap +. b.cap +. (params.c *. wire);
        delay;
        n_sinks = a.n_sinks + b.n_sinks;
        build = Merge { left = a; right = b; lengths = Committed { ea; eb } };
      }
  in
  { subtree; kind; planned_wire = wire; snake = get w 8; feasible }

(* [Subtree.min_slack_by] over [width_cap] of each group's bound, and
   the reference's split budget from it. *)
let[@inline] budget inst ~split_slack ~width_cap ~min_bound (d : Subtree.windows) =
  let slack = ref Float.infinity in
  for i = 0 to Array.length d.gid - 1 do
    let width =
      fmax 0. (Float.Array.unsafe_get d.hi i -. Float.Array.unsafe_get d.lo i)
    in
    slack := fmin !slack ((width_cap *. bound_for inst d.gid.(i)) -. width)
  done;
  fmax 0. (fmin (split_slack *. min_bound) !slack)

(* The reference's [merge_cross]; [w] is the scratch. *)
let cross (inst : Clocktree.Instance.t) ~split_slack ~width_cap ~id (a : Subtree.t)
    (b : Subtree.t) w =
  let params = inst.params in
  let dist = Octagon.dist a.region b.region in
  (* The reference folds [b]'s groups, then [a]'s. *)
  let min_bound = ref Float.infinity in
  for i = 0 to Array.length b.delay.gid - 1 do
    min_bound := fmin !min_bound (bound_for inst b.delay.gid.(i))
  done;
  for i = 0 to Array.length a.delay.gid - 1 do
    min_bound := fmin !min_bound (bound_for inst a.delay.gid.(i))
  done;
  let min_bound = !min_bound in
  let pref = hull_mid b.delay -. hull_mid a.delay in
  let (_ : bool) =
    plan_into w params ~allow_snake:false ~dist ~cap_a:a.cap ~cap_b:b.cap
      ~lo:Float.neg_infinity ~hi:Float.infinity ~pref
  in
  let ea = get w 4 and wa = get w 6 and wb = get w 7 in
  let degenerate = dist <= Eps.tol in
  let l = ref 0. and h = ref 0. in
  if not degenerate then begin
    let omega_a = budget inst ~split_slack ~width_cap ~min_bound a.delay in
    let omega_b = budget inst ~split_slack ~width_cap ~min_bound b.delay in
    (* [stretch]: the wire lengths whose delay is w ± omega/2. *)
    let la =
      if wa -. (omega_a /. 2.) <= 0. then 0.
      else wire_for_delay params a.cap (wa -. (omega_a /. 2.))
    in
    let ha = wire_for_delay params a.cap (wa +. (omega_a /. 2.)) in
    let lb =
      if wb -. (omega_b /. 2.) <= 0. then 0.
      else wire_for_delay params b.cap (wb -. (omega_b /. 2.))
    in
    let hb = wire_for_delay params b.cap (wb +. (omega_b /. 2.)) in
    let lo = fmax 0. (fmax la (dist -. hb)) in
    let hi = fmin dist (fmin ha (dist -. lb)) in
    if lo > hi then begin
      l := ea;
      h := ea
    end
    else begin
      l := lo;
      h := hi
    end
  end;
  let region =
    if degenerate then
      let r = Octagon.inter a.region b.region in
      if Octagon.is_empty r then
        Octagon.of_point (fst (Octagon.closest_pair a.region b.region))
      else r
    else
      let r = Octagon.sdr_within a.region b.region ~ra:!h ~rb:(dist -. !l) in
      if Octagon.is_empty r then committed_region a.region ea b.region (get w 5)
      else r
  in
  let subtree =
    Subtree.
      {
        id;
        region;
        cap = a.cap +. b.cap +. (params.c *. dist);
        delay = Subtree.union_shifted ~wa a.delay ~wb b.delay;
        n_sinks = a.n_sinks + b.n_sinks;
        build =
          Merge
            {
              left = a;
              right = b;
              lengths = Split { total = dist; split_lo = !l; split_hi = !h };
            };
      }
  in
  { subtree; kind = Cross_group; planned_wire = dist; snake = 0.; feasible = true }

let run inst ?(slack_usage = slack_usage) ~split_slack ~width_cap ~id
    (a : Subtree.t) (b : Subtree.t) =
  let w = Domain.DLS.get scratch_key in
  match fold_windows inst slack_usage a.delay b.delay w with
  | 0 -> cross inst ~split_slack ~width_cap ~id a b w
  | 1 ->
    let kind =
      if Array.length a.delay.gid = 1 && Array.length b.delay.gid = 1 then
        Same_group
      else Shared_one
    in
    committed inst ~id kind a b w
  | _ -> committed inst ~id Shared_multi a b w

(* Would [run] report this pair feasible?  Answered without building the
   merged subtree, region or delay windows — the ranking loop asks this for
   every probed candidate pair, and under distance-cost ranking it is the
   trial merge's only cost-relevant output.

   Why this is exact, case by case against the committed merge:
   - [Rc.Balance.plan] computes [feasible] from the constraint list
     alone: the fold of [cons_x_interval] windows is non-empty, which
     [fold_windows] computes.
   - The strict plan survives (its [feasible] becomes the result) iff it
     is feasible {e and} snake-free.  Snake is zero iff the chosen [x]
     lies in the detour-free range [[x_min, x_max]]: inside the range
     [ea + eb = dist] exactly (the balance split is clamped to
     [[0, dist]]), outside it the wire stretch is strictly positive.
     For a feasible plan [x] is clamped into
     [wanted ∩ [x_min, x_max]] whenever that is non-empty, so
     snake-freedom is exactly the non-emptiness of that intersection —
     the preference point never matters.
   - Otherwise the result is the full-bound plan's [feasible]: the
     full-window fold. *)
let committed_feasible (inst : Clocktree.Instance.t)
    ?(slack_usage = slack_usage) ~dist (a : Subtree.t) (b : Subtree.t) =
  let w = Domain.DLS.get scratch_key in
  if fold_windows inst slack_usage a.delay b.delay w = 0 then
    true (* a cross merge: always feasible *)
  else if
    (* strict plan feasible... *)
    not (get w 0 > get w 1 +. Eps.tol)
    && begin
         (* ...and snake-free: wanted ∩ [x_min, x_max] non-empty. *)
         let params = inst.params in
         let x_min = -.wire_delay params dist b.cap in
         let x_max = wire_delay params dist a.cap in
         not (fmax (get w 0) x_min > fmin (get w 1) x_max +. Eps.tol)
       end
  then true
  else not (get w 2 > get w 3 +. Eps.tol)

let pp_kind ppf = function
  | Same_group -> Format.pp_print_string ppf "same-group"
  | Cross_group -> Format.pp_print_string ppf "cross-group"
  | Shared_one -> Format.pp_print_string ppf "shared-one"
  | Shared_multi -> Format.pp_print_string ppf "shared-multi"
