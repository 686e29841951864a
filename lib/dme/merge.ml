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

(* Fraction of a group's remaining slack one constrained merge may
   consume before snaking is considered (gradual slack spending). *)
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
let merge_committed (inst : Clocktree.Instance.t) ~id kind shared
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
    Subtree.join ~id ~region ~cap:(a.cap +. b.cap +. (params.c *. wire)) ~delay a b
      (Committed { ea = plan.ea; eb = plan.eb })
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
    Subtree.join ~id ~region ~cap:(a.cap +. b.cap +. (params.c *. dist)) ~delay a b
      (Split { total = dist; split_lo = l; split_hi = h })
  in
  { subtree; kind = Cross_group; planned_wire = dist; snake = 0.; feasible = true }

let run_reference inst ~split_slack ~width_cap ~id a b =
  let shared = Subtree.shared_groups a b in
  match classify a b shared with
  | Cross_group -> merge_cross inst ~split_slack ~width_cap ~id a b
  | kind -> merge_committed inst ~id kind shared a b

(* --- The merge kernel --------------------------------------------------- *)

(* [run] computes the reference's result with the same float operations
   on the same operands in the same order, but reads both children from
   the run's columns and writes the merged id there and in the plan
   store, keeping every intermediate in unboxed locals or in a
   per-domain scratch: no group list, no constraint or interval
   records, no plan records, no closures, no octagons and no result.
   It calls the inlined homes of the reference's helpers ([Eps],
   [Instance.bound_for], [Rc.Elmore], the [Octslab] kernels);
   [Eps.fmin] and [Eps.fmax] are [Float.min] and [Float.max] bit for
   bit. *)

module Octslab = Geometry.Octslab

(* Per-domain scratch of a merge: the strict-bound window [0, 1] and the
   full-bound window [2, 3] folded over the shared groups, then the
   last plan's [ea], [eb], [wa], [wb] and [snake] at [4 .. 8].  A merge
   fills it and reads it back before returning and calls nothing that
   merges, so one per domain is never shared. *)
let scratch_key = Domain.DLS.new_key (fun () -> Float.Array.create 9)

let[@inline] get w i = Float.Array.unsafe_get w i

(* One ascending two-pointer walk over both children's windows — the
   order [Subtree.shared_groups] feeds the reference's constraint list
   — folding each shared group's [Rc.Balance.cons_x_interval] into the
   strict and the full window as [Rc.Balance.plan]'s [Interval.inter]
   fold does.  Writes the windows to [w.(0 .. 3)] and returns the
   number of shared groups. *)
let[@inline] fold_windows inst (c : Subtree.cols) a b w =
  let gid = c.wgid and lo = c.wlo and hi = c.whi in
  let oa = c.woff.(a) and ob = c.woff.(b) in
  let na = c.wlen.(a) and nb = c.wlen.(b) in
  let slo = ref Float.neg_infinity and shi = ref Float.infinity in
  let flo = ref Float.neg_infinity and fhi = ref Float.infinity in
  let shared = ref 0 in
  let i = ref 0 and j = ref 0 in
  while !i < na && !j < nb do
    let ga = Array.unsafe_get gid (oa + !i) and gb = Array.unsafe_get gid (ob + !j) in
    if ga < gb then incr i
    else if ga > gb then incr j
    else begin
      incr shared;
      let bound = Clocktree.Instance.bound_for inst ga in
      let alo = Float.Array.unsafe_get lo (oa + !i) in
      let ahi = Float.Array.unsafe_get hi (oa + !i) in
      let blo = Float.Array.unsafe_get lo (ob + !j) in
      let bhi = Float.Array.unsafe_get hi (ob + !j) in
      let wmax = Eps.fmax (Eps.fmax 0. (ahi -. alo)) (Eps.fmax 0. (bhi -. blo)) in
      let strict_bound = wmax +. (slack_usage *. (bound -. wmax)) in
      slo := Eps.fmax !slo (bhi -. alo -. strict_bound);
      shi := Eps.fmin !shi (strict_bound +. blo -. ahi);
      flo := Eps.fmax !flo (bhi -. alo -. bound);
      fhi := Eps.fmin !fhi (bound +. blo -. ahi);
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
  let x_min = -.Rc.Elmore.wire_delay p ~len:dist ~load:cap_b in
  let x_max = Rc.Elmore.wire_delay p ~len:dist ~load:cap_a in
  let clo = Eps.fmax wlo x_min and chi = Eps.fmin whi x_max in
  let x =
    if not (clo > chi +. Eps.tol) then Eps.clamp clo chi pref
    else if allow_snake then if wlo > x_max then wlo else whi
    else Eps.clamp x_min x_max (Eps.clamp wlo whi pref)
  in
  let ea =
    if x > x_max then Rc.Elmore.wire_for_delay p ~load:cap_a ~delay:x
    else if x < x_min || dist = 0. then 0.
    else Eps.clamp 0. dist (Rc.Elmore.balance_split p ~dist ~cap_a ~cap_b ~diff:x)
  in
  let eb =
    if x > x_max then 0.
    else if x < x_min then Rc.Elmore.wire_for_delay p ~load:cap_b ~delay:(-.x)
    else if dist = 0. then 0.
    else dist -. ea
  in
  Float.Array.unsafe_set w 4 ea;
  Float.Array.unsafe_set w 5 eb;
  Float.Array.unsafe_set w 6 (Rc.Elmore.wire_delay p ~len:ea ~load:cap_a);
  Float.Array.unsafe_set w 7 (Rc.Elmore.wire_delay p ~len:eb ~load:cap_b);
  Float.Array.unsafe_set w 8 (Eps.fmax 0. (ea +. eb -. dist));
  feasible

(* [Interval.mid (Subtree.delay_hull t)] of [id]'s windows. *)
let[@inline] hull_mid (c : Subtree.cols) id =
  let lo = ref Float.infinity and hi = ref Float.neg_infinity in
  let o = c.woff.(id) in
  for i = o to o + c.wlen.(id) - 1 do
    lo := Eps.fmin !lo (Float.Array.unsafe_get c.wlo i);
    hi := Eps.fmax !hi (Float.Array.unsafe_get c.whi i)
  done;
  (!lo +. !hi) /. 2.

(* The reference's [merge_region] of [a] and [b], written to slot
   [id]. *)
let[@inline] committed_region r id a ea b eb =
  if not (Octslab.within r id ~ra:ea a ~rb:eb b) then begin
    let extra = 4. *. Eps.tol in
    if not (Octslab.within r id ~ra:(ea +. extra) a ~rb:(eb +. extra) b) then
      Octslab.closest_point r id a b
  end

(* The outcome code of a merge in [cols.kinds]: its kind's index, twice,
   plus one when it is feasible. *)
let[@inline] code kind feasible =
  let k =
    match kind with
    | Same_group -> 0
    | Cross_group -> 1
    | Shared_one -> 2
    | Shared_multi -> 3
  in
  Char.unsafe_chr ((2 * k) + Bool.to_int feasible)

let kind_at (c : Subtree.cols) id =
  match Char.code (Bytes.get c.kinds id) lsr 1 with
  | 0 -> Same_group
  | 1 -> Cross_group
  | 2 -> Shared_one
  | _ -> Shared_multi

let feasible_at (c : Subtree.cols) id = Char.code (Bytes.get c.kinds id) land 1 = 1

let planned_wire (c : Subtree.cols) id =
  let st = c.plan in
  let m = id - Subtree.leaves st in
  let f = st.lengths in
  if Bytes.get st.rule m = 'c' then
    Float.Array.get f (3 * m) +. Float.Array.get f ((3 * m) + 1)
  else Float.Array.get f (3 * m)

(* Writes merge [id]'s outcome, and its region to the store's slot. *)
let[@inline] record (c : Subtree.cols) id kind feasible snake =
  Bytes.unsafe_set c.kinds id (code kind feasible);
  Float.Array.set c.snakes id snake;
  Octslab.copy c.regions id c.plan.bounds (id - Subtree.leaves c.plan)

(* The reference's [merge_committed], its windows already folded into
   [w]. *)
let committed (inst : Clocktree.Instance.t) (c : Subtree.cols) ~id kind a b w =
  let params = inst.params in
  let dist = Octslab.dist c.regions a b in
  let cap_a = Float.Array.get c.caps a and cap_b = Float.Array.get c.caps b in
  let pref = hull_mid c b -. hull_mid c a in
  let strict =
    plan_into w params ~allow_snake:true ~dist ~cap_a ~cap_b ~lo:(get w 0) ~hi:(get w 1)
      ~pref
  in
  let feasible =
    if get w 8 > 0. || not strict then
      plan_into w params ~allow_snake:true ~dist ~cap_a ~cap_b ~lo:(get w 2)
        ~hi:(get w 3) ~pref
    else strict
  in
  let ea = get w 4 and eb = get w 5 in
  committed_region c.regions id a ea b eb;
  Subtree.union_at ~wa:(get w 6) c a ~wb:(get w 7) b id;
  Float.Array.set c.caps id (cap_a +. cap_b +. (params.c *. (ea +. eb)));
  let st = c.plan and m = id - Subtree.leaves c.plan in
  Bytes.set st.rule m 'c';
  Float.Array.set st.lengths (3 * m) ea;
  Float.Array.set st.lengths ((3 * m) + 1) eb;
  record c id kind feasible (get w 8)

(* [Subtree.min_slack_by] over [width_cap] of each group's bound, and
   the reference's split budget from it, for [id]'s windows. *)
let[@inline] budget inst ~split_slack ~width_cap ~min_bound (c : Subtree.cols) id =
  let slack = ref Float.infinity in
  let o = c.woff.(id) in
  for i = o to o + c.wlen.(id) - 1 do
    let width =
      Eps.fmax 0. (Float.Array.unsafe_get c.whi i -. Float.Array.unsafe_get c.wlo i)
    in
    let bound = Clocktree.Instance.bound_for inst c.wgid.(i) in
    slack := Eps.fmin !slack ((width_cap *. bound) -. width)
  done;
  Eps.fmax 0. (Eps.fmin (split_slack *. min_bound) !slack)

(* The reference's [merge_cross]; [w] is the scratch. *)
let cross (inst : Clocktree.Instance.t) ~split_slack ~width_cap (c : Subtree.cols) ~id a
    b w =
  let params = inst.params in
  let dist = Octslab.dist c.regions a b in
  let cap_a = Float.Array.get c.caps a and cap_b = Float.Array.get c.caps b in
  (* The reference folds [b]'s groups, then [a]'s. *)
  let min_bound = ref Float.infinity in
  for i = c.woff.(b) to c.woff.(b) + c.wlen.(b) - 1 do
    min_bound := Eps.fmin !min_bound (Clocktree.Instance.bound_for inst c.wgid.(i))
  done;
  for i = c.woff.(a) to c.woff.(a) + c.wlen.(a) - 1 do
    min_bound := Eps.fmin !min_bound (Clocktree.Instance.bound_for inst c.wgid.(i))
  done;
  let min_bound = !min_bound in
  let pref = hull_mid c b -. hull_mid c a in
  let (_ : bool) =
    plan_into w params ~allow_snake:false ~dist ~cap_a ~cap_b ~lo:Float.neg_infinity
      ~hi:Float.infinity ~pref
  in
  let ea = get w 4 and wa = get w 6 and wb = get w 7 in
  let degenerate = dist <= Eps.tol in
  let l = ref 0. and h = ref 0. in
  if not degenerate then begin
    let omega_a = budget inst ~split_slack ~width_cap ~min_bound c a in
    let omega_b = budget inst ~split_slack ~width_cap ~min_bound c b in
    (* [stretch]: the wire lengths whose delay is w ± omega/2. *)
    let la =
      if wa -. (omega_a /. 2.) <= 0. then 0.
      else Rc.Elmore.wire_for_delay params ~load:cap_a ~delay:(wa -. (omega_a /. 2.))
    in
    let ha = Rc.Elmore.wire_for_delay params ~load:cap_a ~delay:(wa +. (omega_a /. 2.)) in
    let lb =
      if wb -. (omega_b /. 2.) <= 0. then 0.
      else Rc.Elmore.wire_for_delay params ~load:cap_b ~delay:(wb -. (omega_b /. 2.))
    in
    let hb = Rc.Elmore.wire_for_delay params ~load:cap_b ~delay:(wb +. (omega_b /. 2.)) in
    let lo = Eps.fmax 0. (Eps.fmax la (dist -. hb)) in
    let hi = Eps.fmin dist (Eps.fmin ha (dist -. lb)) in
    if lo > hi then begin
      l := ea;
      h := ea
    end
    else begin
      l := lo;
      h := hi
    end
  end;
  let r = c.regions in
  if degenerate then begin
    if not (Octslab.inter r id a b) then Octslab.closest_point r id a b
  end
  else if not (Octslab.sdr_within r id a b ~ra:!h ~rb:(dist -. !l)) then
    committed_region r id a ea b (get w 5);
  Subtree.union_at ~wa c a ~wb b id;
  Float.Array.set c.caps id (cap_a +. cap_b +. (params.c *. dist));
  let st = c.plan and m = id - Subtree.leaves c.plan in
  Bytes.set st.rule m 's';
  Float.Array.set st.lengths (3 * m) dist;
  Float.Array.set st.lengths ((3 * m) + 1) !l;
  Float.Array.set st.lengths ((3 * m) + 2) !h;
  record c id Cross_group true 0.

let run inst ~split_slack ~width_cap (c : Subtree.cols) ~id a b =
  let w = Domain.DLS.get scratch_key in
  match fold_windows inst c a b w with
  | 0 -> cross inst ~split_slack ~width_cap c ~id a b w
  | 1 ->
    let kind =
      if c.wlen.(a) = 1 && c.wlen.(b) = 1 then Same_group else Shared_one
    in
    committed inst c ~id kind a b w
  | _ -> committed inst c ~id Shared_multi a b w

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
let committed_feasible (inst : Clocktree.Instance.t) (c : Subtree.cols) ~dist a b =
  let w = Domain.DLS.get scratch_key in
  if fold_windows inst c a b w = 0 then
    true (* a cross merge: always feasible *)
  else if
    (* strict plan feasible... *)
    not (get w 0 > get w 1 +. Eps.tol)
    && begin
         (* ...and snake-free: wanted ∩ [x_min, x_max] non-empty. *)
         let params = inst.params in
         let cap_a = Float.Array.get c.caps a and cap_b = Float.Array.get c.caps b in
         let x_min = -.Rc.Elmore.wire_delay params ~len:dist ~load:cap_b in
         let x_max = Rc.Elmore.wire_delay params ~len:dist ~load:cap_a in
         not (Eps.fmax (get w 0) x_min > Eps.fmin (get w 1) x_max +. Eps.tol)
       end
  then true
  else not (get w 2 > get w 3 +. Eps.tol)

let pp_kind ppf = function
  | Same_group -> Format.pp_print_string ppf "same-group"
  | Cross_group -> Format.pp_print_string ppf "cross-group"
  | Shared_one -> Format.pp_print_string ppf "shared-one"
  | Shared_multi -> Format.pp_print_string ppf "shared-multi"
