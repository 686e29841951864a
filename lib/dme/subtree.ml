module Interval = Geometry.Interval

type windows = { gid : int array; lo : floatarray; hi : floatarray }

type plan =
  | Sink of Clocktree.Sink.t
  | Committed of { ea : float; eb : float }
  | Split of { total : float; split_lo : float; split_hi : float }
  | Stored of store

and store = {
  sinks : Clocktree.Sink.t array;
  subs : store array;
  mutable merges : int;
  kids : int array;
  n_sinks : int array;
  rule : Bytes.t;
  lengths : floatarray;
  bounds : Geometry.Octslab.t;
}

type t = {
  id : int;
  region : Geometry.Octagon.t;
  cap : float;
  delay : windows;
  n_sinks : int;
  plan : plan;
}

let leaf (s : Clocktree.Sink.t) =
  {
    id = s.id;
    region = Geometry.Octagon.of_point s.loc;
    cap = s.cap;
    delay =
      { gid = [| s.group |]; lo = Float.Array.make 1 0.; hi = Float.Array.make 1 0. };
    n_sinks = 1;
    plan = Sink s;
  }

let join ~id ~region ~cap ~delay a b plan =
  { id; region; cap; delay; n_sinks = a.n_sinks + b.n_sinks; plan }

let store leaves =
  let m = Array.length leaves - 1 in
  let bad () = invalid_arg "Subtree.store: leaves mix sinks and plans, or merges" in
  let stitch = match leaves.(0).plan with Stored _ -> true | _ -> false in
  let sink l = match l.plan with Sink s when not stitch -> s | _ -> bad () in
  let sub l = match l.plan with Stored st when stitch -> st | _ -> bad () in
  {
    sinks = (if stitch then [||] else Array.map sink leaves);
    subs = (if stitch then Array.map sub leaves else [||]);
    merges = 0;
    kids = Array.make (2 * m) 0;
    n_sinks = Array.make m 0;
    rule = Bytes.make m 'c';
    lengths = Float.Array.make (3 * m) 0.;
    bounds = Geometry.Octslab.create m;
  }

let leaves st = Array.length st.sinks + Array.length st.subs
let root st = if st.merges = 0 then 0 else leaves st + st.merges - 1

(* Written out field by field: a helper taking a float would box it. *)
let record st t ~left ~right =
  let m = st.merges in
  if t.id <> leaves st + m || m >= Array.length st.n_sinks then
    invalid_arg "Subtree.record: merges must be recorded in id order";
  st.kids.(2 * m) <- left;
  st.kids.((2 * m) + 1) <- right;
  st.n_sinks.(m) <- t.n_sinks;
  let f = st.lengths and o = 3 * m in
  (match t.plan with
   | Committed { ea; eb } ->
     Float.Array.set f o ea;
     Float.Array.set f (o + 1) eb
   | Split { total; split_lo; split_hi } ->
     Bytes.set st.rule m 's';
     Float.Array.set f o total;
     Float.Array.set f (o + 1) split_lo;
     Float.Array.set f (o + 2) split_hi
   | Sink _ | Stored _ -> invalid_arg "Subtree.record: not a merge");
  Geometry.Octslab.set st.bounds m t.region;
  st.merges <- m + 1

let stored st t = { t with plan = Stored st }

let store_of t =
  match t.plan with Stored st -> st | _ -> invalid_arg "Subtree.store_of: not stored"

let rec sinks_at st id =
  let nl = leaves st in
  if id >= nl then st.n_sinks.(id - nl)
  else if Array.length st.sinks > 0 then 1
  else sinks_at st.subs.(id) (root st.subs.(id))

let rec region st id =
  let nl = leaves st in
  if id >= nl then Geometry.Octslab.get st.bounds (id - nl)
  else if Array.length st.sinks > 0 then Geometry.Octagon.of_point st.sinks.(id).loc
  else region st.subs.(id) (root st.subs.(id))

let groups t = Array.to_list t.delay.gid

let window t g =
  let gid = t.delay.gid in
  let rec find i =
    if i >= Array.length gid || gid.(i) > g then None
    else if gid.(i) = g then
      Some (Interval.make (Float.Array.get t.delay.lo i) (Float.Array.get t.delay.hi i))
    else find (i + 1)
  in
  find 0

let shared_groups a b =
  let ga = a.delay.gid and gb = b.delay.gid in
  let rec go i j acc =
    if i >= Array.length ga || j >= Array.length gb then List.rev acc
    else if ga.(i) < gb.(j) then go (i + 1) j acc
    else if ga.(i) > gb.(j) then go i (j + 1) acc
    else go (i + 1) (j + 1) (ga.(i) :: acc)
  in
  go 0 0 []

let union_shifted ~wa (a : windows) ~wb (b : windows) =
  let ga = a.gid and gb = b.gid in
  let na = Array.length ga and nb = Array.length gb in
  (* First pass sizes the result: the number of distinct groups, the
     total less the shared ones.  A loop, not a local recursive
     function, which would allocate its closure. *)
  let shared = ref 0 and i = ref 0 and j = ref 0 in
  while !i < na && !j < nb do
    let x = ga.(!i) and y = gb.(!j) in
    if x <= y then incr i;
    if y <= x then incr j;
    if x = y then incr shared
  done;
  let n = na + nb - !shared in
  let gid = Array.make n 0 and lo = Float.Array.create n and hi = Float.Array.create n in
  i := 0;
  j := 0;
  (* Per group, [Interval.hull (Interval.shift wa ia) (Interval.shift wb
     ib)] where both sides have it and the lone side's shifted window
     otherwise, written out with those functions' float operations in
     their operand order, so the windows are bit-identical to them. *)
  for k = 0 to n - 1 do
    let take_a = !j >= nb || (!i < na && ga.(!i) <= gb.(!j)) in
    let take_b = !i >= na || (!j < nb && gb.(!j) <= ga.(!i)) in
    if take_a && take_b then begin
      gid.(k) <- ga.(!i);
      Float.Array.set lo k
        (Float.min (Float.Array.get a.lo !i +. wa) (Float.Array.get b.lo !j +. wb));
      Float.Array.set hi k
        (Float.max (Float.Array.get a.hi !i +. wa) (Float.Array.get b.hi !j +. wb));
      incr i;
      incr j
    end
    else if take_a then begin
      gid.(k) <- ga.(!i);
      Float.Array.set lo k (Float.Array.get a.lo !i +. wa);
      Float.Array.set hi k (Float.Array.get a.hi !i +. wa);
      incr i
    end
    else begin
      gid.(k) <- gb.(!j);
      Float.Array.set lo k (Float.Array.get b.lo !j +. wb);
      Float.Array.set hi k (Float.Array.get b.hi !j +. wb);
      incr j
    end
  done;
  { gid; lo; hi }

(* The folds below run in ascending group order with the float
   operations of the [Interval] helpers written out: [width] is
   [Float.max 0. (hi -. lo)], [hull] a [Float.min] of the lows and a
   [Float.max] of the highs. *)
let delay_hull t =
  let lo = ref Float.infinity and hi = ref Float.neg_infinity in
  for i = 0 to Array.length t.delay.gid - 1 do
    lo := Float.min !lo (Float.Array.get t.delay.lo i);
    hi := Float.max !hi (Float.Array.get t.delay.hi i)
  done;
  Interval.make !lo !hi

let width t i = Float.max 0. (Float.Array.get t.delay.hi i -. Float.Array.get t.delay.lo i)

let min_slack_by ~bound_of t =
  let acc = ref Float.infinity in
  for i = 0 to Array.length t.delay.gid - 1 do
    acc := Float.min !acc (bound_of t.delay.gid.(i) -. width t i)
  done;
  !acc
