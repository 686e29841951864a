module Interval = Geometry.Interval
module Octslab = Geometry.Octslab
module Eps = Geometry.Eps

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
  bounds : Octslab.t;
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

let leaves st = Array.length st.sinks + Array.length st.subs
let root st = if st.merges = 0 then 0 else leaves st + st.merges - 1

let store_of t =
  match t.plan with Stored st -> st | _ -> invalid_arg "Subtree.store_of: not stored"

let rec sinks_at st id =
  let nl = leaves st in
  if id >= nl then st.n_sinks.(id - nl)
  else if Array.length st.sinks > 0 then 1
  else sinks_at st.subs.(id) (root st.subs.(id))

let rec region st id =
  let nl = leaves st in
  if id >= nl then Octslab.get st.bounds (id - nl)
  else if Array.length st.sinks > 0 then Geometry.Octagon.of_point st.sinks.(id).loc
  else region st.subs.(id) (root st.subs.(id))

(* --- A planning run's columns ------------------------------------------- *)

type leaves = Sinks of Clocktree.Sink.t array | Subtrees of t array

type cols = {
  plan : store;
  regions : Octslab.t;
  caps : floatarray;
  sizes : int array;
  woff : int array;
  wlen : int array;
  mutable wgid : int array;
  mutable wlo : floatarray;
  mutable whi : floatarray;
  mutable wtop : int;
  kinds : Bytes.t;
  snakes : floatarray;
}

let cols leaves =
  let n = match leaves with Sinks s -> Array.length s | Subtrees ts -> Array.length ts in
  if n = 0 then invalid_arg "Subtree.cols: no leaves";
  let bad () = invalid_arg "Subtree.cols: leaves mix sinks and plans, or merges" in
  let sinks, subs =
    match leaves with
    | Sinks s -> (s, [||])
    | Subtrees ts -> (
      let sink (l : t) = match l.plan with Sink s -> s | _ -> bad () in
      let sub (l : t) = match l.plan with Stored st -> st | _ -> bad () in
      match ts.(0).plan with
      | Sink _ -> (Array.map sink ts, [||])
      | Stored _ -> ([||], Array.map sub ts)
      | Committed _ | Split _ -> bad ())
  in
  (* The leaves' windows, and one more than their largest group id. *)
  let windows, groups =
    match leaves with
    | Sinks s ->
      (n, 1 + Array.fold_left (fun g (k : Clocktree.Sink.t) -> Int.max g k.group) 0 s)
    | Subtrees ts ->
      Array.fold_left
        (fun (w, g) (l : t) ->
          let k = Array.length l.delay.gid in
          (w + k, if k = 0 then g else Int.max g (1 + l.delay.gid.(k - 1))))
        (0, 1) ts
  in
  (* Every merge's windows are appended, at most [groups] of them, so
     [windows + m * groups] slots always suffice.  The room is that, up
     to the largest block the minor heap takes, and four slots a leaf
     window beyond it (r1-r5 plans at 8 groups fill 3.8-3.9); [reserve]
     doubles it when a run outgrows it. *)
  let m = n - 1 and ids = (2 * n) - 1 in
  let room = Int.min (windows + (m * groups)) (Int.max 256 (4 * windows)) in
  let c =
    {
      plan =
        {
          sinks;
          subs;
          merges = 0;
          kids = Array.make (2 * m) 0;
          n_sinks = Array.make m 0;
          rule = Bytes.make m 'c';
          lengths = Float.Array.make (3 * m) 0.;
          bounds = Octslab.create m;
        };
      regions = Octslab.create ids;
      caps = Float.Array.make ids 0.;
      sizes = Array.make ids 1;
      woff = Array.make ids 0;
      wlen = Array.make ids 0;
      wgid = Array.make room 0;
      wlo = Float.Array.make room 0.;
      whi = Float.Array.make room 0.;
      wtop = windows;
      kinds = Bytes.make ids '\000';
      snakes = Float.Array.make ids 0.;
    }
  in
  (match leaves with
   | Sinks s ->
     for i = 0 to n - 1 do
       let k = s.(i) in
       Octslab.set c.regions i (Geometry.Octagon.of_point k.loc);
       Float.Array.set c.caps i k.cap;
       c.woff.(i) <- i;
       c.wlen.(i) <- 1;
       c.wgid.(i) <- k.group
     done
   | Subtrees ts ->
     let at = ref 0 in
     Array.iteri
       (fun i (l : t) ->
         let w = Array.length l.delay.gid in
         Octslab.set c.regions i l.region;
         Float.Array.set c.caps i l.cap;
         c.sizes.(i) <- l.n_sinks;
         c.woff.(i) <- !at;
         c.wlen.(i) <- w;
         Array.blit l.delay.gid 0 c.wgid !at w;
         Float.Array.blit l.delay.lo 0 c.wlo !at w;
         Float.Array.blit l.delay.hi 0 c.whi !at w;
         at := !at + w)
       ts);
  c

(* The number of groups in the union of two ascending group runs
   [ga.(ia ..)] ([na] of them) and [gb.(ib ..)]: both counts less the
   shared ones.  A loop, not a local recursive function, which would
   allocate its closure. *)
let union_size (ga : int array) ia na (gb : int array) ib nb =
  let shared = ref 0 and i = ref 0 and j = ref 0 in
  while !i < na && !j < nb do
    let x = ga.(ia + !i) and y = gb.(ib + !j) in
    if x <= y then incr i;
    if y <= x then incr j;
    if x = y then incr shared
  done;
  na + nb - !shared

let reserve c a b =
  let st = c.plan in
  let m = st.merges in
  if m >= Array.length st.n_sinks then
    invalid_arg "Subtree.reserve: the plan is complete";
  let id = leaves st + m in
  st.kids.(2 * m) <- a;
  st.kids.((2 * m) + 1) <- b;
  let size = c.sizes.(a) + c.sizes.(b) in
  st.n_sinks.(m) <- size;
  c.sizes.(id) <- size;
  let n = union_size c.wgid c.woff.(a) c.wlen.(a) c.wgid c.woff.(b) c.wlen.(b) in
  let room = Array.length c.wgid in
  if c.wtop + n > room then begin
    let room = Int.max (c.wtop + n) (2 * room) in
    let gid = Array.make room 0 in
    let lo = Float.Array.make room 0. and hi = Float.Array.make room 0. in
    Array.blit c.wgid 0 gid 0 c.wtop;
    Float.Array.blit c.wlo 0 lo 0 c.wtop;
    Float.Array.blit c.whi 0 hi 0 c.wtop;
    c.wgid <- gid;
    c.wlo <- lo;
    c.whi <- hi
  end;
  c.woff.(id) <- c.wtop;
  c.wlen.(id) <- n;
  c.wtop <- c.wtop + n;
  st.merges <- m + 1;
  id

let view c id =
  let st = c.plan in
  let nl = leaves st and o = c.woff.(id) and n = c.wlen.(id) in
  let plan =
    if id < nl then
      if Array.length st.sinks > 0 then Sink st.sinks.(id) else Stored st.subs.(id)
    else begin
      let f = st.lengths and o = 3 * (id - nl) in
      if Bytes.get st.rule (id - nl) = 'c' then
        Committed { ea = Float.Array.get f o; eb = Float.Array.get f (o + 1) }
      else
        Split
          {
            total = Float.Array.get f o;
            split_lo = Float.Array.get f (o + 1);
            split_hi = Float.Array.get f (o + 2);
          }
    end
  in
  {
    id;
    region = Octslab.get c.regions id;
    cap = Float.Array.get c.caps id;
    delay =
      {
        gid = Array.sub c.wgid o n;
        lo = Float.Array.sub c.wlo o n;
        hi = Float.Array.sub c.whi o n;
      };
    n_sinks = c.sizes.(id);
    plan;
  }

let finish c : t = { (view c (root c.plan)) with plan = Stored c.plan }

(* --- Windows ------------------------------------------------------------- *)

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

(* Per group, [Interval.hull (Interval.shift wa ia) (Interval.shift wb
   ib)] where both runs have it and the lone run's shifted window
   otherwise, written out with those functions' float operations in
   their operand order: [a]'s run at [ia] of [ga]/[la]/[ha] ([na]
   groups), [b]'s likewise, the [n] groups of the union written from
   [at] of [gid]/[lo]/[hi].  [Eps.fmin] and [Eps.fmax] are [Float.min]
   and [Float.max] bit for bit, inlined.  Inlined itself, so neither
   shift is boxed. *)
let[@inline] union_into ~wa (ga : int array) la ha ia na ~wb (gb : int array) lb hb ib
    nb (gid : int array) lo hi at n =
  let i = ref 0 and j = ref 0 in
  for k = at to at + n - 1 do
    let take_a = !j >= nb || (!i < na && ga.(ia + !i) <= gb.(ib + !j)) in
    let take_b = !i >= na || (!j < nb && gb.(ib + !j) <= ga.(ia + !i)) in
    if take_a && take_b then begin
      gid.(k) <- ga.(ia + !i);
      Float.Array.set lo k
        (Eps.fmin
           (Float.Array.get la (ia + !i) +. wa)
           (Float.Array.get lb (ib + !j) +. wb));
      Float.Array.set hi k
        (Eps.fmax
           (Float.Array.get ha (ia + !i) +. wa)
           (Float.Array.get hb (ib + !j) +. wb));
      incr i;
      incr j
    end
    else if take_a then begin
      gid.(k) <- ga.(ia + !i);
      Float.Array.set lo k (Float.Array.get la (ia + !i) +. wa);
      Float.Array.set hi k (Float.Array.get ha (ia + !i) +. wa);
      incr i
    end
    else begin
      gid.(k) <- gb.(ib + !j);
      Float.Array.set lo k (Float.Array.get lb (ib + !j) +. wb);
      Float.Array.set hi k (Float.Array.get hb (ib + !j) +. wb);
      incr j
    end
  done

let union_shifted ~wa (a : windows) ~wb (b : windows) =
  let na = Array.length a.gid and nb = Array.length b.gid in
  let n = union_size a.gid 0 na b.gid 0 nb in
  let gid = Array.make n 0 and lo = Float.Array.create n and hi = Float.Array.create n in
  union_into ~wa a.gid a.lo a.hi 0 na ~wb b.gid b.lo b.hi 0 nb gid lo hi 0 n;
  { gid; lo; hi }

let[@inline] union_at ~wa c a ~wb b id =
  let gid = c.wgid and lo = c.wlo and hi = c.whi in
  union_into ~wa gid lo hi c.woff.(a) c.wlen.(a) ~wb gid lo hi c.woff.(b) c.wlen.(b)
    gid lo hi c.woff.(id) c.wlen.(id)

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

let[@inline] hull_hi c id =
  let hi = ref Float.neg_infinity and o = c.woff.(id) in
  for i = o to o + c.wlen.(id) - 1 do
    hi := Float.max !hi (Float.Array.unsafe_get c.whi i)
  done;
  !hi

let width t i = Float.max 0. (Float.Array.get t.delay.hi i -. Float.Array.get t.delay.lo i)

let min_slack_by ~bound_of t =
  let acc = ref Float.infinity in
  for i = 0 to Array.length t.delay.gid - 1 do
    acc := Float.min !acc (bound_of t.delay.gid.(i) -. width t i)
  done;
  !acc
