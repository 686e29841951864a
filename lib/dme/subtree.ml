module Interval = Geometry.Interval

type windows = { gid : int array; lo : floatarray; hi : floatarray }

type lengths =
  | Committed of { ea : float; eb : float }
  | Split of { total : float; split_lo : float; split_hi : float }

type t = {
  id : int;
  region : Geometry.Octagon.t;
  cap : float;
  delay : windows;
  n_sinks : int;
  build : build;
}

and build = Leaf of Clocktree.Sink.t | Merge of { left : t; right : t; lengths : lengths }

let leaf (s : Clocktree.Sink.t) =
  {
    id = s.id;
    region = Geometry.Octagon.of_point s.loc;
    cap = s.cap;
    delay =
      { gid = [| s.group |]; lo = Float.Array.make 1 0.; hi = Float.Array.make 1 0. };
    n_sinks = 1;
    build = Leaf s;
  }

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

let max_group_width t =
  let acc = ref 0. in
  for i = 0 to Array.length t.delay.gid - 1 do
    acc := Float.max !acc (width t i)
  done;
  !acc

let min_slack ~bound t =
  let acc = ref bound in
  for i = 0 to Array.length t.delay.gid - 1 do
    acc := Float.min !acc (bound -. width t i)
  done;
  !acc

let min_slack_by ~bound_of t =
  let acc = ref Float.infinity in
  for i = 0 to Array.length t.delay.gid - 1 do
    acc := Float.min !acc (bound_of t.delay.gid.(i) -. width t i)
  done;
  !acc

let pp ppf t =
  Format.fprintf ppf "subtree %d: %d sinks, cap %.1f fF, groups {%a}, region %a"
    t.id t.n_sinks t.cap
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       Format.pp_print_int)
    (groups t) Geometry.Octagon.pp t.region
