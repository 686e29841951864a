(* Tests for the deferred-merge engine: subtree state, the four merge
   cases, ordering, embedding, and end-to-end constraint satisfaction. *)

module Pt = Geometry.Pt
module Octagon = Geometry.Octagon
module Interval = Geometry.Interval
open Clocktree

let pt = Pt.make

let sink id x y ?(cap = 20.) group = Sink.make ~id ~loc:(pt x y) ~cap ~group

let instance ?(bound = 0.) ?(n_groups = 1) sinks =
  Instance.make ~bound ~source:(pt 0. 0.) ~n_groups (Array.of_list sinks)

let merge inst ?(id = 1000) a b =
  Dme.Merge.run inst ~split_slack:0.25 ~width_cap:0.7 ~id a b

let check_float ?(tol = 1e-6) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

(* --- Subtree ------------------------------------------------------------- *)

let test_subtree_leaf () =
  let s = sink 3 10. 20. 2 in
  let t = Dme.Subtree.leaf s in
  Alcotest.(check int) "id" 3 t.id;
  Alcotest.(check (list int)) "groups" [ 2 ] (Dme.Subtree.groups t);
  check_float "cap" 20. t.cap;
  Alcotest.(check bool) "region is the sink" true
    (Octagon.contains t.region (pt 10. 20.));
  check_float "no width" 0. (Dme.Subtree.max_group_width t);
  check_float "full slack" 10. (Dme.Subtree.min_slack ~bound:10. t)

let test_subtree_shared_groups () =
  let inst =
    instance ~n_groups:3
      [ sink 0 0. 0. 0; sink 1 10. 0. 1; sink 2 20. 0. 1; sink 3 30. 0. 2 ]
  in
  let l i = Dme.Subtree.leaf inst.sinks.(i) in
  let a = (merge inst ~id:10 (l 0) (l 1)).subtree in
  let b = (merge inst ~id:11 (l 2) (l 3)).subtree in
  Alcotest.(check (list int)) "a groups" [ 0; 1 ] (Dme.Subtree.groups a);
  Alcotest.(check (list int)) "shared" [ 1 ] (Dme.Subtree.shared_groups a b)

(* The flat delay windows must reproduce, bit for bit, the map-based
   bookkeeping they replaced: [Map.map (Interval.shift w)] on each side
   and a [Map.union] taking the hull of shared groups, and the folds run
   in ascending group order.  The [IntMap] reference lives here. *)
module IntMap = Map.Make (Int)

let windows_of_map m =
  let b = IntMap.bindings m in
  Dme.Subtree.
    {
      gid = Array.of_list (List.map fst b);
      lo = Float.Array.of_list (List.map (fun (_, (iv : Interval.t)) -> iv.lo) b);
      hi = Float.Array.of_list (List.map (fun (_, (iv : Interval.t)) -> iv.hi) b);
    }

let with_windows m =
  { (Dme.Subtree.leaf (sink 0 0. 0. 0)) with delay = windows_of_map m }

let bits = Int64.bits_of_float

let same_windows (w : Dme.Subtree.windows) (v : Dme.Subtree.windows) =
  w.gid = v.gid
  && Float.Array.length w.lo = Float.Array.length v.lo
  && List.for_all
       (fun i ->
         bits (Float.Array.get w.lo i) = bits (Float.Array.get v.lo i)
         && bits (Float.Array.get w.hi i) = bits (Float.Array.get v.hi i))
       (List.init (Float.Array.length w.lo) Fun.id)

let prop_windows_match_map =
  let gen_float =
    QCheck.Gen.(
      oneof
        [ float_range (-500.) 500.; oneofl [ 0.; -0.; 1e-300; 3.25; -7.5 ] ])
  in
  let gen_map =
    QCheck.Gen.(
      let* entries =
        list_size (int_range 1 6)
          (let* g = int_range 0 9 in
           let* lo = gen_float in
           let* w = oneof [ return 0.; float_range 0. 50.; return (-1.) ] in
           return (g, Interval.make lo (lo +. w)))
      in
      return (List.fold_left (fun m (g, iv) -> IntMap.add g iv m) IntMap.empty entries))
  in
  let gen =
    QCheck.Gen.(
      let* a = gen_map and* b = gen_map and* wa = gen_float and* wb = gen_float in
      let* bound = gen_float in
      return (a, b, wa, wb, bound))
  in
  let print (a, b, wa, wb, bound) =
    let pm m =
      String.concat "; "
        (List.map
           (fun (g, (iv : Interval.t)) -> Printf.sprintf "%d:[%h,%h]" g iv.lo iv.hi)
           (IntMap.bindings m))
    in
    Printf.sprintf "a={%s} b={%s} wa=%h wb=%h bound=%h" (pm a) (pm b) wa wb bound
  in
  QCheck.Test.make ~name:"flat windows = IntMap reference, bit for bit" ~count:500
    (QCheck.make ~print gen) (fun (a, b, wa, wb, bound) ->
      let expect =
        IntMap.union
          (fun _ ia ib -> Some (Interval.hull ia ib))
          (IntMap.map (Interval.shift wa) a)
          (IntMap.map (Interval.shift wb) b)
      in
      let got =
        Dme.Subtree.union_shifted ~wa (windows_of_map a) ~wb (windows_of_map b)
      in
      let t = with_windows a in
      let hull =
        IntMap.fold (fun _ iv acc -> Interval.hull acc iv) a
          (Interval.make Float.infinity Float.neg_infinity)
      in
      let bound_of g = bound +. float_of_int g in
      let got_hull = Dme.Subtree.delay_hull t in
      same_windows got (windows_of_map expect)
      && bits got_hull.lo = bits hull.lo
      && bits got_hull.hi = bits hull.hi
      && bits (Dme.Subtree.max_group_width t)
         = bits (IntMap.fold (fun _ iv acc -> Float.max acc (Interval.width iv)) a 0.)
      && bits (Dme.Subtree.min_slack ~bound t)
         = bits
             (IntMap.fold
                (fun _ iv acc -> Float.min acc (bound -. Interval.width iv))
                a bound)
      && bits (Dme.Subtree.min_slack_by ~bound_of t)
         = bits
             (IntMap.fold
                (fun g iv acc -> Float.min acc (bound_of g -. Interval.width iv))
                a Float.infinity)
      && Dme.Subtree.groups t = List.map fst (IntMap.bindings a)
      && Dme.Subtree.shared_groups t (with_windows b)
         = List.filter (fun g -> IntMap.mem g b) (List.map fst (IntMap.bindings a))
      && List.for_all
           (fun g -> Dme.Subtree.window t g = IntMap.find_opt g a)
           (List.init 10 Fun.id))

(* --- Merge cases --------------------------------------------------------- *)

let test_merge_same_group_zero_skew () =
  (* Two equal sinks 100 apart, zero skew: merging segment through the
     middle, delays equal. *)
  let inst = instance ~bound:0. [ sink 0 0. 0. 0; sink 1 100. 0. 0 ] in
  let r =
    merge inst (Dme.Subtree.leaf inst.sinks.(0)) (Dme.Subtree.leaf inst.sinks.(1))
  in
  Alcotest.(check bool) "kind" true (r.kind = Dme.Merge.Same_group);
  Alcotest.(check bool) "feasible" true r.feasible;
  check_float "wire = distance" 100. r.planned_wire;
  check_float "no snake" 0. r.snake;
  Alcotest.(check bool) "region contains midpoint" true
    (Octagon.contains r.subtree.region (pt 50. 0.));
  Alcotest.(check bool) "region excludes endpoints" false
    (Octagon.contains r.subtree.region (pt 0. 0.));
  let iv = Option.get (Dme.Subtree.window r.subtree 0) in
  check_float "zero width delay" 0. (Interval.width iv);
  (* cap: 2 sinks + wire *)
  check_float "cap" (40. +. (0.02 *. 100.)) r.subtree.cap

let test_merge_same_group_snaking () =
  (* Very unequal loads at distance 0 force snaking. *)
  let inst =
    instance ~bound:0. [ sink 0 0. 0. ~cap:10. 0; sink 1 0. 0. ~cap:500. 0 ]
  in
  let heavy =
    merge inst
      (Dme.Subtree.leaf inst.sinks.(0))
      (Dme.Subtree.leaf inst.sinks.(1))
  in
  check_float "no snake needed at dist 0 with equal delays" 0. heavy.snake;
  (* Distance large, but one side has a big head start in delay: build an
     unbalanced inner pair first. *)
  let inst2 =
    instance ~bound:0. ~n_groups:1
      [ sink 0 0. 0. 0; sink 1 20000. 0. 0; sink 2 20100. 0. 0 ]
  in
  let inner =
    merge inst2
      (Dme.Subtree.leaf inst2.sinks.(1))
      (Dme.Subtree.leaf inst2.sinks.(2))
  in
  let outer = merge inst2 inner.subtree (Dme.Subtree.leaf inst2.sinks.(0)) in
  Alcotest.(check bool) "feasible" true outer.feasible;
  (* The lone far sink is faster; balancing may need wire beyond the
     distance only if the imbalance exceeds the span — here it should
     balance without snaking. *)
  check_float "no snake" 0. outer.snake

let test_merge_cross_group () =
  let inst =
    instance ~bound:10. ~n_groups:2 [ sink 0 0. 0. 0; sink 1 60. 40. 1 ]
  in
  let r =
    merge inst (Dme.Subtree.leaf inst.sinks.(0)) (Dme.Subtree.leaf inst.sinks.(1))
  in
  Alcotest.(check bool) "kind" true (r.kind = Dme.Merge.Cross_group);
  check_float "wire = distance" 100. r.planned_wire;
  check_float "no snake ever" 0. r.snake;
  (* The merging region is inside the SDR: every point splits the
     distance exactly. *)
  let reg = r.subtree.region in
  let c = Octagon.center reg in
  check_float ~tol:1e-4 "center splits distance" 100.
    (Pt.dist c (pt 0. 0.) +. Pt.dist c (pt 60. 40.));
  (* Both groups present, delay intervals disjoint keys. *)
  Alcotest.(check (list int)) "groups" [ 0; 1 ] (Dme.Subtree.groups r.subtree)

let test_merge_cross_group_interval_soundness () =
  (* The recorded interval must cover the delay of any admissible
     split. *)
  let inst =
    instance ~bound:10. ~n_groups:2 [ sink 0 0. 0. 0; sink 1 2000. 0. 1 ]
  in
  let r =
    merge inst (Dme.Subtree.leaf inst.sinks.(0)) (Dme.Subtree.leaf inst.sinks.(1))
  in
  match r.subtree.plan with
  | Dme.Subtree.Split { total; split_lo; split_hi } ->
    check_float "total" 2000. total;
    Alcotest.(check bool) "split range ordered" true (split_lo <= split_hi);
    (* Nominal bookkeeping: the recorded delay is that of the balanced
       split, which lies inside the admissible split range; widths stay
       exact (0 for a single sink). *)
    let iv0 = Option.get (Dme.Subtree.window r.subtree 0) in
    check_float "single sink keeps zero width" 0. (Interval.width iv0);
    let w len = Rc.Elmore.wire_delay inst.params ~len ~load:20. in
    Alcotest.(check bool) "nominal delay within split range" true
      (iv0.Interval.lo >= w split_lo -. 1e-9 && iv0.Interval.hi <= w split_hi +. 1e-9)
  | _ -> Alcotest.fail "expected a split merge"

let test_merge_shared_one () =
  (* Subtrees {g0, g1} and {g1, g2}: share exactly one group. *)
  let inst =
    instance ~bound:10. ~n_groups:3
      [ sink 0 0. 0. 0; sink 1 100. 0. 1; sink 2 5000. 0. 1; sink 3 5100. 0. 2 ]
  in
  let l i = Dme.Subtree.leaf inst.sinks.(i) in
  let a = (merge inst ~id:10 (l 0) (l 1)).subtree in
  let b = (merge inst ~id:11 (l 2) (l 3)).subtree in
  let r = merge inst ~id:12 a b in
  Alcotest.(check bool) "kind" true (r.kind = Dme.Merge.Shared_one);
  Alcotest.(check bool) "feasible" true r.feasible;
  let iv1 = Option.get (Dme.Subtree.window r.subtree 1) in
  Alcotest.(check bool) "shared group within bound" true
    (Interval.width iv1 <= 10. +. 1e-6)

let test_merge_shared_multi () =
  (* Both subtrees contain groups {0, 1}. *)
  let inst =
    instance ~bound:10. ~n_groups:2
      [
        sink 0 0. 0. 0;
        sink 1 100. 0. 1;
        sink 2 5000. 0. 0;
        sink 3 5100. 0. 1;
      ]
  in
  let l i = Dme.Subtree.leaf inst.sinks.(i) in
  let a = (merge inst ~id:10 (l 0) (l 1)).subtree in
  let b = (merge inst ~id:11 (l 2) (l 3)).subtree in
  let r = merge inst ~id:12 a b in
  Alcotest.(check bool) "kind" true (r.kind = Dme.Merge.Shared_multi);
  List.iter
    (fun g ->
      let iv = Option.get (Dme.Subtree.window r.subtree g) in
      Alcotest.(check bool)
        (Printf.sprintf "group %d within bound" g)
        true
        (Interval.width iv <= 10. +. 1e-6))
    [ 0; 1 ]

(* --- Order --------------------------------------------------------------- *)

let mk_instance n ~n_groups ~bound =
  let rng = Workload.Rng.create 42L in
  let sinks =
    List.init n (fun i ->
        sink i
          (Workload.Rng.float_range rng 0. 10000.)
          (Workload.Rng.float_range rng 0. 10000.)
          (i mod n_groups))
  in
  instance ~bound ~n_groups sinks

(* The ranking loop run serially, pricing each candidate with [cost]
   (default: its region distance) and committing each selected pair with
   [Merge.run]. *)
let rank ?(cost = fun ~dist _ _ -> dist) inst config =
  Dme.Order.run_ranked inst config ~cost
    ~merger:
      { compute = (fun ~id a b -> merge inst ~id a b); install = (fun r -> r.subtree) }

let test_order_reduces_to_one () =
  let inst = mk_instance 33 ~n_groups:3 ~bound:10. in
  let root, stats = rank inst Dme.Order.default in
  Alcotest.(check int) "all sinks" 33 root.n_sinks;
  Alcotest.(check bool) "several rounds" true (stats.rounds >= 2);
  (* single-pair mode produces one merge per round *)
  let config = { Dme.Order.default with multi_merge = false } in
  let root1, stats1 = rank inst config in
  Alcotest.(check int) "all sinks single" 33 root1.n_sinks;
  Alcotest.(check int) "n-1 rounds" 32 stats1.rounds

(* Endgame audit: the smallest instances exercise the final 2- and
   3-subtree rounds of the nearest-neighbour loop, where a grid query
   returning [] (or a knn misconfiguration) used to stall the order. *)
let test_order_two_sink_endgame () =
  let inst = instance ~bound:10. ~n_groups:2 [ sink 0 0. 0. 0; sink 1 700. 300. 1 ] in
  let root, stats = rank inst Dme.Order.default in
  Alcotest.(check int) "both sinks merged" 2 root.n_sinks;
  Alcotest.(check int) "one round" 1 stats.Dme.Order.rounds

let test_order_three_sink_endgame () =
  let inst =
    instance ~bound:10. ~n_groups:3
      [ sink 0 0. 0. 0; sink 1 900. 0. 1; sink 2 0. 900. 2 ]
  in
  let root, _ = rank inst Dme.Order.default in
  Alcotest.(check int) "all three sinks merged" 3 root.n_sinks

let test_order_knn_zero_clamped () =
  (* knn = 0 used to make every query return [] and loop forever; it is
     now clamped to 1. *)
  let inst = mk_instance 12 ~n_groups:2 ~bound:10. in
  let root, _ = rank inst { Dme.Order.default with knn = 0 } in
  Alcotest.(check int) "all sinks merged" 12 root.n_sinks

(* A NaN cost used to win the probe's argmin and be replaced by every
   later candidate, so the probe silently ended on its last one; it is
   an error now. *)
let test_order_nan_cost_raises () =
  let inst =
    instance ~bound:10. ~n_groups:2 [ sink 0 0. 0. 0; sink 1 700. 300. 1 ]
  in
  match rank ~cost:(fun ~dist:_ _ _ -> Float.nan) inst Dme.Order.default with
  | _ -> Alcotest.fail "a NaN cost was ranked"
  | exception Invalid_argument _ -> ()

(* An empty population used to reach the ranking loop's degenerate
   fallback and index [node.(-1)]. *)
let test_engine_empty_leaves () =
  let inst = mk_instance 4 ~n_groups:1 ~bound:10. in
  Alcotest.check_raises "named rejection"
    (Invalid_argument "Order.run_ranked: leaves must be non-empty") (fun () ->
      ignore (Dme.Engine.plan ~leaves:[||] inst))

(* [Order.cheapest] prices only candidates whose distance can still win,
   yet returns the exhaustive (cost, lowest id) argmin.  Distances sit on
   a coarse lattice so distance and cost ties are common; a price is the
   distance, the distance plus an infeasibility-sized penalty, or the
   distance plus a non-negative (often lattice) extra. *)
let prop_cheapest_matches_exhaustive =
  let gen =
    QCheck.Gen.(
      let* len = 0 -- 16 in
      let* ids = shuffle_l (List.init 40 Fun.id) in
      let ids = List.filteri (fun i _ -> i < len) ids in
      let* cands =
        flatten_l
          (List.map
             (fun id ->
               let* dist = map (fun k -> float_of_int k *. 0.5) (0 -- 6) in
               let* extra =
                 oneof
                   [
                     return 0.;
                     return 1e9;
                     map (fun k -> float_of_int k *. 0.5) (0 -- 4);
                     float_range 0. 3.;
                   ]
               in
               return (id, dist, dist +. extra))
             ids)
      in
      return (Array.of_list cands))
  in
  let print cands =
    String.concat "; "
      (Array.to_list
         (Array.map (fun (id, d, c) -> Printf.sprintf "%d:%g/%g" id d c) cands))
  in
  QCheck.Test.make ~name:"cheapest = exhaustive (cost, id) argmin" ~count:1000
    (QCheck.make ~print gen) (fun cands ->
      let ids = Array.map (fun (id, _, _) -> id) cands in
      let lookup id =
        Option.get (Array.find_opt (fun (i, _, _) -> i = id) cands)
      in
      let dist id =
        let _, d, _ = lookup id in
        d
      in
      let price id d =
        let _, d', c = lookup id in
        assert (d = d');
        c
      in
      let best = ref (-1) in
      Array.iteri
        (fun i (id, _, c) ->
          if !best < 0 then best := i
          else begin
            let bid, _, bc = cands.(!best) in
            if c < bc || (c = bc && id < bid) then best := i
          end)
        cands;
      let i, c = Dme.Order.cheapest ids (Array.length ids) ~dist ~price in
      i = !best
      && (i < 0 && c = Float.infinity
         || i >= 0 && let _, _, bc = cands.(i) in c = bc))

(* [Order.settle] against the full probe it shortcuts.  A population of
   regions is packed at their centers into one snapshot, as a merge round
   packs its population; the full probe is [cheapest] over
   the [knn] nearest, the widened one [settle] with each region's L1
   radius about its center and the population's largest, [rmax].  They
   must agree on the partner, its cost and the exact sequence of priced
   candidates (so the engine's priced counter agrees too), and [settle]'s
   [priced] slot must count its own price calls. *)
module Grid_index = Geometry.Grid_index

(* The L1 radius bound [Order] keeps per subtree: |dx| + |dy| is the
   larger of |d(x+y)| and |d(x-y)|, bounded by the s/d extents. *)
let l1_radius region (c : Pt.t) =
  match Octagon.bounds region with
  | None -> Float.nan
  | Some b ->
    let cs = c.x +. c.y and cd = c.x -. c.y in
    Float.max
      (Float.max (b.sh -. cs) (cs -. b.sl))
      (Float.max (b.dh -. cd) (cd -. b.dl))

(* Both probes of subtree 0 over [regions] (id = index), priced at
   region distance plus [extra.(id)]; each returns (partner, cost,
   priced ids in order). *)
let settle_vs_full ?(cell = 1.) regions extra ~knn =
  let n = Array.length regions in
  let centers = Array.map Octagon.center regions in
  let rads = Array.mapi (fun i r -> l1_radius r centers.(i)) regions in
  let rmax = Array.fold_left Float.max 0. rads in
  let snap = Grid_index.snapshot () in
  Grid_index.pack snap ~cell (Array.init n Fun.id)
    (Float.Array.map_from_array (fun (c : Pt.t) -> c.x) centers)
    (Float.Array.map_from_array (fun (c : Pt.t) -> c.y) centers)
    n;
  let skip = 0 in
  let dist id = Octagon.dist regions.(0) regions.(id) in
  let probe f =
    let priced = ref [] in
    let price id d =
      priced := id :: !priced;
      d +. extra.(id)
    in
    let partner, c = f price in
    (partner, c, List.rev !priced)
  in
  let full =
    probe (fun price ->
        let buf = Grid_index.knn_buffer () in
        Grid_index.query snap buf ~skip centers.(0) knn;
        let i, c = Dme.Order.cheapest buf.kids buf.klen ~dist ~price in
        ((if i < 0 then -1 else buf.kids.(i)), c))
  in
  let slot = ref (-1) in
  let widened =
    probe (fun price ->
        let props =
          Dme.Order.
            {
              partner = Array.make n (-2);
              cost = Float.Array.make n Float.nan;
              queries = Array.make n 0;
              cells = Array.make n 0;
              entries = Array.make n 0;
              priced = Array.make n (-1);
            }
        in
        Dme.Order.settle snap (Grid_index.knn_buffer ()) ~skip centers.(0) ~knn
          ~rad:rads.(0) ~rmax ~dist ~price props 0;
        slot := props.priced.(0);
        (props.partner.(0), Float.Array.get props.cost 0))
  in
  let _, _, priced = widened in
  if !slot <> List.length priced then
    failwith "settle: the priced slot disagrees with the price calls";
  (full, widened)

let prop_settle_matches_full_probe =
  let gen =
    QCheck.Gen.(
      let* n = 2 -- 40 in
      let* knn = oneofl [ 1; 2; 3; 5; 8; 16 ] in
      (* Half the centers on a unit lattice, so center and region
         distance ties are common. *)
      let point =
        let* snap = bool in
        if snap then
          map2 (fun x y -> Pt.make (float_of_int x) (float_of_int y)) (0 -- 6) (0 -- 6)
        else map2 Pt.make (float_range 0. 6.) (float_range 0. 6.)
      in
      let region =
        let* p = point in
        let* shape = 0 -- 3 in
        let* r = map (fun k -> float_of_int k *. 0.25) (0 -- 2) in
        return
          (match shape with
           | 0 -> Octagon.of_point p
           | 1 -> Octagon.ball p r
           | 2 -> Octagon.of_segment p (Pt.make (p.x +. r) (p.y +. r))
           | _ -> Octagon.inflate r (Octagon.box p (Pt.make (p.x +. r) p.y)))
      in
      let* regions = array_size (return n) region in
      (* One region inflated far beyond the sink spacing, so [rmax]
         keeps most probes from settling early. *)
      let* big = 1 -- (n - 1) in
      let* grow = float_range 2. 5. in
      let regions =
        if n > 2 then
          Array.mapi (fun i o -> if i = big then Octagon.inflate grow o else o) regions
        else regions
      in
      let* extra =
        array_size (return n)
          (oneof
             [
               return 0.;
               return 1e9;
               map (fun k -> float_of_int k *. 0.25) (0 -- 4);
               float_range 0. 2.;
             ])
      in
      return (regions, extra, knn))
  in
  let print (regions, extra, knn) =
    Printf.sprintf "knn=%d %s" knn
      (String.concat "; "
         (Array.to_list
            (Array.mapi
               (fun i o -> Format.asprintf "%d:%a+%g" i Octagon.pp o extra.(i))
               regions)))
  in
  QCheck.Test.make ~name:"settle = full-knn probe" ~count:500
    (QCheck.make ~print gen) (fun (regions, extra, knn) ->
      let full, widened = settle_vs_full regions extra ~knn in
      full = widened)

(* The 5th-nearest candidate (id 8) ties the best of the first four
   (id 9, penalised to cost 2) at region distance 2 with a lower id, and
   the 4th-nearest lies at distance 2 too: the bound after four
   candidates equals the best cost, so only a strict comparison widens
   and finds id 8.  At unit scale the rounding margin already keeps the
   probe widening; scaled into the subnormals every addition is exact
   and the margin underflows to 0, which leaves the strict comparison
   alone in charge. *)
let test_settle_widens_on_tie () =
  let check scale =
    let pt x y = Pt.make (x *. scale) (y *. scale) in
    let far = Octagon.of_point (pt 9. 9.) in
    let regions =
      Array.init 16 (fun id ->
          match id with
          | 0 -> Octagon.of_point (pt 0. 0.)
          | 9 -> Octagon.of_point (pt 1. 0.)
          | 5 -> Octagon.of_point (pt 0. 2.)
          | 6 -> Octagon.of_point (pt 2. 0.)
          | 7 -> Octagon.of_point (pt 1. 1.)
          | 8 -> Octagon.of_point (pt 0. (-2.))
          | _ -> far)
    in
    let extra = Array.make 16 0. in
    extra.(9) <- scale;
    extra.(5) <- scale;
    extra.(6) <- scale;
    extra.(7) <- scale;
    let (fp, fc, fpriced), widened =
      settle_vs_full ~cell:(scale *. 2.) regions extra ~knn:16
    in
    Alcotest.(check int) "full probe picks the lower-id tie" 8 fp;
    Alcotest.(check (float 0.)) "at cost 2" (2. *. scale) fc;
    Alcotest.(check (triple int (float 0.) (list int)))
      (Printf.sprintf "settle widens at scale %h" scale)
      (fp, fc, fpriced) widened
  in
  check 1.;
  check 0x1p-1074

(* --- Embed --------------------------------------------------------------- *)

let rec check_positions_consistent = function
  | Tree.Leaf _ -> ()
  | Tree.Node n ->
    let check len child =
      let d = Pt.dist n.pos (Tree.pos child) in
      Alcotest.(check bool) "edge covers distance" true (len +. 1e-4 >= d)
    in
    check n.llen n.left;
    check n.rlen n.right;
    check_positions_consistent n.left;
    check_positions_consistent n.right

let test_embed_valid_tree () =
  let inst = mk_instance 25 ~n_groups:2 ~bound:10. in
  let routed = Arena.to_routed (fst (Dme.Engine.run_arena inst)) in
  Alcotest.(check int) "sinks preserved" 25 (Tree.n_sinks routed.tree);
  check_positions_consistent routed.tree;
  Alcotest.(check bool) "source wire covers distance" true
    (routed.source_len +. 1e-4 >= Pt.dist routed.source (Tree.pos routed.tree))

(* Arena-direct embedding must be bit-identical — every column, every
   float — to the reference path (recursive embed, [Tree.route], then
   [Arena.of_routed]), for every generation regime and any jobs count.
   The oracle compares the two arenas field by field. *)
let prop_embed_arena_identity =
  let regimes = Check.Gen.all_regimes in
  let gen =
    QCheck.Gen.(
      let* seed = 1 -- 10_000 in
      let* index = 0 -- (Array.length regimes - 1) in
      return (seed, index))
  in
  QCheck.Test.make ~name:"arena embed = reference embed (all regimes)"
    ~count:27
    (QCheck.make
       ~print:(fun (seed, index) ->
         Printf.sprintf "seed=%d regime=%s" seed
           (Check.Gen.regime_to_string regimes.(index)))
       gen)
    (fun (seed, index) ->
      let case =
        Check.Gen.case ~regime:regimes.(index) ~seed:(Int64.of_int seed)
          ~index ()
      in
      Check.Oracle.identity ~jobs:[ 1; 2; 4 ] Check.Oracle.embed
        case.Check.Gen.instance
      = [])

(* The Banked regime (10^3—4*10^3 sinks in dense banks) rides the same
   identity through a benchmark-scale plan. *)
let test_embed_identity_banked () =
  let case = Check.Gen.case ~regime:Check.Gen.Banked ~seed:11L ~index:0 () in
  Alcotest.(check (list string))
    "banked embed identity" []
    (List.map
       (fun (f : Check.Oracle.finding) -> f.oracle)
       (Check.Oracle.identity ~jobs:[ 2 ] Check.Oracle.embed
          case.Check.Gen.instance))

(* A clustered plan forced two stitch levels deep, built as the
   clustered router builds one: up to four regions (ids re-densified per
   region), their roots stitched in two halves, then the two half roots
   stitched.  Three regions give a half of one, a stitch of a single
   sub-plan. *)
let depth2_plan (inst : Instance.t) =
  let plan leaves = fst (Dme.Engine.plan ~leaves inst) in
  let region ids =
    plan
      (Array.mapi (fun j gid -> { (Dme.Subtree.leaf inst.sinks.(gid)) with id = j }) ids)
  in
  let stitch roots =
    plan (Array.mapi (fun i (r : Dme.Subtree.t) -> { r with id = i }) roots)
  in
  let roots = Array.map region (Dme.Cluster.partition inst ~clusters:4) in
  let k = Array.length roots in
  let h = Int.max 1 (k / 2) in
  if k < 2 then stitch [| stitch roots |]
  else stitch [| stitch (Array.sub roots 0 h); stitch (Array.sub roots h (k - h)) |]

(* The store embed ([Embed.run_arena]) against the recursive reference
   over the same store, every arena column bit for bit, serially and on
   a 2-domain pool, for a case's MMM-DME plan and its forced depth-2
   clustered plan, over all nine regimes.  Flat AST-DME plans are the
   property above. *)
let prop_store_embed_matches_reference =
  let regimes = Check.Gen.all_regimes in
  QCheck.Test.make ~name:"store embed = run_reference (MMM, depth-2 stitched)"
    ~count:27
    (QCheck.make
       ~print:(fun (seed, index) ->
         Printf.sprintf "seed=%d regime=%s" seed
           (Check.Gen.regime_to_string regimes.(index)))
       QCheck.Gen.(pair (1 -- 10_000) (0 -- (Array.length regimes - 1))))
    (fun (seed, index) ->
      let inst =
        (Check.Gen.case ~regime:regimes.(index) ~seed:(Int64.of_int seed) ~index ())
          .Check.Gen.instance
      in
      let matches root =
        let reference =
          Check.Oracle.observe
            (Arena.of_routed inst.params ~rd:inst.rd (Dme.Embed.run_reference inst root))
        in
        List.for_all
          (fun jobs ->
            Par.Pool.with_pool ~jobs (fun pool ->
                Check.Oracle.diffs
                  (Check.Oracle.observe (Dme.Embed.run_arena ?pool inst root))
                  reference
                = []))
          [ 1; 2 ]
      in
      matches (fst (Dme.Mmm.plan ~config:Astskew.Router.ast_default_config inst))
      && matches (depth2_plan inst))

(* A 240k-node left-deep merge plan: the iterative arena embed must
   walk it in constant stack (the recursive reference embedder would
   need ~120k frames), and the iterative rebuild must survive too. *)
let test_embed_deep_comb_stack_safety () =
  let n = 120_000 in
  let sinks = Array.init n (fun i -> sink i (float_of_int i) 0. 0) in
  let inst = Instance.make ~bound:1e9 ~source:(pt 0. 0.) ~n_groups:1 sinks in
  let leaves = Array.map Dme.Subtree.leaf sinks in
  let store = Dme.Subtree.store leaves in
  let root = ref leaves.(0) in
  for i = 1 to n - 1 do
    let t = (merge inst ~id:(n + i - 1) !root leaves.(i)).subtree in
    Dme.Subtree.record store t ~left:!root.id ~right:i;
    root := t
  done;
  let a = Dme.Embed.run_arena inst (Dme.Subtree.stored store !root) in
  Alcotest.(check int) "node count" ((2 * n) - 1) a.Arena.n;
  Alcotest.(check int) "sink count" n a.Arena.n_sinks;
  let routed = Arena.to_routed a in
  Alcotest.(check int) "sinks preserved" n (Tree.n_sinks routed.tree)

(* --- Engine end-to-end --------------------------------------------------- *)

let test_engine_zero_skew () =
  let inst = mk_instance 30 ~n_groups:1 ~bound:0. in
  let a, stats = Dme.Engine.run_arena inst in
  ignore (Repair.run_arena inst a);
  let report = Evaluate.report_of_arena inst a in
  Alcotest.(check bool) "zero skew achieved" true (report.global_skew <= 1e-4);
  Alcotest.(check int) "all merges same-group" 29 stats.same_group

let test_engine_stats_add_up () =
  let inst = mk_instance 40 ~n_groups:4 ~bound:10. in
  let _, stats = Dme.Engine.run_arena inst in
  Alcotest.(check int) "n-1 merges total" 39
    (stats.same_group + stats.cross_group + stats.shared_one + stats.shared_multi);
  Alcotest.(check bool) "cross merges happened" true (stats.cross_group > 0)

(* --- Engine identities and pins ------------------------------------------ *)

let circuit name =
  Workload.Circuits.instance
    (Option.get (Workload.Circuits.find name))
    ~n_groups:6 ~scheme:Workload.Partition.Intermingled ~bound:10. ()

let check_oracle name = function
  | [] -> ()
  | findings ->
    Alcotest.failf "%s:@ %a" name
      (Format.pp_print_list Check.Oracle.pp_finding)
      findings

let test_parallel_bit_identical () =
  (* Parallel cost ranking must be a pure speedup.  r1 and r2 are below
     the engine's parallel grain, so the router would plan them serially
     at any jobs; the par-identity oracle plans and embeds them on 2- and
     4-domain pools of its own and requires every arena column and the
     engine stats (gc zeroed, trial counters included) to equal the
     serial plan's. *)
  List.iter
    (fun name ->
      check_oracle name
        (Check.Oracle.identity ~jobs:[ 2; 4 ] Check.Oracle.par (circuit name)))
    [ "r1"; "r2" ]

(* The engine opens its pool only above the region grain (more than 1000
   sinks).  With a recorder at jobs 2: routing r1 (267 sinks) books no
   ranking ledger, routing a 1004-sink fuzz case books one, and the
   par-identity row books one even on a 24-sink fuzz case — so its
   explicit pool really runs multi-domain ranking below the grain (the
   row reports "ranked on no pool" otherwise). *)
let test_parallel_gate () =
  let rank_ledgers sched =
    match Obs.Sched.report sched with
    | None -> 0
    | Some rep ->
      List.fold_left
        (fun n (p : Obs.Sched.phase_report) ->
          List.fold_left
            (fun n (l : Obs.Sched.label_report) ->
              if l.label = "engine.rank" then n + l.ledgers else n)
            n p.labels)
        0 rep.phases
  in
  let routed inst =
    let sched = Obs.Sched.create () in
    let run = { Obs.Run.null with sched } in
    ignore (Check.Oracle.ast ~jobs:2 ~run inst);
    rank_ledgers sched
  in
  Alcotest.(check int) "r1 at jobs 2 plans serially" 0 (routed (circuit "r1"));
  let above = Check.Gen.case ~regime:Check.Gen.Huge ~seed:8L ~index:0 () in
  Alcotest.(check int) "fuzz case just above the grain" 1004
    (Instance.n_sinks above.instance);
  Alcotest.(check bool) "1004 sinks at jobs 2 rank on the pool" true
    (routed above.instance > 0);
  let case = Check.Gen.case ~seed:1L ~index:0 () in
  Alcotest.(check bool) "a small case" true (Instance.n_sinks case.instance < 100);
  check_oracle "par-identity ranks on the pool"
    (Check.Oracle.identity ~jobs:[ 2 ] Check.Oracle.par case.instance)

let test_pooled_ranking_bit_identical () =
  (* Pooled probing must not move a tree: planned and embedded serially
     and on a 4-domain pool (r1 and r2 are below the engine's parallel
     grain, so the oracle brings its own pool), every arena column and
     every engine counter must equal the serial run's. *)
  List.iter
    (fun name ->
      check_oracle name
        (Check.Oracle.identity ~jobs:[ 4 ] Check.Oracle.par (circuit name)))
    [ "r1"; "r2" ]

(* Golden pin: bit-exact AST-DME wirelengths on r1-r5, intermingled, 8
   groups, serial ranking.  Any change to the merge order — a reordered
   grid tie, a snapshot cell that changed a k-NN answer — moves at least
   one of these.  The ranking counters ride along with the wirelengths:
   every round probes every active subtree, so [nn_reprobes] is the
   active count summed over [rounds], and [nn_probes_saved] stays 0.
   [nn_queries] counts the probes' k-NN queries, widenings included: a
   lost settle bound reads 3 per probe, a settle that never widens 1.
   Ranking prices every candidate without a trial merge, so
   [elided_trials] is the priced-candidate count. *)
let test_golden_wirelengths () =
  List.iter
    (fun (name, expect, reprobes, queries, saved, rounds, elided) ->
      let spec = Option.get (Workload.Circuits.find name) in
      let inst =
        Workload.Circuits.instance spec ~n_groups:8
          ~scheme:Workload.Partition.Intermingled ~bound:10. ()
      in
      let r = Check.Oracle.ast ~jobs:1 inst in
      Alcotest.(check string) (name ^ " wirelength") expect
        (Printf.sprintf "%h" r.evaluation.wirelength);
      Alcotest.(check int) (name ^ " nn_reprobes") reprobes r.engine.nn_reprobes;
      Alcotest.(check int) (name ^ " nn_queries") queries r.engine.nn_queries;
      Alcotest.(check int) (name ^ " nn_probes_saved") saved r.engine.nn_probes_saved;
      Alcotest.(check int) (name ^ " rounds") rounds r.engine.rounds;
      Alcotest.(check int) (name ^ " trial_merges") 0 r.engine.trial.trial_merges;
      Alcotest.(check int) (name ^ " elided_trials") elided
        r.engine.trial.elided_trials)
    [
      ("r1", "0x1.cd929d3d14732p+19", 1083, 1146, 0, 19, 1230);
      ("r2", "0x1.ea747375c23e7p+20", 2413, 2636, 0, 22, 2770);
      ("r3", "0x1.3180cdaf06bf4p+21", 3473, 3799, 0, 23, 3941);
      ("r4", "0x1.2fd864ed8f4dep+22", 7636, 8515, 0, 26, 8700);
      ("r5", "0x1.c8a977fe4209ap+22", 12436, 13932, 0, 28, 14189);
    ]

(* Plan retention: what stays reachable from a planned root until it is
   embedded.  The root's plan store keeps, per merge, its children's
   ids, sink count, edge-length rule and region bounds in flat columns,
   and per leaf a pointer to its sink, never a delay window, cap or
   record, so the plan of r5 (intermingled, 8 groups) holds about 15
   words per sink beyond the instance's own sink records.  A tree of
   plan nodes held 27.8, and one that pointed at its children's whole
   subtrees 80.7. *)
let test_plan_retention () =
  let spec = Option.get (Workload.Circuits.find "r5") in
  let inst =
    Workload.Circuits.instance spec ~n_groups:8
      ~scheme:Workload.Partition.Intermingled ~bound:10. ()
  in
  let root, _ =
    Dme.Engine.plan ~config:{ Astskew.Router.ast_default_config with jobs = 1 } inst
  in
  let reachable x = Obj.reachable_words (Obj.repr x) in
  (* The pair's own block is 3 words. *)
  let words = reachable (root, inst.sinks) - reachable inst.sinks - 3 in
  let per_sink = float_of_int words /. float_of_int (Instance.n_sinks inst) in
  if per_sink > 18. then
    Alcotest.failf "the r5 plan retains %.1f words per sink, over 18" per_sink

(* [Order.select_pairs] replaced a list pipeline: sort the proposals by
   (i, j, cost), keep the first of each (i, j) run, sort by (cost, i, j)
   and take a disjoint prefix through a hashtable.  That pipeline lives
   here as the reference; the arrays must pick the same pairs, costs
   bit for bit. *)
let reference_select ~ids ~partner ~cost ~limit =
  let pairs = ref [] in
  Array.iter
    (fun i ->
      let j = partner.(i) in
      if j >= 0 then
        pairs := (Float.Array.get cost i, Int.min i j, Int.max i j) :: !pairs)
    ids;
  let rec dedupe acc = function
    | ((_, i1, j1) as p) :: (_, i2, j2) :: rest when i1 = i2 && j1 = j2 ->
      dedupe acc (p :: rest)
    | p :: rest -> dedupe (p :: acc) rest
    | [] -> List.rev acc
  in
  let pairs =
    List.sort
      (fun (c1, i1, j1) (c2, i2, j2) ->
        match Int.compare i1 i2 with
        | 0 -> (match Int.compare j1 j2 with 0 -> Float.compare c1 c2 | c -> c)
        | c -> c)
      !pairs
    |> dedupe []
    |> List.sort (fun (c1, i1, j1) (c2, i2, j2) ->
           match Float.compare c1 c2 with
           | 0 -> (match Int.compare i1 i2 with 0 -> Int.compare j1 j2 | c -> c)
           | c -> c)
  in
  let used = Hashtbl.create 64 and selected = ref [] and taken = ref 0 in
  List.iter
    (fun (c, i, j) ->
      if !taken < limit && (not (Hashtbl.mem used i)) && not (Hashtbl.mem used j)
      then begin
        Hashtbl.replace used i ();
        Hashtbl.replace used j ();
        selected := (c, i, j) :: !selected;
        incr taken
      end)
    pairs;
  (List.length pairs, List.rev !selected)

let same_selection (r1, s1) (r2, s2) =
  r1 = r2
  && List.equal
       (fun (c1, i1, j1) (c2, i2, j2) ->
         Int64.equal (Int64.bits_of_float c1) (Int64.bits_of_float c2)
         && i1 = i2 && j1 = j2)
       s1 s2

let select ~ids ~partner ~cost ~limit =
  let used = Bytes.make (Array.length partner) '\000' in
  let ranked, picks = Dme.Order.select_pairs ~ids ~partner ~cost ~used ~limit in
  (ranked, Array.to_list picks)

(* Proposal sets over a sparse ascending id set, like a late round's
   survivors.  Costs come from a small lattice with both zeros, so equal
   costs, mutual proposals at unequal costs and exact ties all occur. *)
let gen_proposals =
  QCheck.Gen.(
    let* n = int_range 0 40 in
    let* gaps = list_repeat n (int_range 1 3) in
    let ids =
      List.fold_left (fun (id, acc) g -> (id + g, id :: acc)) (0, []) gaps
      |> snd |> List.rev |> Array.of_list
    in
    let cap = if n = 0 then 1 else ids.(n - 1) + 1 in
    let partner = Array.make cap (-1) and cost = Float.Array.make cap Float.nan in
    let* picks =
      list_repeat n
        (pair (int_range (-1) (n - 1)) (oneofl [ -0.; 0.; 0.5; 1.; 1.5; 2. ]))
    in
    List.iteri
      (fun k (p, c) ->
        if p >= 0 && p <> k then begin
          partner.(ids.(k)) <- ids.(p);
          Float.Array.set cost ids.(k) c
        end)
      picks;
    let* limit = oneof [ return 1; int_range 1 (Int.max 1 n) ] in
    return (ids, partner, cost, limit))

let prop_select_pairs_matches_lists =
  QCheck.Test.make ~name:"select_pairs = list pipeline" ~count:1000
    (QCheck.make gen_proposals) (fun (ids, partner, cost, limit) ->
      same_selection
        (select ~ids ~partner ~cost ~limit)
        (reference_select ~ids ~partner ~cost ~limit))

let test_select_pairs_cases () =
  let ids = [| 0; 1; 2; 3; 5 |] in
  let partner = [| 1; 0; 3; 2; -1; 2 |] in
  let cost = Float.Array.of_list [ 3.; 2.; 1.; 1.; nan; 0.5 ] in
  let check name limit expected =
    let ranked, picks = select ~ids ~partner ~cost ~limit in
    Alcotest.(check int) (name ^ ": ranked") 3 ranked;
    Alcotest.(check (list (triple (float 0.) int int))) name expected picks
  in
  (* (0, 1) is mutual at 3 and 2: ranked once, at 2.  (2, 3) is mutual at
     an exact tie.  5 proposes 2, which 2 does not reciprocate. *)
  check "multi-merge" 10 [ (0.5, 2, 5); (2., 0, 1) ];
  check "limit 1" 1 [ (0.5, 2, 5) ];
  (* A mutual tie keeps the higher id's cost, which differs only in the
     sign of a zero. *)
  let cost = Float.Array.of_list [ 0.; -0. ] in
  let _, picks = select ~ids:[| 0; 1 |] ~partner:[| 1; 0 |] ~cost ~limit:1 in
  Alcotest.(check bool) "tie keeps the higher id's zero" true
    (match picks with [ (c, 0, 1) ] -> Float.sign_bit c | _ -> false)

let test_select_pairs_large () =
  (* 10^5 proposals in mutual couples at unequal costs: no recursion
     deep enough to overflow the stack, and the list reference agrees. *)
  let n = 100_000 in
  let ids = Array.init n Fun.id in
  let partner = Array.init n (fun i -> if i mod 2 = 0 then i + 1 else i - 1) in
  let cost = Float.Array.init n (fun i -> float_of_int (i mod 7)) in
  let got = select ~ids ~partner ~cost ~limit:(n / 4) in
  Alcotest.(check bool) "matches the list pipeline" true
    (same_selection got (reference_select ~ids ~partner ~cost ~limit:(n / 4)));
  Alcotest.(check int) "one ranked pair per reciprocated couple" (n / 2) (fst got)

let prop_engine_respects_bound =
  let gen =
    QCheck.Gen.(
      let* n = int_range 2 40 in
      let* n_groups = int_range 1 5 in
      let* bound = oneofl [ 0.; 10.; 50. ] in
      let* per_group = QCheck.Gen.bool in
      let* seed = int_range 0 10000 in
      return (n, n_groups, bound, per_group, seed))
  in
  QCheck.Test.make ~name:"engine+repair respects intra-group bound" ~count:120
    (QCheck.make ~print:(fun (n, g, b, pg, s) ->
         Printf.sprintf "n=%d groups=%d bound=%g per_group=%b seed=%d" n g b pg s)
       gen)
    (fun (n, n_groups, bound, per_group, seed) ->
      let rng = Workload.Rng.create (Int64.of_int seed) in
      let sinks =
        List.init n (fun i ->
            Sink.make ~id:i
              ~loc:(pt (Workload.Rng.float_range rng 0. 30000.)
                      (Workload.Rng.float_range rng 0. 30000.))
              ~cap:(Workload.Rng.float_range rng 5. 100.)
              ~group:(Workload.Rng.int rng n_groups))
      in
      let n_groups =
        1 + List.fold_left (fun m (s : Sink.t) -> Int.max m s.group) 0 sinks
      in
      let group_bounds =
        if per_group then
          Some (Array.init n_groups (fun _ -> Workload.Rng.float_range rng 0. 30.))
        else None
      in
      let inst =
        Instance.make ~bound ?group_bounds ~source:(pt 0. 0.) ~n_groups
          (Array.of_list sinks)
      in
      let a, _ = Dme.Engine.run_arena inst in
      let rstats = Repair.run_arena inst a in
      let report = Evaluate.report_of_arena inst a in
      rstats.unresolved_groups = 0 && Evaluate.within_bound inst report)

(* Candidate pairs for the merge-cost properties, from Check.Gen cases
   of every regime: a case's sinks are shuffled into four chunks, each
   chunk is merged left to right into one subtree, and the chunk roots
   plus up to six leaves are returned with the instance and the merge
   function that built them. *)
let gen_case =
  let regimes = Check.Gen.all_regimes in
  QCheck.make
    ~print:(fun (seed, index) ->
      Printf.sprintf "seed=%d regime=%s" seed
        (Check.Gen.regime_to_string regimes.(index)))
    QCheck.Gen.(
      let* seed = 1 -- 10_000 in
      let* index = 0 -- (Array.length regimes - 1) in
      return (seed, index))

let case_subtrees (seed, index) =
  let inst =
    (Check.Gen.case ~regime:Check.Gen.all_regimes.(index)
       ~seed:(Int64.of_int seed) ~index ())
      .Check.Gen.instance
  in
  let rng = Workload.Rng.create (Int64.of_int seed) in
  let n = Instance.n_sinks inst in
  let order = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Workload.Rng.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let leaf i = Dme.Subtree.leaf inst.sinks.(order.(i)) in
  let next_id = ref n in
  let run ~slack_usage a b =
    Dme.Merge.run inst ~slack_usage ~split_slack:0.25 ~width_cap:0.7
      ~id:!next_id a b
  in
  let chunks = Int.min 4 n in
  let roots =
    List.init chunks (fun c ->
        let lo = c * n / chunks and hi = ((c + 1) * n / chunks) - 1 in
        let acc = ref (leaf lo) in
        for i = lo + 1 to hi do
          incr next_id;
          acc := (run ~slack_usage:0.3 !acc (leaf i)).subtree
        done;
        !acc)
  in
  (inst, run, roots @ List.init (Int.min n 6) leaf)

(* [Merge.committed_feasible] is [(Merge.run ...).feasible] without
   building the merge, on every pair of a case's subtrees under three
   slack usages. *)
let prop_committed_feasible_matches_run =
  QCheck.Test.make ~name:"committed_feasible = Merge.run feasibility" ~count:60
    gen_case (fun case ->
      let inst, run, subtrees = case_subtrees case in
      List.for_all
        (fun slack_usage ->
          List.for_all
            (fun (a : Dme.Subtree.t) ->
              List.for_all
                (fun (b : Dme.Subtree.t) ->
                  a == b
                  ||
                  let dist = Octagon.dist a.region b.region in
                  Dme.Merge.committed_feasible inst ~slack_usage ~dist a b
                  = (run ~slack_usage a b).feasible)
                subtrees)
            subtrees)
        [ 0.; 0.3; 1. ])

(* [Merge.run] against [Merge.run_reference], bit for bit in every field
   of the result: kind, feasibility, planned wire, snake, and the merged
   subtree's id, sink count, capacitance, region bounds, delay windows
   and its plan: the same edge-length rule, the same wire lengths. *)
let bits = Int64.bits_of_float

let same_merge (r : Dme.Merge.result) (q : Dme.Merge.result) =
  let same_floats a b =
    Float.Array.length a = Float.Array.length b
    && List.for_all
         (fun i -> bits (Float.Array.get a i) = bits (Float.Array.get b i))
         (List.init (Float.Array.length a) Fun.id)
  in
  let same_region a b =
    match (Octagon.bounds a, Octagon.bounds b) with
    | None, None -> true
    | Some a, Some b ->
      List.for_all2
        (fun x y -> bits x = bits y)
        [ a.xl; a.xh; a.yl; a.yh; a.sl; a.sh; a.dl; a.dh ]
        [ b.xl; b.xh; b.yl; b.yh; b.sl; b.sh; b.dl; b.dh ]
    | _ -> false
  in
  let t = r.subtree and u = q.subtree in
  r.kind = q.kind && r.feasible = q.feasible
  && bits r.planned_wire = bits q.planned_wire
  && bits r.snake = bits q.snake && t.id = u.id && t.n_sinks = u.n_sinks
  && bits t.cap = bits u.cap && same_region t.region u.region
  && t.delay.gid = u.delay.gid
  && same_floats t.delay.lo u.delay.lo
  && same_floats t.delay.hi u.delay.hi
  &&
  match (t.plan, u.plan) with
  | Committed c, Committed d -> bits c.ea = bits d.ea && bits c.eb = bits d.eb
  | Split c, Split d ->
    bits c.total = bits d.total
    && bits c.split_lo = bits d.split_lo
    && bits c.split_hi = bits d.split_hi
  | _ -> false

let merge_matches_reference inst a b =
  List.for_all
    (fun slack_usage ->
      let r =
        Dme.Merge.run inst ~slack_usage ~split_slack:0.25 ~width_cap:0.7 ~id:77 a b
      in
      same_merge r
        (Dme.Merge.run_reference inst ~slack_usage ~split_slack:0.25 ~width_cap:0.7
           ~id:77 a b))
    [ 0.; 0.3; 1. ]

(* Every ordered pair of a case's subtrees, every regime, a subtree
   paired with itself (zero distance, every group shared) included. *)
let prop_merge_matches_reference =
  QCheck.Test.make ~name:"Merge.run = run_reference, bit for bit" ~count:60 gen_case
    (fun case ->
      let inst, _, subtrees = case_subtrees case in
      List.for_all
        (fun a -> List.for_all (fun b -> merge_matches_reference inst a b) subtrees)
        subtrees)

(* Pairs no routed case is sure to hold: subtrees sharing two to four
   groups whose windows sit at random offsets under a zero or small
   bound — so plans are often infeasible or snake — placed on a small
   lattice, so coincident (zero-distance) pairs are common. *)
let prop_merge_matches_reference_shared_multi =
  let window =
    QCheck.Gen.(
      let* lo = oneofl [ 0.; 5.; 40.; 200. ] and* w = oneofl [ 0.; 1.; 10. ] in
      return (lo, lo +. w))
  in
  let subtree =
    QCheck.Gen.(
      let* x = 0 -- 2 and* y = 0 -- 2 and* cap = oneofl [ 0.; 20.; 300. ] in
      let* groups = 2 -- 4 in
      let* ws = list_repeat groups window in
      return (float_of_int (x * 50), float_of_int (y * 50), cap, ws))
  in
  QCheck.Test.make ~name:"Merge.run = run_reference on shared-multi pairs" ~count:500
    (QCheck.make
       ~print:(fun ((bound, _), _, _) -> Printf.sprintf "bound %g" bound)
       QCheck.Gen.(
         triple (pair (oneofl [ 0.; 1.; 30. ]) bool) subtree subtree))
    (fun ((bound, per_group), sa, sb) ->
      let group_bounds = if per_group then Some [| bound; 0.; 2. *. bound; 5. |] else None in
      let inst =
        Instance.make ~bound ?group_bounds ~source:(pt 0. 0.) ~n_groups:4
          [| sink 0 0. 0. 0; sink 1 50. 50. 1; sink 2 100. 0. 2; sink 3 0. 100. 3 |]
      in
      let make id (x, y, cap, ws) =
        let ws = Array.of_list ws in
        Dme.Subtree.
          {
            id;
            region = Octagon.of_point (pt x y);
            cap;
            delay =
              {
                gid = Array.init (Array.length ws) Fun.id;
                lo = Float.Array.map_from_array fst ws;
                hi = Float.Array.map_from_array snd ws;
              };
            n_sinks = 1;
            plan = Sink inst.sinks.(id);
          }
      in
      merge_matches_reference inst (make 0 sa) (make 1 sb))

(* The cost contract of Order.run_ranked that the probe's prune rests
   on: the engine's cost is never below the region distance the ranking
   loop hands it ([Octslab.dist]). *)
let prop_engine_cost_at_least_dist =
  QCheck.Test.make ~name:"engine costs >= Octslab.dist" ~count:40 gen_case
    (fun case ->
      let inst, _, subtrees = case_subtrees case in
      let cost = Dme.Engine.cost inst in
      let slab = Geometry.Octslab.create 2 in
      List.for_all
        (fun (a : Dme.Subtree.t) ->
          List.for_all
            (fun (b : Dme.Subtree.t) ->
              a == b
              ||
              (Geometry.Octslab.set slab 0 a.region;
               Geometry.Octslab.set slab 1 b.region;
               let dist = Geometry.Octslab.dist slab 0 1 in
               cost ~dist a b >= dist))
            subtrees)
        subtrees)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "dme"
    [
      ( "subtree",
        [
          Alcotest.test_case "leaf" `Quick test_subtree_leaf;
          Alcotest.test_case "shared groups" `Quick test_subtree_shared_groups;
        ]
        @ qsuite [ prop_windows_match_map ] );
      ( "merge",
        [
          Alcotest.test_case "same group zero skew" `Quick
            test_merge_same_group_zero_skew;
          Alcotest.test_case "same group snaking" `Quick
            test_merge_same_group_snaking;
          Alcotest.test_case "cross group" `Quick test_merge_cross_group;
          Alcotest.test_case "cross group intervals" `Quick
            test_merge_cross_group_interval_soundness;
          Alcotest.test_case "shared one" `Quick test_merge_shared_one;
          Alcotest.test_case "shared multi" `Quick test_merge_shared_multi;
        ]
        @ qsuite
            [
              prop_committed_feasible_matches_run;
              prop_merge_matches_reference;
              prop_merge_matches_reference_shared_multi;
            ] );
      ( "order",
        [
          Alcotest.test_case "reduces to one" `Quick test_order_reduces_to_one;
          Alcotest.test_case "two-sink endgame" `Quick test_order_two_sink_endgame;
          Alcotest.test_case "three-sink endgame" `Quick
            test_order_three_sink_endgame;
          Alcotest.test_case "knn=0 clamped" `Quick test_order_knn_zero_clamped;
          Alcotest.test_case "NaN cost raises" `Quick test_order_nan_cost_raises;
          Alcotest.test_case "select_pairs cases" `Quick test_select_pairs_cases;
          Alcotest.test_case "select_pairs large (stack safety)" `Quick
            test_select_pairs_large;
          Alcotest.test_case "empty leaves rejected" `Quick
            test_engine_empty_leaves;
          Alcotest.test_case "settle widens on a tie at the bound" `Quick
            test_settle_widens_on_tie;
        ]
        @ qsuite
            [
              prop_cheapest_matches_exhaustive;
              prop_settle_matches_full_probe;
              prop_select_pairs_matches_lists;
            ] );
      ( "embed",
        [
          Alcotest.test_case "valid tree" `Quick test_embed_valid_tree;
          Alcotest.test_case "deep comb stack safety" `Quick
            test_embed_deep_comb_stack_safety;
          Alcotest.test_case "banked identity" `Slow test_embed_identity_banked;
        ]
        @ qsuite [ prop_embed_arena_identity; prop_store_embed_matches_reference ] );
      ( "engine",
        [
          Alcotest.test_case "zero skew" `Quick test_engine_zero_skew;
          Alcotest.test_case "stats add up" `Quick test_engine_stats_add_up;
          Alcotest.test_case "pooled ranking bit-identical" `Slow
            test_pooled_ranking_bit_identical;
          Alcotest.test_case "parallel ranking bit-identical" `Slow
            test_parallel_bit_identical;
          Alcotest.test_case "parallel gate follows the region grain" `Slow
            test_parallel_gate;
          Alcotest.test_case "golden wirelengths r1-r5" `Slow test_golden_wirelengths;
          Alcotest.test_case "plan retains at most 18 words per sink" `Slow
            test_plan_retention;
        ]
        @ qsuite
            [
              prop_engine_respects_bound;
              prop_engine_cost_at_least_dist;
            ] );
    ]
