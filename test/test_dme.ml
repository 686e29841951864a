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

(* A run whose two leaves, ids 0 and 1, carry [a]'s and [b]'s state: a
   merged subtree enters it as a sink leaf. *)
let pair (inst : Instance.t) (a : Dme.Subtree.t) (b : Dme.Subtree.t) =
  let as_leaf (t : Dme.Subtree.t) =
    match t.plan with Sink _ -> t | _ -> { t with plan = Sink inst.sinks.(0) }
  in
  Dme.Subtree.cols (Subtrees [| as_leaf a; as_leaf b |])

(* [Merge.run] of [a] and [b] in their [pair] run, read back as the
   reference's result: the merged subtree as a view (under [id], where
   the run calls it 2) and the merge's outcome. *)
let merge inst ?(id = 1000) a b =
  let c = pair inst a b in
  let m = Dme.Subtree.reserve c 0 1 in
  Dme.Merge.run inst ~split_slack:0.25 ~width_cap:0.7 c ~id:m 0 1;
  Dme.Merge.
    {
      subtree = { (Dme.Subtree.view c m) with id };
      kind = kind_at c m;
      planned_wire = planned_wire c m;
      snake = Float.Array.get c.snakes m;
      feasible = feasible_at c m;
    }

let rec n_leaves = function Tree.Leaf _ -> 1 | Node n -> n_leaves n.left + n_leaves n.right

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
  check_float "full slack" 10.
    (Dme.Subtree.min_slack_by ~bound_of:(fun _ -> 10.) t)

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
   bookkeeping they replaced: [Map.map (shift w)] on each side and a
   [Map.union] taking the hull of shared groups, and the folds run in
   ascending group order.  The [IntMap] reference lives here. *)
module IntMap = Map.Make (Int)

let hull (a : Interval.t) (b : Interval.t) =
  Interval.make (Float.min a.lo b.lo) (Float.max a.hi b.hi)

let shift c (i : Interval.t) = Interval.make (i.lo +. c) (i.hi +. c)

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
          (fun _ ia ib -> Some (hull ia ib))
          (IntMap.map (shift wa) a)
          (IntMap.map (shift wb) b)
      in
      let got =
        Dme.Subtree.union_shifted ~wa (windows_of_map a) ~wb (windows_of_map b)
      in
      let t = with_windows a in
      let hull =
        IntMap.fold (fun _ iv acc -> hull acc iv) a
          (Interval.make Float.infinity Float.neg_infinity)
      in
      let bound_of g = bound +. float_of_int g in
      let got_hull = Dme.Subtree.delay_hull t in
      same_windows got (windows_of_map expect)
      && bits got_hull.lo = bits hull.lo
      && bits got_hull.hi = bits hull.hi
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

(* The engine's ranking loop, run serially. *)
let serial = { Dme.Engine.default with jobs = 1 }

let test_order_reduces_to_one () =
  let inst = mk_instance 33 ~n_groups:3 ~bound:10. in
  let root, stats = Dme.Engine.plan ~config:serial inst in
  Alcotest.(check int) "all sinks" 33 root.n_sinks;
  Alcotest.(check bool) "several rounds" true (stats.rounds >= 2);
  (* single-pair mode produces one merge per round *)
  let config = { serial with multi_merge = false } in
  let root1, stats1 = Dme.Engine.plan ~config inst in
  Alcotest.(check int) "all sinks single" 33 root1.n_sinks;
  Alcotest.(check int) "n-1 rounds" 32 stats1.rounds

(* Endgame audit: the smallest instances exercise the final 2- and
   3-subtree rounds of the nearest-neighbour loop, where a grid query
   returning [] (or a knn misconfiguration) used to stall the order. *)
let test_order_two_sink_endgame () =
  let inst = instance ~bound:10. ~n_groups:2 [ sink 0 0. 0. 0; sink 1 700. 300. 1 ] in
  let root, stats = Dme.Engine.plan ~config:serial inst in
  Alcotest.(check int) "both sinks merged" 2 root.n_sinks;
  Alcotest.(check int) "one round" 1 stats.Dme.Engine.rounds

let test_order_three_sink_endgame () =
  let inst =
    instance ~bound:10. ~n_groups:3
      [ sink 0 0. 0. 0; sink 1 900. 0. 1; sink 2 0. 900. 2 ]
  in
  let root, _ = Dme.Engine.plan ~config:serial inst in
  Alcotest.(check int) "all three sinks merged" 3 root.n_sinks

let test_order_knn_zero_clamped () =
  (* knn = 0 used to make every query return [] and loop forever; it is
     now clamped to 1. *)
  let inst = mk_instance 12 ~n_groups:2 ~bound:10. in
  let root, _ = Dme.Engine.plan ~config:{ serial with knn = 0 } inst in
  Alcotest.(check int) "all sinks merged" 12 root.n_sinks

(* A NaN cost used to win the probe's argmin and be replaced by every
   later candidate, so the probe silently ended on its last one; it is
   an error now. *)
let test_order_nan_cost_raises () =
  match
    Dme.Order.cheapest [| 3; 5 |] 2 ~dist:(fun _ -> 1.) ~price:(fun _ _ -> Float.nan)
  with
  | _ -> Alcotest.fail "a NaN cost was ranked"
  | exception Invalid_argument _ -> ()

(* An empty population used to reach the ranking loop's degenerate
   fallback and index [node.(-1)]; the run's columns reject it. *)
let test_engine_empty_leaves () =
  let inst = mk_instance 4 ~n_groups:1 ~bound:10. in
  Alcotest.check_raises "named rejection" (Invalid_argument "Subtree.cols: no leaves")
    (fun () -> ignore (Dme.Engine.plan ~leaves:(Sinks [||]) inst))

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

(* [Engine.probe] against its specification: one k-NN query for the
   [knn] nearest candidates, then [Order.cheapest] over them.  A
   population of leaf subtrees — regions of varied radius, delay windows
   that make some pairs infeasible — is loaded into a run, packed at its
   centers in ascending id order as a merge round packs it, and probed
   from one subtree; the partner and the bits of its cost must agree. *)
module Grid_index = Geometry.Grid_index
module Octslab = Geometry.Octslab

(* Two kinds of leaf: windows [0, 0] on groups 0 and 1, or [0, 0] and
   [50, 50].  Leaves of one kind merge feasibly, leaves of different
   kinds cannot meet a 10 ps bound on both groups, so their cost carries
   the infeasibility penalty. *)
let probe_windows infeasible =
  Dme.Subtree.
    {
      gid = [| 0; 1 |];
      lo = Float.Array.of_list [ 0.; (if infeasible then 50. else 0.) ];
      hi = Float.Array.of_list [ 0.; (if infeasible then 50. else 0.) ];
    }

(* The fused probe and the capped k-NN argmin of leaf [sid] over
   [regions], leaf [i] of the second kind when [kinds.(i)]; each returns
   (partner, cost bits), the fused one also its grid passes and the
   entries it scanned. *)
let fused_vs_capped ?(cell = 1.) regions kinds ~knn ~sid =
  let n = Array.length regions in
  let inst =
    instance ~bound:10. ~n_groups:2 [ sink 0 (-10.) (-10.) 0; sink 1 10. 10. 1 ]
  in
  let leaves =
    Array.mapi
      (fun id o ->
        Dme.Subtree.
          {
            id;
            region = o;
            cap = 20.;
            delay = probe_windows kinds.(id);
            n_sinks = 1;
            plan = Sink inst.sinks.(0);
          })
      regions
  in
  let c = Dme.Subtree.cols (Subtrees leaves) in
  let cx = Float.Array.make n 0. and cy = Float.Array.make n 0. in
  let rad = Float.Array.make n 0. in
  for id = 0 to n - 1 do
    Octslab.center c.regions id cx cy;
    Float.Array.set rad id (Octslab.radius c.regions id cx cy)
  done;
  let rmax = Float.Array.fold_left Float.max 0. rad in
  let snap = Grid_index.snapshot () in
  Grid_index.pack snap ~cell (Array.init n Fun.id) cx cy n;
  let buf = Grid_index.knn_buffer () in
  Grid_index.query snap buf ~skip:sid cx cy sid knn;
  let i, cost =
    Dme.Order.cheapest buf.kids buf.klen
      ~dist:(fun t -> Octslab.dist c.regions sid t)
      ~price:(fun t d -> Dme.Engine.cost inst c ~dist:d sid t)
  in
  let capped = ((if i < 0 then -1 else buf.kids.(i)), Int64.bits_of_float cost) in
  let props =
    Dme.Order.
      {
        partner = Array.make n (-2);
        cost = Float.Array.make n Float.nan;
        queries = Array.make n 0;
        cells = Array.make n 0;
        entries = Array.make n 0;
        priced = Array.make n 0;
      }
  in
  Dme.Engine.probe inst c snap ~cx ~cy ~rad ~rmax ~knn props sid;
  let fused =
    (props.partner.(sid), Int64.bits_of_float (Float.Array.get props.cost sid))
  in
  (capped, fused, props.queries.(sid), props.entries.(sid))

(* Random populations: centers on a unit lattice (coincident and tied
   often), on a decimal lattice (whose sums round) or loose; regions that
   are points, L1 balls, segments or inflated segments; sometimes one
   region inflated far beyond the spacing, which keeps the stop rule from
   firing; sometimes a stack of point leaves on [sid]'s own lattice
   point, whose zero-cost exit leaves entries that may rank before a
   later best; leaves of the infeasible kind at a drawn rate; [knn] in
   {1, 2, 4, 16}; cells from a fraction of the spacing to all of it. *)
let probe_case_gen =
  QCheck.Gen.(
    let* n = 2 -- 40 in
    let* knn = oneofl [ 1; 2; 4; 16 ] in
    let* cell = oneofl [ 0.5; 1.; 2.5; 20. ] in
    let point =
      let* mode = 0 -- 2 in
      match mode with
      | 0 -> map2 (fun x y -> Pt.make (float_of_int x) (float_of_int y)) (0 -- 6) (0 -- 6)
      | 1 ->
        map2
          (fun x y -> Pt.make (float_of_int x *. 0.1) (float_of_int y *. 0.1))
          (0 -- 60) (0 -- 60)
      | _ -> map2 Pt.make (float_range 0. 6.) (float_range 0. 6.)
    in
    let region =
      let* p = point in
      let* shape = 0 -- 3 in
      let* r = oneofl [ 0.; 0.1; 0.25; 0.3; 0.5 ] in
      return
        (match shape with
         | 0 -> Octagon.of_point p
         | 1 -> Octagon.ball p r
         | 2 ->
           Octagon.hull (Octagon.of_point p) (Octagon.of_point (Pt.make (p.x +. r) (p.y +. r)))
         | _ ->
           Octagon.inflate r
             (Octagon.hull (Octagon.of_point p) (Octagon.of_point (Pt.make (p.x +. r) p.y))))
    in
    let* regions = array_size (return n) region in
    let* big = 0 -- (2 * n) in
    let* grow = float_range 2. 5. in
    let regions =
      Array.mapi (fun i o -> if i = big then Octagon.inflate grow o else o) regions
    in
    let* sid = 0 -- (n - 1) in
    let* stack = list_size (oneofl [ 0; 0; 2; 4 ]) (0 -- (n - 1)) in
    let* at = map2 (fun x y -> Pt.make (float_of_int x) (float_of_int y)) (0 -- 6) (0 -- 6) in
    let regions =
      Array.mapi
        (fun i o -> if stack <> [] && (i = sid || List.mem i stack) then Octagon.of_point at else o)
        regions
    in
    let* rate = oneofl [ 0; 1; 3 ] in
    let* kinds = array_size (return n) (map (fun k -> k < rate) (0 -- 3)) in
    return (regions, kinds, knn, cell, sid))

let probe_case_print (regions, kinds, knn, cell, sid) =
  Printf.sprintf "knn=%d cell=%g sid=%d %s" knn cell sid
    (String.concat "; "
       (Array.to_list
          (Array.mapi
             (fun i o ->
               Format.asprintf "%d:%a%s" i Octagon.pp o (if kinds.(i) then "!" else ""))
             regions)))

let prop_probe_matches_capped_knn =
  QCheck.Test.make ~name:"fused probe = capped k-NN argmin, bit for bit" ~count:4000
    (QCheck.make ~print:probe_case_print probe_case_gen)
    (fun (regions, kinds, knn, cell, sid) ->
      let capped, fused, _, _ = fused_vs_capped ~cell regions kinds ~knn ~sid in
      capped = fused)

(* The generator reaches every path of the probe: its fallback (the
   scan's best lies outside the [knn] nearest), the zero-cost exit (a
   scan that reads fewer entries than a cell of coincident leaves
   holds) and infeasible winners. *)
let test_probe_generator_reaches_every_path () =
  let rand = Random.State.make [| 17 |] in
  let fallbacks = ref 0 and penalized = ref 0 in
  for _ = 1 to 1500 do
    let regions, kinds, knn, cell, sid = probe_case_gen rand in
    let (_, bits), _, queries, _ = fused_vs_capped ~cell regions kinds ~knn ~sid in
    if queries = 2 then incr fallbacks;
    if Int64.float_of_bits bits > 1e6 then incr penalized
  done;
  Alcotest.(check bool) "some probes fall back" true (!fallbacks > 0);
  Alcotest.(check bool) "some winners are infeasible" true (!penalized > 0)

(* Each exit of the scan, pinned.  A leaf [pt] of the feasible kind, or
   of the other kind with [bad]. *)
let test_probe_paths () =
  let leaf x y = Octagon.of_point (Pt.make x y) in
  let check name ?cell regions kinds ~knn ~sid ~partner ~queries =
    let capped, fused, q, _ = fused_vs_capped ?cell regions kinds ~knn ~sid in
    Alcotest.(check (pair int int64)) (name ^ ": the capped answer") capped fused;
    Alcotest.(check int) (name ^ ": partner") partner (fst fused);
    Alcotest.(check int) (name ^ ": grid passes") queries q
  in
  (* The nearest leaf (1) is infeasible, the feasible one (2) lies
     beyond it: at knn = 1 the scan's best ranks second, so the probe
     falls back to the capped query, whose only candidate is 1. *)
  check "best outside the knn nearest" ~cell:10.
    [| leaf 0.5 0.5; leaf 1.5 0.5; leaf 2.5 0.5 |]
    [| false; true; false |] ~knn:1 ~sid:0 ~partner:1 ~queries:2;
  (* At knn = 2 it is among them: no fallback. *)
  check "best among the knn nearest" ~cell:10.
    [| leaf 0.5 0.5; leaf 1.5 0.5; leaf 2.5 0.5 |]
    [| false; true; false |] ~knn:2 ~sid:0 ~partner:2 ~queries:1;
  (* A large region (3) keeps the stop rule from firing; the two nearest
     leaves are infeasible and the feasible 4 lies in ring 1.  Once two
     visited entries lie closer than ring 2 can, the knn = 2 nearest are
     all visited, 4 is not among them, and the probe falls back. *)
  check "the knn nearest all visited" ~cell:1.
    [|
      leaf 0.5 0.5; leaf 0.9 0.6; leaf 0.5 1.1; Octagon.ball (Pt.make 30.5 30.5) 9.;
      leaf 1.5 1.;
    |]
    [| false; true; true; false; false |]
    ~knn:2 ~sid:0 ~partner:1 ~queries:2;
  (* Leaves 1 and 2 tie at distance 2.6 from 0, but 1 lies in a cell
     the scan reaches after 2's, and its computed center distance
     exceeds the computed region distance by an ulp: without the skip
     bound's margin the scan would skip it and keep 2. *)
  let dec k = (float_of_int k *. 0.1) +. 1. in
  check "an ulp inside the skip bound" ~cell:0.3
    [| leaf (dec 28) (dec 22); leaf (dec 6) (dec 18); leaf (dec 10) (dec 14); leaf (dec 9) (dec 5) |]
    [| false; false; false; false |]
    ~knn:16 ~sid:0 ~partner:1 ~queries:1;
  (* Coincident feasible leaves: the cheapest partner is the lowest
     other id, found at cost 0 at center distance 0, after which the
     cell's higher ids are not read. *)
  let n = 50 in
  let regions = Array.make n (leaf 3. 4.) and kinds = Array.make n false in
  List.iter
    (fun (sid, partner) ->
      let capped, fused, q, entries = fused_vs_capped regions kinds ~knn:16 ~sid in
      Alcotest.(check (pair int int64)) "coincident: the capped answer" capped fused;
      Alcotest.(check int) "coincident: partner" partner (fst fused);
      Alcotest.(check int) "coincident: one pass" 1 q;
      Alcotest.(check bool)
        (Printf.sprintf "coincident: %d entries read" entries)
        true (entries <= sid + 2))
    [ (0, 1); (1, 0); (7, 0) ];
  (* The zero-cost exit fires at 1 in ring 0 and leaves 2 unread; the
     ball 0, centered in ring 1, also costs 0 from 3 and takes the best
     by its lower id.  Entry 2 ranks before it, so at knn = 2 the rank
     check must count 2 and fall back to the capped answer, 1. *)
  check "a zero-cost best after the exit" ~cell:1.
    [| Octagon.ball (Pt.make 1.5 0.5) 1.5; leaf 0.5 0.5; leaf 0.5 0.5; leaf 0.5 0.5 |]
    [| false; false; false; false |]
    ~knn:2 ~sid:3 ~partner:1 ~queries:2

(* 1,000 sinks on one point (2 groups, 10 ps): n - 1 rounds of one merge
   each, since every probe proposes the lowest id, but every probe stops
   reading its cell once a partner costs 0 at center distance 0, so a
   probe scans about one entry instead of half the cell.  The tree, its
   wire and the audit are unchanged. *)
let test_coincident_sinks () =
  let n = 1000 in
  let inst =
    instance ~bound:10. ~n_groups:2 (List.init n (fun i -> sink i 500. 700. (i mod 2)))
  in
  let r = Check.Oracle.ast ~jobs:1 inst in
  Alcotest.(check (list string)) "audit-clean" []
    (List.map
       (fun (v : Check.Audit.violation) -> v.invariant)
       (Check.Audit.run Check.Audit.Grouped inst r.routed r.evaluation));
  Alcotest.(check string) "wirelength" "0x1.2cp+10"
    (Printf.sprintf "%h" r.evaluation.wirelength);
  Alcotest.(check int) "rounds" (n - 1) r.engine.rounds;
  let per_probe = float_of_int r.engine.nn_entries /. float_of_int r.engine.nn_reprobes in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f entries per probe" per_probe)
    true (per_probe < 4.)

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
  Alcotest.(check int) "sinks preserved" 25 (n_leaves routed.tree);
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
  let region ids = plan (Sinks (Array.map (fun gid -> inst.sinks.(gid)) ids)) in
  let stitch roots = plan (Subtrees roots) in
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
  let c = Dme.Subtree.cols (Sinks sinks) in
  let root = ref 0 in
  for i = 1 to n - 1 do
    let id = Dme.Subtree.reserve c !root i in
    Dme.Merge.run inst ~split_slack:0.25 ~width_cap:0.7 c ~id !root i;
    root := id
  done;
  let a = Dme.Embed.run_arena inst (Dme.Subtree.finish c) in
  Alcotest.(check int) "node count" ((2 * n) - 1) a.Arena.n;
  Alcotest.(check int) "sink count" n a.Arena.n_sinks;
  let routed = Arena.to_routed a in
  Alcotest.(check int) "sinks preserved" n (n_leaves routed.tree)

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
   [nn_queries] counts the probes' grid passes: one ring scan each, plus
   one k-NN query for each probe whose scan could not prove its answer
   (none on these five).  Ranking prices every candidate without a
   trial merge, so [elided_trials] is the priced-candidate count: the
   scan prices each ring's least candidate at the ring's end.  So do the merge
   tallies: the same-group, cross-group, shared-one and shared-multi
   counts, [infeasible_merges] and the bits of [planned_snake], summed
   in install order; one MMM-DME row pins the same tallies of the fixed
   bisection topology. *)
let check_tallies name (e : Dme.Engine.stats) (same, cross, one, multi, infeasible, snake)
    =
  Alcotest.(check (list int))
    (name ^ " merge kinds")
    [ same; cross; one; multi ]
    [ e.same_group; e.cross_group; e.shared_one; e.shared_multi ];
  Alcotest.(check int) (name ^ " infeasible_merges") infeasible e.infeasible_merges;
  Alcotest.(check string) (name ^ " planned_snake") snake
    (Printf.sprintf "%h" e.planned_snake)

let golden_instance name =
  let spec = Option.get (Workload.Circuits.find name) in
  Workload.Circuits.instance spec ~n_groups:8 ~scheme:Workload.Partition.Intermingled
    ~bound:10. ()

let test_golden_wirelengths () =
  List.iter
    (fun (name, expect, (reprobes, queries, saved, rounds, elided), tallies) ->
      let r = Check.Oracle.ast ~jobs:1 (golden_instance name) in
      Alcotest.(check string) (name ^ " wirelength") expect
        (Printf.sprintf "%h" r.evaluation.wirelength);
      Alcotest.(check int) (name ^ " nn_reprobes") reprobes r.engine.nn_reprobes;
      Alcotest.(check int) (name ^ " nn_queries") queries r.engine.nn_queries;
      Alcotest.(check int) (name ^ " nn_probes_saved") saved r.engine.nn_probes_saved;
      Alcotest.(check int) (name ^ " rounds") rounds r.engine.rounds;
      Alcotest.(check int) (name ^ " trial_merges") 0 r.engine.trial.trial_merges;
      Alcotest.(check int) (name ^ " elided_trials") elided
        r.engine.trial.elided_trials;
      check_tallies name r.engine tallies)
    [
      ( "r1", "0x1.cd929d3d14732p+19", (1083, 1083, 0, 19, 1411),
        (12, 157, 52, 45, 0, "0x0p+0") );
      ( "r2", "0x1.ea747375c23e7p+20", (2413, 2413, 0, 22, 3282),
        (36, 346, 106, 109, 0, "0x0p+0") );
      ( "r3", "0x1.3180cdaf06bf4p+21", (3473, 3473, 0, 23, 4693),
        (40, 505, 167, 149, 0, "0x0p+0") );
      ( "r4", "0x1.2fd864ed8f4dep+22", (7636, 7636, 0, 26, 10327),
        (92, 1115, 366, 329, 0, "0x1.fee3cd1250b3cp+12") );
      ( "r5", "0x1.c8a977fe4209ap+22", (12436, 12436, 0, 28, 16934),
        (119, 1834, 585, 562, 0, "0x1p-41") );
    ];
  let _, mmm = Dme.Mmm.plan (golden_instance "r3") in
  Alcotest.(check int) "MMM r3 rounds" 10 mmm.rounds;
  check_tallies "MMM r3" mmm (43, 519, 142, 157, 0, "0x0p+0")

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

(* Per-group bounds are read unboxed: a committed [Merge.run] replaying
   the engine's plan of r3 with a different bound per group, with its
   reservations, allocates nothing.  An [Instance.bound_for] that boxes
   costs 2 words per group its window folds visit. *)
let test_group_bounds_merge_allocation () =
  let base = golden_instance "r3" in
  let inst =
    Instance.make ~params:base.params ~rd:base.rd ~bound:base.bound
      ~group_bounds:(Array.init 8 (fun g -> 4. +. (2. *. float_of_int g)))
      ~source:base.source ~n_groups:8 base.sinks
  in
  let config = serial in
  let plan = Dme.Subtree.store_of (fst (Dme.Engine.plan ~config inst)) in
  let c = Dme.Subtree.cols (Sinks inst.sinks) in
  let w0 = Gc.minor_words () in
  for m = 0 to plan.merges - 1 do
    let a = plan.kids.(2 * m) and b = plan.kids.((2 * m) + 1) in
    let id = Dme.Subtree.reserve c a b in
    Dme.Merge.run inst ~split_slack:config.split_slack ~width_cap:config.width_cap c ~id a
      b
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "merges replayed" (Instance.n_sinks inst - 1) plan.merges;
  if words > 0. then
    Alcotest.failf "%d merges allocated %.0f minor words" plan.merges words

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
  let n = Array.length ids in
  let sel =
    Dme.Order.
      {
        left = Array.make n 0;
        right = Array.make n 0;
        costs = Float.Array.make n Float.nan;
        len = 0;
      }
  in
  let ranked =
    Dme.Order.select_pairs ~ids ~count:n ~partner ~cost ~used ~limit sel
  in
  ( ranked,
    List.init sel.len (fun k ->
        (Float.Array.get sel.costs k, sel.left.(k), sel.right.(k))) )

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

(* Plan and repair a random instance, [n] sinks over [n_groups] groups
   on a 30000-unit die, at [bound] or, with [per_group], per-group bounds
   drawn in [0, 30]; then audit the grouped bounds.  Returns the repair's
   stats and whether it met every bound. *)
let engine_repair_case (n, n_groups, bound, per_group, seed) =
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
  (rstats, rstats.unresolved_groups = 0 && Check.Audit.bound Grouped inst report = [])

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
    (fun case -> snd (engine_repair_case case))

(* Two cases whose lift used to stall just above the acceptance slack,
   exhausting its budget: the property's case drawn under
   QCHECK_SEED=243523093, and case 1620 of fuzz seed 15 (both at a 0 ps
   bound).  Each is audit-clean within 20 lifts under the default
   budget. *)
let test_repair_regressions () =
  let stats, ok = engine_repair_case (24, 5, 0., false, 4928) in
  Alcotest.(check bool) "n=24 groups=5 seed=4928: audit-clean" true ok;
  Alcotest.(check bool)
    (Printf.sprintf "n=24 groups=5 seed=4928: %d lifts <= 20" stats.lift_iterations)
    true (stats.lift_iterations <= 20);
  let c = Check.Gen.case ~seed:15L ~index:1620 () in
  let r = Astskew.Router.(route (Spec.default Ast_dme) c.instance) in
  Alcotest.(check (list string))
    "fuzz seed 15 case 1620: audit-clean" []
    (List.map
       (fun (v : Check.Audit.violation) -> v.detail)
       (Check.Audit.bound Grouped c.instance r.evaluation));
  Alcotest.(check bool)
    (Printf.sprintf "fuzz seed 15 case 1620: %d lifts <= 20"
       r.repair.lift_iterations)
    true
    (r.repair.lift_iterations <= 20 && not r.repair.budget_exhausted)

(* Candidate pairs for the merge-cost properties, from Check.Gen cases
   of every regime: a case's sinks are shuffled into four chunks, each
   chunk is merged left to right into one subtree in a run over them,
   and the chunk roots plus up to six leaves are returned as views, with
   the instance and its [merge]. *)
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
  let c = Dme.Subtree.cols (Sinks (Array.map (fun i -> inst.sinks.(i)) order)) in
  let chunks = Int.min 4 n in
  let roots =
    List.init chunks (fun k ->
        let lo = k * n / chunks and hi = ((k + 1) * n / chunks) - 1 in
        let acc = ref lo in
        for i = lo + 1 to hi do
          let id = Dme.Subtree.reserve c !acc i in
          Dme.Merge.run inst ~split_slack:0.25 ~width_cap:0.7 c ~id !acc i;
          acc := id
        done;
        !acc)
  in
  ( inst,
    merge inst,
    List.map (Dme.Subtree.view c) (roots @ List.init (Int.min n 6) Fun.id) )

(* Feasible and infeasible merges the running property has compared;
   [both_branches] asserts after a property's run that it saw both, so
   each identity below is checked on each branch of the merge. *)
let feasible_merges = ref 0
let infeasible_merges = ref 0

let tally_feasible feasible =
  incr (if feasible then feasible_merges else infeasible_merges);
  feasible

let both_branches prop =
  let name, speed, run = QCheck_alcotest.to_alcotest prop in
  ( name,
    speed,
    fun () ->
      feasible_merges := 0;
      infeasible_merges := 0;
      run ();
      Alcotest.(check bool)
        (Printf.sprintf "both branches: %d feasible, %d infeasible merges"
           !feasible_merges !infeasible_merges)
        true
        (!feasible_merges > 0 && !infeasible_merges > 0) )

(* [Merge.committed_feasible] is [Merge.run]'s feasibility without
   building the merge, on every pair of a case's subtrees. *)
let prop_committed_feasible_matches_run =
  QCheck.Test.make ~name:"committed_feasible = Merge.run feasibility" ~count:60
    gen_case (fun case ->
      let inst, run, subtrees = case_subtrees case in
      List.for_all
        (fun (a : Dme.Subtree.t) ->
          List.for_all
            (fun (b : Dme.Subtree.t) ->
              a == b
              ||
              let dist = Octagon.dist a.region b.region in
              Dme.Merge.committed_feasible inst (pair inst a b) ~dist 0 1
              = tally_feasible (run a b).feasible)
            subtrees)
        subtrees)

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
  let r = merge inst ~id:77 a b in
  ignore (tally_feasible r.feasible : bool);
  same_merge r
    (Dme.Merge.run_reference inst ~split_slack:0.25 ~width_cap:0.7 ~id:77 a b)

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

(* The price contract of Order.cheapest that the probe's prune rests
   on: the engine's cost is never below the region distance the ranking
   loop hands it ([Octslab.dist]). *)
let prop_engine_cost_at_least_dist =
  QCheck.Test.make ~name:"engine costs >= Octslab.dist" ~count:40 gen_case
    (fun case ->
      let inst, _, subtrees = case_subtrees case in
      List.for_all
        (fun (a : Dme.Subtree.t) ->
          List.for_all
            (fun (b : Dme.Subtree.t) ->
              a == b
              ||
              let c = pair inst a b in
              let dist = Geometry.Octslab.dist c.regions 0 1 in
              Dme.Engine.cost inst c ~dist 0 1 >= dist)
            subtrees)
        subtrees)

(* The column merge against the reference on random child pairs of
   each of the four kinds over 1 to 10 groups.  Child states are drawn
   directly: a region (a point or an L1 ball on a small lattice, so
   overlapping and coincident pairs are common), a load, a sink count,
   and windows over the group sets the kind dictates — each group is in
   neither child, one or both, and the kind fixes how many are in both.
   The two are the leaves of a run, merged there; the merged id read
   back as a view, and its outcome, must equal [Merge.run_reference]'s
   bit for bit. *)
let prop_column_merge_matches_reference =
  let kinds = Dme.Merge.[| Same_group; Cross_group; Shared_one; Shared_multi |] in
  let window =
    QCheck.Gen.(
      let* lo = oneof [ oneofl [ 0.; 5.; 40.; 200. ]; float_range 0. 300. ]
      and* w = oneof [ oneofl [ 0.; 1.; 10. ]; float_range 0. 20. ] in
      return (lo, lo +. w))
  in
  let state =
    QCheck.Gen.(
      let* x = 0 -- 3 and* y = 0 -- 3 and* r = oneofl [ 0.; 0.; 30.; 120. ] in
      let* cap = oneof [ oneofl [ 0.; 20.; 300. ]; float_range 0. 500. ] in
      let* sinks = 1 -- 5 in
      let centre = pt (float_of_int (x * 50)) (float_of_int (y * 50)) in
      return (Octagon.ball centre r, cap, sinks))
  in
  let gen =
    QCheck.Gen.(
      let* k = 0 -- 3 in
      let* n_groups = if k = 0 then 1 -- 10 else 2 -- 10 in
      let* rot = 0 -- (n_groups - 1) in
      (* Membership by group: 1 only in the left child, 2 only in the
         right, 3 in both, 0 in neither. *)
      let* free = list_repeat n_groups (oneofl [ 0; 1; 2; 3 ]) in
      let* side = oneofl [ 1; 2 ] in
      let member =
        Array.init n_groups (fun g ->
            let i = (g + n_groups - rot) mod n_groups in
            let f = List.nth free g in
            match (k, i) with
            | 0, 0 -> 3
            | 0, _ -> 0
            | 1, 0 -> 1
            | 1, 1 -> 2
            | 1, _ -> f mod 3
            | 2, 0 -> 3
            | 2, 1 -> side
            | 2, _ -> f mod 3
            | _, (0 | 1) -> 3
            | _ -> f)
      in
      let* wa = array_repeat n_groups window and* wb = array_repeat n_groups window in
      let* sa = state and* sb = state in
      let* bound = oneofl [ 0.; 1.; 10.; 30. ] and* per_group = bool in
      let* group_bounds = array_repeat n_groups (oneofl [ 0.; 2.; 10.; 40. ]) in
      return
        ( k,
          member,
          (wa, sa),
          (wb, sb),
          bound,
          if per_group then Some group_bounds else None ))
  in
  QCheck.Test.make ~name:"column merge view = run_reference, bit for bit" ~count:1000
    (QCheck.make
       ~print:(fun (k, member, _, _, bound, _) ->
         Printf.sprintf "%s, %d groups, bound %g"
           (Format.asprintf "%a" Dme.Merge.pp_kind kinds.(k))
           (Array.length member) bound)
       gen)
    (fun (k, member, (wa, (ra, capa, na)), (wb, (rb, capb, nb)), bound, group_bounds) ->
      let n_groups = Array.length member in
      let inst =
        Instance.make ~bound ?group_bounds ~source:(pt 0. 0.) ~n_groups
          (Array.init n_groups (fun g ->
               sink g (float_of_int (g * 10)) (float_of_int (g * 7)) g))
      in
      let child side ws reg cap n_sinks id : Dme.Subtree.t =
        let gid =
          List.filter (fun g -> member.(g) land side <> 0) (List.init n_groups Fun.id)
          |> Array.of_list
        in
        {
            id;
            region = reg;
            cap;
            delay =
              {
                gid;
                lo = Float.Array.map_from_array (fun g -> fst ws.(g)) gid;
                hi = Float.Array.map_from_array (fun g -> snd ws.(g)) gid;
              };
            n_sinks;
            plan = Sink inst.sinks.(0);
        }
      in
      let a = child 1 wa ra capa na 0 and b = child 2 wb rb capb nb 1 in
      let c = Dme.Subtree.cols (Subtrees [| a; b |]) in
      let id = Dme.Subtree.reserve c 0 1 in
      Dme.Merge.run inst ~split_slack:0.25 ~width_cap:0.7 c ~id 0 1;
      let got =
        Dme.Merge.
          {
            subtree = Dme.Subtree.view c id;
            kind = kind_at c id;
            planned_wire = planned_wire c id;
            snake = Float.Array.get c.snakes id;
            feasible = feasible_at c id;
          }
      in
      ignore (tally_feasible got.feasible : bool);
      got.kind = kinds.(k)
      && same_merge got
           (Dme.Merge.run_reference inst ~split_slack:0.25 ~width_cap:0.7 ~id a b))

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
        @ List.map both_branches
            [
              prop_committed_feasible_matches_run;
              prop_merge_matches_reference;
              prop_merge_matches_reference_shared_multi;
              prop_column_merge_matches_reference;
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
          Alcotest.test_case "probe paths" `Quick test_probe_paths;
          Alcotest.test_case "probe generator reaches every path" `Quick
            test_probe_generator_reaches_every_path;
          Alcotest.test_case "1000 coincident sinks" `Quick test_coincident_sinks;
        ]
        @ qsuite
            [
              prop_cheapest_matches_exhaustive;
              prop_probe_matches_capped_knn;
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
          Alcotest.test_case "per-group bounds: a merge allocates nothing" `Quick
            test_group_bounds_merge_allocation;
          Alcotest.test_case "repair regressions: stalled lifts" `Quick
            test_repair_regressions;
        ]
        @ qsuite
            [
              prop_engine_respects_bound;
              prop_engine_cost_at_least_dist;
            ] );
    ]
