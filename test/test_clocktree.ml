(* Tests for the clock-tree data model, exact Elmore evaluation and the
   skew repair pass. *)

module Pt = Geometry.Pt
open Clocktree

let pt = Pt.make
let params = Rc.Wire.default

let sink id x y ?(cap = 20.) group = Sink.make ~id ~loc:(pt x y) ~cap ~group

let check_float ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

(* Hand-built trees enter the arena pipeline flattened; repair works on
   the flattened copy in place. *)
let flat (inst : Instance.t) routed = Arena.of_routed inst.params ~rd:inst.rd routed

let evaluate inst routed = Evaluate.report_of_arena inst (flat inst routed)

let repair ?config inst routed =
  let a = flat inst routed in
  let stats = Repair.run_arena ?config inst a in
  (a, stats)

(* --- Instance ------------------------------------------------------------ *)

let test_instance_validation () =
  let sinks = [| sink 0 0. 0. 0; sink 1 10. 0. 1 |] in
  let inst = Instance.make ~source:(pt 0. 0.) ~n_groups:2 sinks in
  Alcotest.(check int) "n_sinks" 2 (Instance.n_sinks inst);
  Alcotest.(check (list int)) "group 1 sinks" [ 1 ]
    (List.map (fun (s : Sink.t) -> s.id) (Instance.group_sinks inst 1));
  Alcotest.(check (array int)) "group sizes" [| 1; 1 |] (Instance.group_sizes inst);
  Alcotest.check_raises "group out of range"
    (Invalid_argument "Instance.make: sink group out of range") (fun () ->
      ignore (Instance.make ~source:(pt 0. 0.) ~n_groups:1 sinks));
  Alcotest.check_raises "dense ids"
    (Invalid_argument "Instance.make: sink ids must be dense") (fun () ->
      ignore
        (Instance.make ~source:(pt 0. 0.) ~n_groups:2 [| sink 1 0. 0. 0 |]))

(* Non-finite numbers anywhere in an instance are rejected by name: a NaN
   sink would otherwise route to a NaN tree. *)
let test_instance_rejects_non_finite () =
  let ok = [| sink 0 0. 0. 0; sink 1 10. 0. 0 |] in
  let raises what f =
    Alcotest.check_raises what
      (Invalid_argument ("Instance.make: non-finite " ^ what))
      (fun () -> ignore (f ()))
  in
  let make ?params ?rd ?bound ?group_bounds ?(source = pt 0. 0.) sinks =
    Instance.make ?params ?rd ?bound ?group_bounds ~source ~n_groups:1 sinks
  in
  List.iter
    (fun v ->
      raises "sink x" (fun () -> make [| sink 0 v 0. 0; sink 1 10. 0. 0 |]);
      raises "sink y" (fun () -> make [| sink 0 0. 0. 0; sink 1 10. v 0 |]);
      raises "sink capacitance" (fun () ->
          make [| { (sink 0 0. 0. 0) with cap = v }; sink 1 10. 0. 0 |]);
      raises "source x" (fun () -> make ~source:(pt v 0.) ok);
      raises "source y" (fun () -> make ~source:(pt 0. v) ok);
      raises "skew bound" (fun () -> make ~bound:v ok);
      raises "group bound" (fun () -> make ~group_bounds:[| v |] ok);
      raises "driver resistance" (fun () -> make ~rd:v ok);
      raises "wire resistance" (fun () -> make ~params:{ params with r = v } ok);
      raises "wire capacitance" (fun () -> make ~params:{ params with c = v } ok))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  (* Finite but too far apart: the extent overflows (the router's grid
     cell would be infinite), or a wire across it has infinite delay (the
     router would return a NaN wirelength). *)
  raises "extent" (fun () ->
      make [| sink 0 1e308 1e308 0; sink 1 (-1e308) (-1e308) 0 |]);
  raises "wire delay across the extent" (fun () ->
      make [| sink 0 1e200 1e200 0; sink 1 (-1e200) (-1e200) 0; sink 2 0. 0. 0 |]);
  (* Records built without [Sink.make] get the same checks. *)
  Alcotest.check_raises "negative group"
    (Invalid_argument "Instance.make: sink group out of range") (fun () ->
      ignore (make [| { (sink 0 0. 0. 0) with group = -1 }; sink 1 10. 0. 0 |]));
  Alcotest.check_raises "negative cap"
    (Invalid_argument "Instance.make: negative sink capacitance") (fun () ->
      ignore (make [| { (sink 0 0. 0. 0) with cap = -1. }; sink 1 10. 0. 0 |]))

(* [Instance.diameter] is the bbox octagon's diameter bit for bit: on a
   single sink, on signed zeros (where the min/max folds must keep the
   stdlib's zero ordering) and on random scatters. *)
let test_instance_diameter () =
  let check tag sinks =
    let inst = Instance.make ~source:(pt 0. 0.) ~n_groups:1 sinks in
    Alcotest.(check int64) tag
      (Int64.bits_of_float (Geometry.Octagon.diameter (Instance.bbox inst)))
      (Int64.bits_of_float (Instance.diameter inst))
  in
  check "one sink" [| sink 0 3. 4. 0 |];
  check "signed zeros" [| sink 0 0. (-0.) 0; sink 1 (-0.) 0. 0; sink 2 (-0.) (-0.) 0 |];
  let rng = Random.State.make [| 7 |] in
  for n = 1 to 60 do
    check (Printf.sprintf "scatter %d" n)
      (Array.init n (fun i ->
           let c () = Random.State.float rng 2000. -. 1000. in
           sink i (c ()) (c ()) 0))
  done

(* --- Tree ---------------------------------------------------------------- *)

let two_sink_tree () =
  let s0 = sink 0 10. 0. 0 and s1 = sink 1 (-10.) 0. 0 in
  let t =
    Tree.node (pt 0. 0.) (Tree.Leaf s0) (Tree.Leaf s1) ~llen:10. ~rlen:10.
  in
  (s0, s1, Tree.route (pt 0. 0.) t)

let test_tree_metrics () =
  let _, _, routed = two_sink_tree () in
  check_float "wirelength" 20. (Tree.wirelength routed);
  check_float "no snaking" 0. (Tree.total_snaking routed);
  Alcotest.(check int) "n_sinks" 2 (Tree.n_sinks routed.tree);
  Alcotest.(check int) "n_nodes" 3 (Tree.n_nodes routed.tree);
  Alcotest.(check int) "depth" 2 (Tree.depth routed.tree)

let test_tree_snaking_counted () =
  let s0 = sink 0 10. 0. 0 and s1 = sink 1 (-10.) 0. 0 in
  let t =
    Tree.node (pt 0. 0.) (Tree.Leaf s0) (Tree.Leaf s1) ~llen:15. ~rlen:10.
  in
  let routed = Tree.route (pt 0. 0.) t in
  check_float "wirelength includes snake" 25. (Tree.wirelength routed);
  check_float "snaking" 5. (Tree.total_snaking routed)

let test_tree_rejects_short_edge () =
  let s0 = sink 0 10. 0. 0 and s1 = sink 1 (-10.) 0. 0 in
  Alcotest.check_raises "short edge"
    (Invalid_argument "Tree.node: left length 5 < distance 10") (fun () ->
      ignore (Tree.node (pt 0. 0.) (Tree.Leaf s0) (Tree.Leaf s1) ~llen:5. ~rlen:10.))

(* --- Evaluate ------------------------------------------------------------ *)

let test_evaluate_hand_check () =
  let _, _, routed = two_sink_tree () in
  let inst =
    Instance.make ~rd:100. ~source:(pt 0. 0.) ~n_groups:1
      [| sink 0 10. 0. 0; sink 1 (-10.) 0. 0 |]
  in
  let report = evaluate inst routed in
  let d = report.delays in
  (* Total cap = 2*20 fF + 20 units * 0.02 fF = 40.4 fF.
     Driver: 100 ohm * 40.4 fF = 4.04 ps.
     Edge: 0.003*10*(0.02*10/2 + 20) = 0.603 ohm·fF = 0.000603 ps. *)
  check_float ~tol:1e-9 "sink 0 delay" 4.040603 d.(0);
  check_float ~tol:1e-9 "symmetric" d.(0) d.(1);
  check_float "zero skew" 0. report.global_skew;
  check_float "group skew" 0. report.max_group_skew;
  check_float "wirelength" 20. report.wirelength;
  Alcotest.(check bool) "within bound" true (Evaluate.within_bound inst report)

let test_evaluate_matches_direct_recursion () =
  (* Cross-check the RC-tree-based evaluation against a direct recursive
     Elmore computation on an asymmetric tree. *)
  let s0 = sink 0 0. 0. ~cap:35. 0 in
  let s1 = sink 1 40. 0. ~cap:15. 0 in
  let s2 = sink 2 20. 30. ~cap:25. 1 in
  let inner =
    Tree.node (pt 20. 0.) (Tree.Leaf s0) (Tree.Leaf s1) ~llen:20. ~rlen:20.
  in
  let top = Tree.node (pt 20. 10.) inner (Tree.Leaf s2) ~llen:10. ~rlen:20. in
  let routed = Tree.route (pt 0. 10.) top in
  let inst =
    Instance.make ~rd:50. ~source:(pt 0. 10.) ~n_groups:2 [| s0; s1; s2 |]
  in
  let d = (evaluate inst routed).delays in
  let w len load = Rc.Elmore.wire_delay params ~len ~load in
  let cap_inner = 35. +. 15. +. (params.Rc.Wire.c *. 40.) in
  let cap_top = cap_inner +. 25. +. (params.Rc.Wire.c *. 30.) in
  let cap_total = cap_top +. (params.Rc.Wire.c *. 20.) in
  let at_root = Rc.Elmore.driver_delay ~rd:50. ~load:cap_total +. w 20. cap_top in
  check_float ~tol:1e-9 "sink0" (at_root +. w 10. cap_inner +. w 20. 35.) d.(0);
  check_float ~tol:1e-9 "sink1" (at_root +. w 10. cap_inner +. w 20. 15.) d.(1);
  check_float ~tol:1e-9 "sink2" (at_root +. w 20. 25.) d.(2)

(* --- Repair -------------------------------------------------------------- *)

let test_repair_balances_pair () =
  (* Unbalanced: the merge point sits at one sink, so the other is slower.
     Zero-skew repair must snake the short edge. *)
  let s0 = sink 0 0. 0. 0 and s1 = sink 1 100. 0. 0 in
  let t =
    Tree.node (pt 0. 0.) (Tree.Leaf s0) (Tree.Leaf s1) ~llen:0. ~rlen:100.
  in
  let routed = Tree.route (pt 0. 0.) t in
  let inst =
    Instance.make ~bound:0. ~source:(pt 0. 0.) ~n_groups:1 [| s0; s1 |]
  in
  let before = evaluate inst routed in
  Alcotest.(check bool) "skewed before" true (before.max_group_skew > 1e-6);
  let repaired, stats = repair inst routed in
  let after = Evaluate.report_of_arena inst repaired in
  Alcotest.(check bool) "balanced after" true (after.max_group_skew <= 1e-6);
  Alcotest.(check bool) "wire added" true (stats.added_wire > 0.);
  Alcotest.(check int) "one edge adjusted" 1 stats.adjusted_edges;
  Alcotest.(check int) "no unresolved" 0 stats.unresolved_groups

let test_repair_respects_bound_slack () =
  (* With a generous bound the same tree needs no repair. *)
  let s0 = sink 0 0. 0. 0 and s1 = sink 1 100. 0. 0 in
  let t =
    Tree.node (pt 0. 0.) (Tree.Leaf s0) (Tree.Leaf s1) ~llen:0. ~rlen:100.
  in
  let routed = Tree.route (pt 0. 0.) t in
  let inst =
    Instance.make ~bound:1000. ~source:(pt 0. 0.) ~n_groups:1 [| s0; s1 |]
  in
  let _, stats = repair inst routed in
  check_float "no wire added" 0. stats.added_wire;
  Alcotest.(check int) "no adjustment" 0 stats.adjusted_edges

let test_repair_ignores_cross_group () =
  (* Two sinks from different groups: no constraint, no repair. *)
  let s0 = sink 0 0. 0. 0 and s1 = sink 1 100. 0. 1 in
  let t =
    Tree.node (pt 0. 0.) (Tree.Leaf s0) (Tree.Leaf s1) ~llen:0. ~rlen:100.
  in
  let routed = Tree.route (pt 0. 0.) t in
  let inst =
    Instance.make ~bound:0. ~source:(pt 0. 0.) ~n_groups:2 [| s0; s1 |]
  in
  let _, stats = repair inst routed in
  check_float "no wire added" 0. stats.added_wire

(* Random trees: greedily pair sinks (midpoint nodes, exact distances) and
   check that repair enforces the bound on the final embedded tree. *)
let random_topology sinks =
  let rec pair = function
    | [] -> assert false
    | [ t ] -> t
    | t1 :: t2 :: rest ->
      let p = Pt.mid (Tree.pos t1) (Tree.pos t2) in
      let llen = Pt.dist p (Tree.pos t1) and rlen = Pt.dist p (Tree.pos t2) in
      pair (rest @ [ Tree.node p t1 t2 ~llen ~rlen ])
  in
  pair (List.map (fun s -> Tree.Leaf s) sinks)

let gen_repair_case =
  QCheck.Gen.(
    let* n = int_range 2 24 in
    let* n_groups = int_range 1 4 in
    let* coords = list_repeat n (pair (float_range 0. 20000.) (float_range 0. 20000.)) in
    let* groups = list_repeat n (int_range 0 (n_groups - 1)) in
    let* caps = list_repeat n (float_range 5. 80.) in
    let* bound = oneofl [ 0.; 5.; 10. ] in
    return (coords, groups, caps, n_groups, bound))

let prop_repair_enforces_bound =
  QCheck.Test.make ~name:"repair enforces intra-group bound" ~count:200
    (QCheck.make gen_repair_case)
    (fun (coords, groups, caps, n_groups, bound) ->
      let sinks =
        List.mapi
          (fun i ((x, y), (g, cap)) -> Sink.make ~id:i ~loc:(pt x y) ~cap ~group:g)
          (List.combine coords (List.combine groups caps))
      in
      let arr = Array.of_list sinks in
      let inst = Instance.make ~bound ~source:(pt 0. 0.) ~n_groups arr in
      let routed = Tree.route (pt 0. 0.) (random_topology sinks) in
      let repaired, stats = repair inst routed in
      let report = Evaluate.report_of_arena inst repaired in
      stats.unresolved_groups = 0 && Evaluate.within_bound inst report)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* --- Arena ----------------------------------------------------------------- *)

(* Flatten → rebuild must be the identity, bit for bit: same structure,
   same positions, same sink records, same edge lengths.  Structural
   equality on the routed record compares every float exactly. *)
let prop_arena_roundtrip =
  QCheck.Test.make ~name:"arena flatten/rebuild round-trips bit-exact"
    ~count:300
    (QCheck.make gen_repair_case)
    (fun (coords, groups, caps, n_groups, _bound) ->
      let sinks =
        List.mapi
          (fun i ((x, y), (g, cap)) -> Sink.make ~id:i ~loc:(pt x y) ~cap ~group:g)
          (List.combine coords (List.combine groups caps))
      in
      ignore n_groups;
      let routed = Tree.route (pt (-5.) 7.) (random_topology sinks) in
      let a = Arena.of_routed params ~rd:100. routed in
      routed = Arena.to_routed a)

(* A 240k-node left-deep comb: every recursive walk would need ~120k
   stack frames.  Flatten, repair and evaluate must all survive it and,
   with a generous bound, repair must leave the tree untouched. *)
let test_deep_comb_stack_safety () =
  let n = 120_000 in
  let sinks = Array.init n (fun i -> sink i (float_of_int i) 0. 0) in
  let t = ref (Tree.Leaf sinks.(0)) in
  for i = 1 to n - 1 do
    let p = sinks.(i).Sink.loc in
    t := Tree.node p !t (Tree.Leaf sinks.(i)) ~llen:1. ~rlen:0.
  done;
  let root = pt (float_of_int (n - 1)) 0. in
  let routed = Tree.route root !t in
  let inst = Instance.make ~bound:1e9 ~source:root ~n_groups:1 sinks in
  let a = flat inst routed in
  Alcotest.(check int) "node count" (2 * n - 1) a.Arena.n;
  check_float "wirelength" (float_of_int (n - 1))
    (Arena.wirelength a);
  let stats = Repair.run_arena inst a in
  check_float "repair is a no-op" 0. stats.added_wire;
  Alcotest.(check int) "no edges adjusted" 0 stats.adjusted_edges;
  Alcotest.(check int) "no unresolved" 0 stats.unresolved_groups;
  let report = Evaluate.report_of_arena inst a in
  Alcotest.(check bool) "within bound" true (Evaluate.within_bound inst report)

(* A route's report is repair's last evaluation: the delays repair
   returns must be the serial sweep of the tree it leaves, bit for bit
   (signed zeros included), whether its cycle converged or ran out of
   budget, and whatever its windows. *)
let test_repair_delays_are_serial_sweep () =
  let rng = Workload.Rng.create 9L in
  let n = 500 in
  let sinks =
    List.init n (fun i ->
        sink i
          (Workload.Rng.float_range rng 0. 20000.)
          (Workload.Rng.float_range rng 0. 20000.)
          (i mod 5))
  in
  let inst =
    Instance.make ~bound:10. ~source:(pt 0. 0.) ~n_groups:5
      (Array.of_list sinks)
  in
  let routed = Tree.route (pt 0. 0.) (random_topology sinks) in
  let bits = Array.map Int64.bits_of_float in
  let d = Repair.default_config in
  List.iter
    (fun (name, config, exhausted) ->
      let a, stats = repair ~config inst routed in
      let serial = Evaluate.report_of_arena inst a in
      Alcotest.(check bool) (name ^ ": budget exhausted") exhausted
        stats.budget_exhausted;
      Alcotest.(check (array int64)) (name ^ ": delays") (bits serial.delays)
        (bits stats.delays);
      let r = Evaluate.of_delays inst a stats.delays in
      Alcotest.(check (array int64)) (name ^ ": report")
        (bits
           [| serial.wirelength; serial.snaking; serial.min_delay;
              serial.max_delay; serial.global_skew; serial.max_group_skew |])
        (bits
           [| r.wirelength; r.snaking; r.min_delay; r.max_delay;
              r.global_skew; r.max_group_skew |]);
      Alcotest.(check (array int64)) (name ^ ": group skew")
        (bits serial.group_skew) (bits r.group_skew))
    [
      ("auto windows", d, false);
      ("4 windows", { d with jobs = 2; regions = Some 4 }, false);
      ("max_cycles = 0", { d with max_cycles = 0 }, true);
    ]

(* Feasible tree: repair must hand back the identical arena content —
   not merely "no stats", the rebuilt tree itself is bit-equal. *)
let test_repair_noop_preserves_tree () =
  let s0 = sink 0 0. 0. 0 and s1 = sink 1 100. 0. 0 in
  let t =
    Tree.node (pt 0. 0.) (Tree.Leaf s0) (Tree.Leaf s1) ~llen:0. ~rlen:100.
  in
  let routed = Tree.route (pt 0. 0.) t in
  let inst =
    Instance.make ~bound:1000. ~source:(pt 0. 0.) ~n_groups:1 [| s0; s1 |]
  in
  let repaired, stats = repair inst routed in
  Alcotest.(check int) "no adjustment" 0 stats.adjusted_edges;
  Alcotest.(check bool) "tree bit-equal" true (routed = Arena.to_routed repaired)

(* Conflicting groups under a zero bound: one balance pass cannot
   converge, so [max_cycles = 0] must exhaust the budget, report the
   unresolved groups, and still terminate.  The default budget resolves
   the same instance. *)
let exhaustion_case () =
  let s0 = sink 0 0. 0. 0 and s1 = sink 1 0. 10000. 1 in
  let s2 = sink 2 20000. 0. 0 and s3 = sink 3 20000. 20000. 1 in
  let a =
    Tree.node (pt 0. 0.) (Tree.Leaf s0) (Tree.Leaf s1) ~llen:0. ~rlen:10000.
  in
  let b =
    Tree.node (pt 20000. 0.) (Tree.Leaf s2) (Tree.Leaf s3) ~llen:0.
      ~rlen:20000.
  in
  let top = Tree.node (pt 10000. 0.) a b ~llen:10000. ~rlen:10000. in
  let routed = Tree.route (pt 10000. 0.) top in
  let inst =
    Instance.make ~bound:0. ~source:(pt 10000. 0.) ~n_groups:2
      [| s0; s1; s2; s3 |]
  in
  (inst, routed)

let test_repair_budget_exhaustion () =
  let inst, routed = exhaustion_case () in
  let config = { Repair.default_config with max_cycles = 0 } in
  let _, stats = repair ~config inst routed in
  Alcotest.(check bool) "budget exhausted" true stats.budget_exhausted;
  Alcotest.(check int) "one balance pass" 1 stats.cycles;
  Alcotest.(check bool) "unresolved reported" true
    (stats.unresolved_groups > 0)

let test_repair_default_budget_converges () =
  let inst, routed = exhaustion_case () in
  let repaired, stats = repair inst routed in
  Alcotest.(check bool) "not exhausted" false stats.budget_exhausted;
  Alcotest.(check int) "no unresolved" 0 stats.unresolved_groups;
  let report = Evaluate.report_of_arena inst repaired in
  Alcotest.(check bool) "within bound" true (Evaluate.within_bound inst report)

(* --- Per-group bounds ----------------------------------------------------- *)

let test_per_group_bounds () =
  let sinks = [| sink 0 0. 0. 0; sink 1 20000. 0. 0; sink 2 0. 100. 1; sink 3 20000. 100. 1 |] in
  let inst =
    Instance.make ~bound:10. ~group_bounds:[| 0.; 50. |] ~source:(pt 0. 0.)
      ~n_groups:2 sinks
  in
  check_float "group 0 bound" 0. (Instance.bound_for inst 0);
  check_float "group 1 bound" 50. (Instance.bound_for inst 1);
  check_float "max bound" 50. (Instance.max_bound inst);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Instance.make: group_bounds length mismatch") (fun () ->
      ignore
        (Instance.make ~group_bounds:[| 1. |] ~source:(pt 0. 0.) ~n_groups:2 sinks))

let test_repair_per_group_bounds () =
  (* Group 0 must be exact; group 1 may drift 50 ps.  Build a skewed tree
     and verify repair enforces exactly the per-group limits. *)
  let sinks =
    [| sink 0 0. 0. 0; sink 1 30000. 0. 0; sink 2 100. 100. 1; sink 3 30100. 100. 1 |]
  in
  let inst =
    Instance.make ~bound:10. ~group_bounds:[| 0.; 50. |] ~source:(pt 0. 0.)
      ~n_groups:2 sinks
  in
  let routed =
    Tree.route (pt 0. 0.) (random_topology (Array.to_list sinks))
  in
  let repaired, stats = repair inst routed in
  let report = Evaluate.report_of_arena inst repaired in
  Alcotest.(check int) "no unresolved" 0 stats.unresolved_groups;
  Alcotest.(check bool) "group 0 exact" true (report.group_skew.(0) <= 1e-4);
  Alcotest.(check bool) "group 1 within 50" true (report.group_skew.(1) <= 50. +. 1e-4)

(* --- Io ------------------------------------------------------------------- *)

let test_io_roundtrip () =
  let sinks = [| sink 0 1.5 2.5 ~cap:33.25 0; sink 1 100. 200. ~cap:55. 1 |] in
  let inst =
    Instance.make ~bound:7.5 ~group_bounds:[| 7.5; 12. |] ~rd:80.
      ~source:(pt 10. 20.) ~n_groups:2 sinks
  in
  let text = Io.to_string inst in
  match Io.of_string text with
  | Error e -> Alcotest.fail e
  | Ok inst' ->
    Alcotest.(check int) "n_sinks" (Instance.n_sinks inst) (Instance.n_sinks inst');
    Alcotest.(check int) "n_groups" inst.n_groups inst'.n_groups;
    check_float "bound" inst.bound inst'.bound;
    check_float "rd" inst.rd inst'.rd;
    check_float "group bound 1" 12. (Instance.bound_for inst' 1);
    Alcotest.(check bool) "source" true (Pt.equal inst.source inst'.source);
    Array.iteri
      (fun i (s : Sink.t) ->
        let t = inst'.sinks.(i) in
        Alcotest.(check bool) "sink preserved" true
          (Pt.equal s.loc t.loc && s.cap = t.cap && s.group = t.group))
      inst.sinks

let test_io_errors () =
  (match Io.of_string "nonsense 1 2 3" with
   | Error msg ->
     Alcotest.(check bool) "mentions line" true
       (String.length msg > 0 && String.sub msg 0 4 = "line")
   | Ok _ -> Alcotest.fail "expected parse error");
  (match Io.of_string "groups 2\nsink 0 0 0 10 0" with
   | Error msg ->
     Alcotest.(check bool) "missing source reported" true
       (String.length msg > 0)
   | Ok _ -> Alcotest.fail "expected missing-source error");
  (* Bad numbers and records their constructors reject are reported
     against their line, never raised. *)
  let base = "groups 2\nsource 0 0\n" in
  List.iter
    (fun (record, expect) ->
      match Io.of_string (base ^ record) with
      | Error msg -> Alcotest.(check string) record expect msg
      | Ok _ -> Alcotest.fail ("expected an error for " ^ record))
    [
      ("sink 0 nan 5 1 0", "line 3: non-finite number \"nan\"");
      ("sink 0 0 inf 1 0", "line 3: non-finite number \"inf\"");
      ("sink 0 0 0 -inf 0", "line 3: non-finite number \"-inf\"");
      ("source nan 0", "line 3: non-finite number \"nan\"");
      ("bound inf", "line 3: non-finite number \"inf\"");
      ("driver nan", "line 3: non-finite number \"nan\"");
      ("params 0.003 inf", "line 3: non-finite number \"inf\"");
      ("groupbound 1 nan", "line 3: non-finite number \"nan\"");
      ("sink 0 0 0 -1 0", "line 3: Sink.make: negative capacitance");
      ("sink 0 0 0 1 -1", "line 3: Sink.make: negative group");
      ("params 0 0.02", "line 3: Wire.make: parameters must be positive");
      ("groupbound 5 1", "line 3: group 5 out of range");
      ("groupbound 1 1\ngroupbound -1 1", "line 4: group -1 out of range");
      ( "sink 0 1e308 1e308 1 0\nsink 1 -1e308 -1e308 1 1",
        "Instance.make: non-finite extent" );
      ( "sink 0 1e200 1e200 1 0\nsink 1 -1e200 -1e200 1 1\nsink 2 0 0 1 0",
        "Instance.make: non-finite wire delay across the extent" );
      ( "sink 0 0 0 1 0\nsink 1 5 5 1 1\ndriver -1e6",
        "Instance.make: negative driver resistance" );
      ( "groups 4611686018427387903\ngroupbound 0 5\nsink 0 0 0 1 0",
        "line 0: 4611686018427387903 groups for 1 sinks" );
      ( "groups 4611686018427387903\nsink 0 0 0 1 0",
        "line 0: 4611686018427387903 groups for 1 sinks" );
      ( "groups 1000000000\nsink 0 0 0 1 0\nsink 1 1 1 1 0",
        "line 0: 1000000000 groups for 2 sinks" );
    ]

let test_io_comments_and_order () =
  let text =
    "# a comment\n\
     groups 1\n\
     sink 0 5 6 20 0   # trailing comment\n\
     source 0 0\n\
     bound 3\n"
  in
  match Io.of_string text with
  | Error e -> Alcotest.fail e
  | Ok inst ->
    Alcotest.(check int) "one sink" 1 (Instance.n_sinks inst);
    check_float "bound" 3. inst.bound

(* Hostile instance texts: a valid file mutated by hostile number tokens
   (NaN, inf, 1e308, negative caps, r, c and rd), huge or out-of-range
   group counts and ids, and truncated, duplicated or dropped lines.  Io
   must answer every text with a value, never an exception, and every
   instance it accepts must route to finite, non-negative delays. *)
let hostile_base =
  "params 0.003 0.02\ndriver 100\nsource 0 0\nbound 10\ngroups 2\n\
   groupbound 1 20\nsink 0 10 20 15 0\nsink 1 300 40 30 1\n\
   sink 2 150 250 5 0\nsink 3 40 400 25 1\nsink 4 500 500 10 0\n"

let hostile_tokens =
  [| "nan"; "inf"; "-inf"; "1e308"; "-1e308"; "-1"; "-1e6"; "0"; "1e-308";
     "4611686018427387903"; "-4611686018427387904"; "1000000000"; "2"; "x" |]

let hostile_records =
  [| "groups 4611686018427387903"; "groups 0";
     "groups -3"; "groups 5"; "groupbound 0 5"; "groupbound 7 5";
     "groupbound -1 1"; "sink 5 1 1 1 7"; "sink 9 1 1 1 0"; "sink -1 0 0 1 0";
     "sink 5 1e308 0 1 0"; "sink 5 0 0 1e308 1"; "driver -1e6"; "driver 1e308";
     "params -1 1"; "params 1e308 1e308"; "source 1e308 1e308"; "bound -5";
     "bound 1e308"; "sink 5 0 0 -20 0" |]

(* One mutation: [op] picks the kind, [a] the line or cut, [b] the
   token or record. *)
let mutate text (op, a, b) =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let n = Array.length lines in
  let l = a mod n in
  let join ls = String.concat "\n" (Array.to_list ls) in
  match op with
  | 0 ->
    let toks = Array.of_list (String.split_on_char ' ' lines.(l)) in
    let k = Array.length toks in
    if k > 1 then toks.(1 + (b mod (k - 1))) <-
        hostile_tokens.(b mod Array.length hostile_tokens);
    lines.(l) <- String.concat " " (Array.to_list toks);
    join lines
  | 1 -> String.sub text 0 (a mod (String.length text + 1))
  | 2 -> join (Array.concat [ Array.sub lines 0 (l + 1); Array.sub lines l (n - l) ])
  | 3 -> join (Array.append (Array.sub lines 0 l) (Array.sub lines (l + 1) (n - l - 1)))
  | _ -> text ^ "\n" ^ hostile_records.(b mod Array.length hostile_records)

let prop_io_hostile =
  let gen =
    QCheck.Gen.(list_size (1 -- 4) (triple (0 -- 4) (0 -- 10_000) (0 -- 10_000)))
  in
  QCheck.Test.make ~name:"hostile instance texts never raise" ~count:400
    (QCheck.make ~print:(fun muts -> List.fold_left mutate hostile_base muts) gen)
    (fun muts ->
      let text = List.fold_left mutate hostile_base muts in
      match Io.of_string text with
      | exception e ->
        QCheck.Test.fail_reportf "Io.of_string raised %s" (Printexc.to_string e)
      | Error _ -> true
      | Ok inst ->
        (match Check.Oracle.ast ~jobs:1 inst with
         | exception e ->
           QCheck.Test.fail_reportf "routing raised %s" (Printexc.to_string e)
         | r ->
           Array.for_all
             (fun d -> Float.is_finite d && d >= 0.)
             r.evaluation.delays
           || QCheck.Test.fail_reportf "delays outside [0, inf): max %g, min %g"
                r.evaluation.max_delay r.evaluation.min_delay))

(* --- Io: the one-pass parser and the %.17g printer against the spec ------ *)

(* [Io.float_to_string] is [Printf.sprintf "%.17g"] byte for byte, and
   reads back to the same bits. *)
let g17_agrees x =
  let got = Io.float_to_string x and want = Printf.sprintf "%.17g" x in
  if got <> want then QCheck.Test.fail_reportf "%h: printed %S, Printf %S" x got want;
  Float.is_nan x
  || Int64.equal (Int64.bits_of_float (float_of_string got)) (Int64.bits_of_float x)
  || QCheck.Test.fail_reportf "%h: %S does not read back" x got

(* Doubles of every kind: any finite 64-bit pattern (mostly far outside
   the integer printer's range), doubles with a random mantissa across
   and around that range, powers of ten and their neighbours,
   quarter-integers, subnormals and the extremes. *)
let gen_g17 =
  let open QCheck.Gen in
  let finite_bits =
    map
      (fun (hi, lo) ->
        let x = Int64.float_of_bits (Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)) in
        if Float.is_finite x then x else 1.)
      (pair (int_bound 0xFFFFFFFF) (int_bound 0xFFFFFFFF))
  in
  let in_range =
    map3
      (fun neg e m ->
        let x = Float.ldexp (1. +. (Float.of_int m /. 4503599627370496.)) e in
        if neg then -.x else x)
      bool (int_range (-45) 62) (int_bound ((1 lsl 52) - 1))
  in
  let near_pow10 =
    map2
      (fun k step ->
        let p = float_of_string ("1e" ^ string_of_int k) in
        match step with 0 -> p | 1 -> Float.succ p | _ -> Float.pred p)
      (int_range (-30) 30) (int_bound 2)
  in
  let halves = map (fun k -> Float.of_int k /. 4.) (int_range (-100_000) 100_000) in
  let special =
    oneofl
      [ 0.; -0.; Float.min_float; -.Float.min_float; 4.9e-324; -4.9e-324;
        Float.max_float; -.Float.max_float; 1234567890123456.25; 1234567890123456.75;
        0.1; 0.2; 0.3; 1e-5; 9.9999999999999995e-05; 1e-4; 0.0001; 99999999999999984.;
        1e17; 5e-324; 2.2250738585072009e-308; 1e16; 9007199254740993.; 0.5; 1.5; 2.5 ]
  in
  frequency [ (3, finite_bits); (5, in_range); (2, near_pow10); (1, halves); (1, special) ]

let prop_g17_printf =
  QCheck.Test.make ~name:"float_to_string = Printf %.17g, reads back" ~count:20_000
    (QCheck.make ~print:(Printf.sprintf "%h") gen_g17)
    g17_agrees

let test_g17_exact_ties () =
  List.iter
    (fun x -> ignore (g17_agrees x))
    [ 1234567890123456.25; 1234567890123456.75; 12345678901234567.; 0.5; 2.5e-5;
      1e-10; 1.0000000000000001e-10; 9.999999999999999e-11; 1e22; 1e23; nan; infinity;
      neg_infinity ]

(* --- Io: the exact decimal reader against float_of_string ---------------- *)

(* Number spellings at the reader's edges: signs and bare points, the
   largest double and the first past it, the smallest normal and
   subnormal, and exponents beyond the table; then spellings outside its
   grammar, which [float_of_string] reads or rejects on its own. *)
let decimal_edges =
  [| "-0"; "5."; "1E+2"; "1.7976931348623157e308"; "1.8e308"; "2.2250738585072014e-308";
     "4.9406564584124654e-324"; "1e-400"; "1e400"; "+1"; "1_0.5"; "\t1.5"; ".5"; "0x1p3";
     "nan"; "inf"; "-inf"; "infinity"; "1e"; "1e+"; "-."; "1.2.3"; "1e5.5"; "1.5 " |]

(* Which answers the reader may give: [`Decide] tokens must be read
   (in the grammar, at most 18 significant digits, a normal value),
   [`Decline] tokens must go to [float_of_string], and [`Either] may
   do either, like an exact midpoint between two doubles. *)
let decimal_agrees (token, expect) =
  let bits = Int64.bits_of_float in
  match (Io.decimal token, float_of_string_opt token) with
  | Some v, _ when expect = `Decline -> QCheck.Test.fail_reportf "%S read as %h, not declined" token v
  | Some v, Some r when Int64.equal (bits v) (bits r) -> true
  | Some v, r ->
    QCheck.Test.fail_reportf "%S read as %h; float_of_string gives %s" token v
      (match r with Some r -> Printf.sprintf "%h" r | None -> "an error")
  | None, _ when expect = `Decide -> QCheck.Test.fail_reportf "%S declined" token
  | None, _ -> true

let pow5_int k = int_of_float (5. ** float_of_int k)

(* The decimal digits of [n >= 0] with a point [f] digits from the right. *)
let with_point n f =
  let d = Printf.sprintf "%0*d" (f + 1) n in
  if f = 0 then d
  else String.sub d 0 (String.length d - f) ^ "." ^ String.sub d (String.length d - f) f

let gen_decimal =
  let open QCheck.Gen in
  let any_double =
    map2
      (fun hi lo ->
        Int64.float_of_bits (Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)))
      (int_bound 0xFFFFFFFF) (int_bound 0xFFFFFFFF)
  in
  let printed =
    map2
      (fun x digits ->
        let t = Printf.sprintf "%.*g" digits x in
        let a = Float.abs x in
        let writer_like = digits <= 17 && (a = 0. || (a >= 1e-300 && a <= 1e300)) in
        (t, if writer_like then `Decide else `Either))
      any_double (oneofl [ 15; 17; 20; 25 ])
  in
  (* [(2m+1)·2^(e-1)], the midpoint between [m·2^e] and its successor,
     exactly, for 2^52 <= m < 2^53 and -2 <= e <= 6, or one unit either
     side in its last digit (up to 19 digits) *)
  let midpoint =
    map3
      (fun m e side ->
        let odd = (2 * m) + 1 in
        let n, f = if e >= 1 then (odd lsl (e - 1), 0) else (odd * pow5_int (1 - e), 1 - e) in
        ( with_point (n + side) f,
          if side <> 0 && n + side < 1_000_000_000_000_000_000 then `Decide else `Either ))
      (int_range (1 lsl 52) ((1 lsl 53) - 1)) (int_range (-2) 6) (int_range (-1) 1)
  in
  (* [u·10^q] for odd [u] with [5^q·u] in [2^53, 2^54): the midpoint
     between [(5^q·u - 1)·2^q] and [(5^q·u + 1)·2^q], a tie at q > 0 *)
  let tie =
    int_range 1 22 >>= fun q ->
    let p = pow5_int q in
    map
      (fun k -> (Printf.sprintf "%de%d" ((2 * k) + 1) q, `Either))
      (int_range (((1 lsl 53) / p) / 2) ((((1 lsl 54) / p) - 1) / 2))
  in
  (* 18 or 19 significant digits behind up to three leading zeros, a
     point anywhere after the first digit or none, any exponent *)
  let long =
    map4
      (fun digits lead point exp ->
        let body = String.make lead '0' ^ digits in
        let n = String.length body and p = 1 + point in
        let t = if p >= n then body else String.sub body 0 p ^ "." ^ String.sub body p (n - p) in
        ((if exp = 0 then t else Printf.sprintf "%se%d" t exp), `Either))
      (map2 (fun d rest -> String.make 1 d ^ rest) (char_range '1' '9')
         (string_size ~gen:numeral (int_range 17 18)))
      (int_bound 3) (int_bound 25) (int_range (-330) 310)
  in
  let edge =
    map
      (fun t ->
        ( t,
          match t with
          | "-0" | "5." | "1E+2" | "1.7976931348623157e308" | "2.2250738585072014e-308" -> `Decide
          | _ -> `Decline ))
      (oneofa decimal_edges)
  in
  frequency [ (6, printed); (3, midpoint); (1, tie); (2, long); (1, edge) ]

let prop_decimal =
  QCheck.Test.make ~name:"decimal reader = float_of_string, bit for bit" ~count:100_000
    (QCheck.make ~print:(fun (t, _) -> Printf.sprintf "%S" t) gen_decimal)
    decimal_agrees

let test_decimal_cases () =
  (* significands just below a power of two, whose nearest double is
     that power, at 81 decimal exponents; some negative ones are exact
     ties, which the reader declines *)
  for k = 54 to 59 do
    for q = -40 to 40 do
      let token = Printf.sprintf "%de%d" ((1 lsl k) - 1) q in
      ignore (decimal_agrees (token, if q >= 0 then `Decide else `Either))
    done
  done;
  List.iter
    (fun case -> ignore (decimal_agrees case))
    [ ("0", `Decide); ("-0", `Decide); ("00.000e-99999999", `Decline); ("0e400", `Decline);
      ("1", `Decide); ("-1", `Decide); ("5.", `Decide); ("1E+2", `Decide); ("1e-0", `Decide);
      ("0.1", `Decide); ("0.30000000000000004", `Decide); ("9007199254740993", `Decide);
      ("9007199254740995", `Decide); ("4503599627370496.5", `Either);
      ("4503599627370497.5", `Either); ("123456789012345678", `Decide);
      ("1234567890123456789", `Decline); ("000000000000000000000123", `Decide);
      ("0.000000000000000000000000000000000000001", `Decide);
      ("1.7976931348623157e308", `Decide); ("1.7976931348623158e308", `Decide);
      ("1.7976931348623159e308", `Decline); ("2.2250738585072014e-308", `Decide);
      ("2.2250738585072011e-308", `Decline); ("1e-325", `Decline); ("1e22", `Decide);
      ("9007199254740991", `Decide);
      ("1e23", `Decide); ("8.98846567431158e307", `Decide); ("1e0000000000000000001", `Decide) ]

(* The reader settles every number of the benchmark's instance texts:
   Tables I-II's fifty r1-r5 instances and the fixed s100k. *)
let test_decimal_declines_no_benchmark_token () =
  let check what inst =
    let n = Io.declined (Io.to_string inst) in
    if n <> 0 then Alcotest.failf "%s: %d tokens declined" what n
  in
  List.iter
    (fun scheme ->
      List.iter
        (fun (spec : Workload.Circuits.spec) ->
          List.iter
            (fun n_groups ->
              check spec.name (Workload.Circuits.instance spec ~n_groups ~scheme ~bound:10. ()))
            [ 1; 4; 6; 8; 10 ])
        Workload.Circuits.specs)
    Workload.Partition.[ Clustered; Intermingled ];
  let n = 100_000 in
  check "s100k"
    (Workload.Circuits.instance
       { name = "s100k"; n_sinks = n; die = 2000. *. sqrt (float_of_int n) }
       ~n_groups:8 ~scheme:Workload.Partition.Intermingled ~bound:10. ())

(* Instance texts for the differential property: [prop_io_hostile]'s
   mutations, plus white space, number spellings, comments and records
   that only the token rules, the duplicate rules or the id order tell
   apart. *)
let odd_numbers = Array.append
    [| "+1"; "0x1"; "1_0"; "1."; "-0"; "007"; "0b1"; "1e2"; "0x1p3"; "-";
       "+"; "1e400"; "_1"; "0u5"; "9223372036854775807"; "-0.0"; ".5" |]
    decimal_edges

let mutate_more text (op, a, b) =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let n = Array.length lines in
  let l = a mod n in
  let join ls = String.concat "\n" (Array.to_list ls) in
  let replace_char c by s =
    let idx = List.filter (fun i -> s.[i] = c) (List.init (String.length s) Fun.id) in
    match idx with
    | [] -> s
    | _ ->
      let i = List.nth idx (b mod List.length idx) in
      String.sub s 0 i ^ by ^ String.sub s (i + 1) (String.length s - i - 1)
  in
  match op with
  | 0 | 1 | 2 | 3 | 4 -> mutate text (op, a, b)
  | 5 -> replace_char ' ' (if b mod 2 = 0 then "\t" else "  ") text
  | 6 -> if b mod 2 = 0 then replace_char '\n' "\r\n" text
         else String.concat "\r\n" (String.split_on_char '\n' text)
  | 7 ->
    let toks = Array.of_list (String.split_on_char ' ' lines.(l)) in
    let k = Array.length toks in
    if k > 1 then toks.(1 + (b mod (k - 1))) <- odd_numbers.(b mod Array.length odd_numbers);
    lines.(l) <- String.concat " " (Array.to_list toks);
    join lines
  | 8 ->
    lines.(l) <- lines.(l) ^ (match b mod 3 with 0 -> "#" | 1 -> " # note" | _ -> "\t#x y");
    join lines
  | 9 ->
    let m = b mod n in
    let t = lines.(l) in
    lines.(l) <- lines.(m);
    lines.(m) <- t;
    join lines
  | 10 -> text ^ Printf.sprintf "\ngroupbound %d %d" (b mod 3) (a mod 50)
  | 11 -> Printf.sprintf "sink %d %d %d 1 %d\n" (a mod 7) (b mod 90) a (b mod 2) ^ text
  | _ -> String.map (fun c -> if c = ' ' && b mod 5 = 0 then '\t' else c) lines.(l) ^ "\n" ^ text

let same_parse text =
  let sink_bits (s : Sink.t) =
    (s.id, Int64.bits_of_float s.loc.x, Int64.bits_of_float s.loc.y,
     Int64.bits_of_float s.cap, s.group)
  in
  match (Io.of_string text, Io_reference.of_string text) with
  | exception e -> QCheck.Test.fail_reportf "Io.of_string raised %s" (Printexc.to_string e)
  | Error a, Error b -> a = b || QCheck.Test.fail_reportf "error %S, reference %S" a b
  | Ok a, Ok b ->
    (Io.to_string a = Io_reference.to_string b
     && Array.map sink_bits a.sinks = Array.map sink_bits b.sinks
     && Array.init a.n_groups (Instance.bound_for a)
        = Array.init b.n_groups (Instance.bound_for b))
    || QCheck.Test.fail_reportf "parsed instances differ"
  | Ok _, Error b -> QCheck.Test.fail_reportf "accepted; the reference says %S" b
  | Error a, Ok _ -> QCheck.Test.fail_reportf "rejected with %S; the reference accepts" a

let prop_io_differential =
  let gen =
    QCheck.Gen.(list_size (1 -- 5) (triple (0 -- 12) (0 -- 10_000) (0 -- 10_000)))
  in
  QCheck.Test.make ~name:"of_string = reference parser (value or error)" ~count:3000
    (QCheck.make ~print:(fun muts -> String.escaped (List.fold_left mutate_more hostile_base muts)) gen)
    (fun muts -> same_parse (List.fold_left mutate_more hostile_base muts))

let test_io_differential_cases () =
  (* a [#] and the line ends after it at every offset of an 8-byte block *)
  for k = 0 to 15 do
    ignore
      (same_parse
         (Printf.sprintf "source 0 0\ngroups 1\nsink 0 %s 2 3 0#x\n#%s\nbound 1"
            (String.make (k + 1) '1') (String.make k 'y')))
  done;
  List.iter
    (fun text -> ignore (same_parse text))
    [ ""; "\n"; "#"; "groups 1"; "source 0 0"; "source 0 0\ngroups 0";
      "source 0 0\ngroups 1\nsink 0 1 2 3 0";
      "source 0 0\ngroups 1\nsink 1 1 2 3 0\nsink 0 4 5 6 0";
      "source 0 0\ngroups 2\nsink 1 1 2 3 0\nsink 1 4 5 6 1";
      "source 0 0\ngroups 2\nsink 1 1 2 3 0\nsink 1 4 5 6 5\nsink 0 1 1 1 0";
      "source 0 0\ngroups 1\nsink -1 1 2 3 0\nsink 0 4 5 6 0";
      "source 0 0\ngroups 1\nsink 0 1 2 3 0\nsink 5 4 5 6 0";
      "source 0 0\ngroups 2\nsink 0 1 2 3 1\nsink 0 4 5 6 0\nsink 2 1 1 1 0";
      "source 0 0\ngroups 2\ngroupbound 1 4\ngroupbound 1 6\nsink 0 1 2 3 1\nsink 1 1 1 1 0";
      "source 0 0\r\ngroups 1\r\nsink 0 1 2 3 0\r\n";
      "source\t0 0\ngroups 1\nsink 0 1 2 3 0";
      " \t source 0 0 \t\ngroups  1#\nsink 0 +1 0x1 1_0 0 # x";
      "source 0 0\ngroups 1\nsink 0 1 2 3 0 extra";
      "source 0 0\ngroups 1\nsink 00 1 2 3 -0";
      "source 0 0\ngroups 1\nsink 1234567890123456789 1 2 3 0";
      "source 0 0\ngroups 1\nsink 0 1 2 3 0\nparams 1";
      "source 0 0\ngroups 1\nsink 0 1 2 3 0\n#params 1\n\n\n";
      "groups 1\nsource 0.000000001 7#\nsink 0 1 2 3 0 #\t\r\ndriver 12.5\r\n#1234567\n" ]

(* The writer against the Printf writer it replaces, on every instance
   the benchmark writes: Tables I-II's fifty r1-r5 instances, the fixed
   s100k and the 2700 difficult_mix fuzz cases (fuzz seed 1, which
   include the first 900 of [bench fuzz --seed 1]). *)
let test_io_writer_identical () =
  let check what (inst : Instance.t) =
    let text = Io.to_string inst in
    if text <> Io_reference.to_string inst then Alcotest.failf "%s: text differs" what;
    match Io.of_string text with
    | Ok i when Io.to_string i = text -> ()
    | _ -> Alcotest.failf "%s: does not re-serialize identically" what
  in
  List.iter
    (fun scheme ->
      List.iter
        (fun (spec : Workload.Circuits.spec) ->
          List.iter
            (fun n_groups ->
              check spec.name
                (Workload.Circuits.instance spec ~n_groups ~scheme ~bound:10. ()))
            [ 1; 4; 6; 8; 10 ])
        Workload.Circuits.specs)
    Workload.Partition.[ Clustered; Intermingled ];
  let n = 100_000 in
  check "s100k"
    (Workload.Circuits.instance
       { name = "s100k"; n_sinks = n; die = 2000. *. sqrt (float_of_int n) }
       ~n_groups:8 ~scheme:Workload.Partition.Intermingled ~bound:10. ());
  for index = 0 to 2699 do
    check (Printf.sprintf "fuzz case %d" index)
      (Check.Gen.case ~seed:1L ~index ()).instance
  done

(* 10^5 sinks in 10^5 groups, a groupbound record for every group and a
   second one for every seventh: the last record wins, and resolving them
   is one pass (a list search per group took about 25 s here). *)
let test_io_many_group_bounds () =
  let n = 100_000 in
  let b = Buffer.create (n * 48) in
  Buffer.add_string b (Printf.sprintf "source 0 0\nbound 3\ngroups %d\n" n);
  for g = 0 to n - 1 do
    Printf.bprintf b "sink %d %d %d 1 %d\ngroupbound %d %d\n" g (g mod 300) (g / 300) g g
      (g mod 100)
  done;
  for g = 0 to n - 1 do
    if g mod 7 = 0 then Printf.bprintf b "groupbound %d %d.5\n" g (g mod 11)
  done;
  let t0 = Sys.time () in
  match Io.of_string (Buffer.contents b) with
  | Error e -> Alcotest.fail e
  | Ok inst ->
    let dt = Sys.time () -. t0 in
    Alcotest.(check int) "groups" n inst.n_groups;
    for g = 0 to n - 1 do
      let want = if g mod 7 = 0 then float_of_int (g mod 11) +. 0.5 else float_of_int (g mod 100) in
      if Instance.bound_for inst g <> want then
        Alcotest.failf "group %d: bound %g, want %g" g (Instance.bound_for inst g) want
    done;
    if dt > 5. then Alcotest.failf "parsing took %.1f s" dt

(* --- Svg ------------------------------------------------------------------ *)

let test_svg_renders () =
  let _, _, routed = two_sink_tree () in
  let inst =
    Instance.make ~source:(pt 0. 0.) ~n_groups:1
      [| sink 0 10. 0. 0; sink 1 (-10.) 0. 0 |]
  in
  let svg = Svg.render inst routed in
  let contains_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m > 0 && go 0
  in
  Alcotest.(check bool) "is svg" true (contains_sub svg "<svg");
  Alcotest.(check bool) "has sinks" true (contains_sub svg "<circle");
  Alcotest.(check bool) "has wires" true (contains_sub svg "<path");
  Alcotest.(check bool) "has source marker" true (contains_sub svg "<rect x=")

let () =
  Alcotest.run "clocktree"
    [
      ( "instance",
        [
          Alcotest.test_case "validation" `Quick test_instance_validation;
          Alcotest.test_case "non-finite rejected" `Quick
            test_instance_rejects_non_finite;
          Alcotest.test_case "diameter = bbox diameter" `Quick test_instance_diameter;
        ] );
      ( "tree",
        [
          Alcotest.test_case "metrics" `Quick test_tree_metrics;
          Alcotest.test_case "snaking counted" `Quick test_tree_snaking_counted;
          Alcotest.test_case "short edge rejected" `Quick test_tree_rejects_short_edge;
        ] );
      ( "evaluate",
        [
          Alcotest.test_case "hand check" `Quick test_evaluate_hand_check;
          Alcotest.test_case "matches direct recursion" `Quick
            test_evaluate_matches_direct_recursion;
        ] );
      ( "repair",
        [
          Alcotest.test_case "balances a pair" `Quick test_repair_balances_pair;
          Alcotest.test_case "bound slack" `Quick test_repair_respects_bound_slack;
          Alcotest.test_case "cross-group free" `Quick test_repair_ignores_cross_group;
          Alcotest.test_case "per-group bounds" `Quick test_repair_per_group_bounds;
        ]
        @ qsuite [ prop_repair_enforces_bound ] );
      ( "arena",
        [
          Alcotest.test_case "deep comb stack safety" `Quick
            test_deep_comb_stack_safety;
          Alcotest.test_case "repair's delays = serial sweep" `Quick
            test_repair_delays_are_serial_sweep;
          Alcotest.test_case "no-op preserves tree" `Quick
            test_repair_noop_preserves_tree;
          Alcotest.test_case "budget exhaustion" `Quick
            test_repair_budget_exhaustion;
          Alcotest.test_case "default budget converges" `Quick
            test_repair_default_budget_converges;
        ]
        @ qsuite [ prop_arena_roundtrip ] );
      ( "bounds",
        [ Alcotest.test_case "per-group accessors" `Quick test_per_group_bounds ] );
      ( "io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "errors" `Quick test_io_errors;
          Alcotest.test_case "comments and order" `Quick test_io_comments_and_order;
          Alcotest.test_case "%.17g exact ties and specials" `Quick test_g17_exact_ties;
          Alcotest.test_case "differential cases" `Quick test_io_differential_cases;
          Alcotest.test_case "writer = Printf writer on benchmark instances" `Quick
            test_io_writer_identical;
          Alcotest.test_case "10^5 group bounds, last wins" `Quick
            test_io_many_group_bounds;
          Alcotest.test_case "decimal reader cases" `Quick test_decimal_cases;
          Alcotest.test_case "decimal reader declines no benchmark token" `Quick
            test_decimal_declines_no_benchmark_token;
        ]
        @ qsuite [ prop_io_hostile; prop_g17_printf; prop_io_differential; prop_decimal ] );
      ("svg", [ Alcotest.test_case "renders" `Quick test_svg_renders ]);
    ]
