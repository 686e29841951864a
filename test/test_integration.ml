(* Cross-module integration tests: full routing flows on benchmark-style
   instances, Elmore-vs-transient validation, and the headline
   experimental claims at reduced scale. *)

open Clocktree

let small_r1 = Workload.Circuits.{ name = "mini"; n_sinks = 150; die = 40000. }

let test_full_flow_clustered () =
  let inst =
    Workload.Circuits.instance small_r1 ~n_groups:4
      ~scheme:Workload.Partition.Clustered ~bound:10. ()
  in
  let ext = Astskew.Router.ext_bst inst in
  let ast = Astskew.Router.ast_dme inst in
  Alcotest.(check bool) "ext within bound" true
    (ext.evaluation.max_group_skew <= 10. +. 1e-4);
  Alcotest.(check bool) "ast within bound" true
    (ast.evaluation.max_group_skew <= 10. +. 1e-4);
  (* Clustered groups: AST should be at least no worse than EXT-BST. *)
  Alcotest.(check bool)
    (Printf.sprintf "ast %.0f <= ext %.0f * 1.01" ast.evaluation.wirelength
       ext.evaluation.wirelength)
    true
    (ast.evaluation.wirelength <= 1.01 *. ext.evaluation.wirelength)

let test_full_flow_intermingled () =
  let inst =
    Workload.Circuits.instance small_r1 ~n_groups:6
      ~scheme:Workload.Partition.Intermingled ~bound:10. ()
  in
  let ext = Astskew.Router.ext_bst inst in
  let ast = Astskew.Router.ast_dme inst in
  let red = Astskew.Router.reduction ~baseline:ext ast in
  Alcotest.(check bool)
    (Printf.sprintf "reduction %.2f%% positive" (100. *. red))
    true (red > 0.);
  Alcotest.(check bool) "ast satisfies groups" true
    (ast.evaluation.max_group_skew <= 10. +. 1e-4)

let test_elmore_vs_transient_skew () =
  (* Route a small instance, simulate the RC tree, and verify the thesis'
     Chapter III claim at our scale: Elmore skew error is small even
     though absolute delay error is large. *)
  let spec = Workload.Circuits.{ name = "spice"; n_sinks = 40; die = 20000. } in
  let inst =
    Workload.Circuits.instance spec ~n_groups:1
      ~scheme:Workload.Partition.Clustered ~bound:0. ()
  in
  let r = Astskew.Router.greedy_dme inst in
  let rct, sink_index =
    Tree.to_rctree inst.params ~rd:inst.rd ~n_sinks:(Instance.n_sinks inst)
      (Arena.to_routed r.routed)
  in
  let elmore = Rc.Rctree.elmore rct in
  let sim = Rc.Transient.step_response_auto ~resolution:4000 rct in
  let delays_e = Array.map (fun i -> elmore.(i)) sink_index in
  let delays_t = Array.map (fun i -> sim.crossing.(i)) sink_index in
  Array.iter
    (fun t -> Alcotest.(check bool) "crossed" true (Float.is_nan t |> not))
    delays_t;
  let spread arr =
    Array.fold_left Float.max Float.neg_infinity arr
    -. Array.fold_left Float.min Float.infinity arr
  in
  let skew_e = spread delays_e and skew_t = spread delays_t in
  let mean arr =
    Array.fold_left ( +. ) 0. arr /. float_of_int (Array.length arr)
  in
  (* absolute delays differ a lot between the models... *)
  let delay_gap = Float.abs (mean delays_e -. mean delays_t) in
  Alcotest.(check bool) "absolute delay error is significant" true
    (delay_gap > 10. *. skew_t);
  (* ...but the zero-skew tree stays nearly zero skew in the transient
     model: skew error is a tiny fraction of the mean delay. *)
  Alcotest.(check bool)
    (Printf.sprintf "transient skew %.3f ps small vs delay %.1f ps" skew_t
       (mean delays_t))
    true
    (skew_t <= 0.02 *. mean delays_t +. 2.);
  Alcotest.(check bool) "elmore skew ~ 0" true (skew_e <= 1e-4)

let test_repair_is_noop_on_planned_trees () =
  (* A well-planned AST tree should need (almost) no repair wire. *)
  let inst =
    Workload.Circuits.instance small_r1 ~n_groups:4
      ~scheme:Workload.Partition.Intermingled ~bound:10. ()
  in
  let ast = Astskew.Router.ast_dme inst in
  Alcotest.(check bool)
    (Printf.sprintf "repair added %.1f wire" ast.repair.added_wire)
    true
    (ast.repair.added_wire <= 0.01 *. ast.evaluation.wirelength)

let test_more_groups_more_freedom () =
  (* Monotone trend at fixed seed: more groups -> AST reduction tends to
     grow (checked loosely: 10 groups beats 1 group). *)
  let run g =
    let inst =
      Workload.Circuits.instance small_r1 ~n_groups:g
        ~scheme:Workload.Partition.Intermingled ~bound:10. ()
    in
    (Astskew.Router.ast_dme inst).evaluation.wirelength
  in
  let wl1 = run 1 and wl10 = run 10 in
  Alcotest.(check bool)
    (Printf.sprintf "wl(10 groups) %.0f < wl(1 group) %.0f" wl10 wl1)
    true (wl10 < wl1)

let () =
  Alcotest.run "integration"
    [
      ( "flows",
        [
          Alcotest.test_case "clustered flow" `Slow test_full_flow_clustered;
          Alcotest.test_case "intermingled flow" `Slow test_full_flow_intermingled;
          Alcotest.test_case "repair is a no-op" `Slow
            test_repair_is_noop_on_planned_trees;
          Alcotest.test_case "groups add freedom" `Slow test_more_groups_more_freedom;
        ] );
      ( "validation",
        [
          Alcotest.test_case "elmore vs transient skew" `Slow
            test_elmore_vs_transient_skew;
        ] );
    ]
