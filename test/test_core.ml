(* Tests for the public router API. *)

module Pt = Geometry.Pt
open Clocktree

let pt = Pt.make

let mk_instance ?(seed = 7L) n ~n_groups ~bound =
  let rng = Workload.Rng.create seed in
  let sinks =
    Array.init n (fun i ->
        Sink.make ~id:i
          ~loc:(pt (Workload.Rng.float_range rng 0. 20000.)
                  (Workload.Rng.float_range rng 0. 20000.))
          ~cap:(Workload.Rng.float_range rng 20. 80.)
          ~group:(i mod n_groups))
  in
  Instance.make ~bound ~source:(pt 10000. 10000.) ~n_groups sinks

let test_greedy_dme_zero_skew () =
  let inst = mk_instance 60 ~n_groups:3 ~bound:10. in
  let r = Astskew.Router.greedy_dme inst in
  (* Zero-skew routing ignores groups: global skew ~0. *)
  Alcotest.(check bool) "global skew ~ 0" true (r.evaluation.global_skew <= 1e-4);
  Alcotest.(check bool) "positive wirelength" true (r.evaluation.wirelength > 0.)

let test_ext_bst_within_bound () =
  let inst = mk_instance 60 ~n_groups:3 ~bound:10. in
  let r = Astskew.Router.ext_bst inst in
  (* Global skew bounded by 10 ps, hence every group too. *)
  Alcotest.(check bool) "global skew <= bound" true
    (r.evaluation.global_skew <= 10. +. 1e-4);
  Alcotest.(check bool) "group skews <= bound" true
    (r.evaluation.max_group_skew <= 10. +. 1e-4)

let test_ast_dme_within_bound_only_per_group () =
  let inst = mk_instance 120 ~n_groups:6 ~bound:10. in
  let r = Astskew.Router.ast_dme inst in
  Alcotest.(check bool) "group skews <= bound" true
    (r.evaluation.max_group_skew <= 10. +. 1e-4);
  (* The whole point: global skew may exceed the bound. *)
  Alcotest.(check bool) "global skew is free" true
    (r.evaluation.global_skew >= r.evaluation.max_group_skew -. 1e-9)

let test_ast_beats_ext_on_intermingled () =
  (* Fixed-seed medium instance with intermingled groups: the headline
     claim of the thesis, AST-DME < EXT-BST wirelength. *)
  let spec = Workload.Circuits.{ name = "test"; n_sinks = 200; die = 40000. } in
  let inst =
    Workload.Circuits.instance spec ~n_groups:8
      ~scheme:Workload.Partition.Intermingled ~bound:10. ()
  in
  let ext = Astskew.Router.ext_bst inst in
  let ast = Astskew.Router.ast_dme inst in
  let red = Astskew.Router.reduction ~baseline:ext ast in
  Alcotest.(check bool)
    (Printf.sprintf "AST reduces wirelength (got %.2f%%)" (100. *. red))
    true (red > 0.02)

let test_mmm_dme () =
  let inst = mk_instance 80 ~n_groups:4 ~bound:10. in
  let r = Astskew.Router.mmm_dme inst in
  Alcotest.(check bool) "constraints hold" true
    (r.evaluation.max_group_skew <= 10. +. 1e-4);
  Alcotest.(check bool) "positive wirelength" true (r.evaluation.wirelength > 0.);
  (* MMM is a reasonable topology: within 2x of the greedy engine. *)
  let ast = Astskew.Router.ast_dme inst in
  Alcotest.(check bool)
    (Printf.sprintf "mmm %.0f within 2x of greedy %.0f"
       r.evaluation.wirelength ast.evaluation.wirelength)
    true
    (r.evaluation.wirelength < 2. *. ast.evaluation.wirelength)

let test_reduction_sign () =
  let inst = mk_instance 40 ~n_groups:2 ~bound:10. in
  let a = Astskew.Router.ext_bst inst in
  Alcotest.(check (float 1e-9)) "self reduction is zero" 0.
    (Astskew.Router.reduction ~baseline:a a)

let test_reduction_degenerate_baseline () =
  (* A single sink placed exactly at the source routes with zero
     wirelength; reduction must report 0., not NaN (regression for the
     0/0 divide). *)
  let sinks = [| Sink.make ~id:0 ~loc:(pt 10000. 10000.) ~cap:35. ~group:0 |] in
  let inst =
    Instance.make ~bound:10. ~source:(pt 10000. 10000.) ~n_groups:1 sinks
  in
  let base = Astskew.Router.greedy_dme inst in
  Alcotest.(check (float 1e-12)) "baseline wirelength is zero" 0.
    base.evaluation.wirelength;
  let red = Astskew.Router.reduction ~baseline:base base in
  Alcotest.(check bool) "reduction is finite" true (Float.is_finite red);
  Alcotest.(check (float 1e-12)) "reduction is zero" 0. red

let test_timings_recorded () =
  let inst = mk_instance 40 ~n_groups:2 ~bound:10. in
  let r = Astskew.Router.ast_dme inst in
  let t = r.timings in
  Alcotest.(check bool) "phase timings non-negative" true
    (t.engine_s >= 0. && t.repair_s >= 0. && t.evaluate_s >= 0.);
  Alcotest.(check bool) "total covers phases" true
    (t.total_s +. 1e-9 >= t.engine_s +. t.repair_s +. t.evaluate_s)

let test_cpu_time_recorded () =
  let inst = mk_instance 40 ~n_groups:2 ~bound:10. in
  let r = Astskew.Router.ast_dme inst in
  Alcotest.(check bool) "cpu time non-negative" true (r.cpu_seconds >= 0.)

let test_pp_result_smoke () =
  let inst = mk_instance 30 ~n_groups:2 ~bound:10. in
  let r = Astskew.Router.ast_dme inst in
  let s = Format.asprintf "%a" Astskew.Router.pp_result r in
  Alcotest.(check bool) "non-empty" true (String.length s > 10)

let test_json_of_result_probe_counters () =
  (* The probe counters the bench harness and astroute --stats-json key
     on must be present in the engine object and consistent with the
     stats record — parse the emitted JSON back rather than substring
     matching. *)
  let inst = mk_instance 60 ~n_groups:2 ~bound:10. in
  let r = Astskew.Router.ast_dme inst in
  let json = Obs.Json.of_string (Obs.Json.to_string (Astskew.Router.json_of_result r)) in
  let field name = function
    | Obs.Json.Obj fields -> List.assoc_opt name fields
    | _ -> None
  in
  match field "engine" json with
  | None -> Alcotest.fail "missing engine object"
  | Some engine ->
    (match (field "nn_reprobes" engine, field "nn_probes_saved" engine) with
     | Some (Obs.Json.Int reprobes), Some (Obs.Json.Int saved) ->
       Alcotest.(check int) "nn_reprobes" r.engine.nn_reprobes reprobes;
       Alcotest.(check int) "nn_probes_saved" r.engine.nn_probes_saved saved;
       Alcotest.(check bool) "probes were executed" true (reprobes > 0)
     | _ -> Alcotest.fail "missing or non-int probe counters")

(* Tracing must be semantically inert: routing with a live trace
   produces the exact tree, delays, wirelength and engine stats of the
   untraced run, while the journal's per-round records sum to the
   engine's aggregate counters. *)
let test_trace_identity () =
  let inst = mk_instance 80 ~n_groups:4 ~bound:10. in
  let base = Astskew.Router.ast_dme inst in
  List.iter
    (fun jobs ->
      let trace = Obs.Trace.create () in
      let traced =
        Astskew.Router.ast_dme ~jobs ~run:{ Obs.Run.null with trace } inst
      in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "wirelength identical (jobs=%d)" jobs)
        base.evaluation.wirelength traced.evaluation.wirelength;
      Alcotest.(check bool)
        (Printf.sprintf "per-sink delays identical (jobs=%d)" jobs)
        true
        (base.evaluation.delays = traced.evaluation.delays);
      Alcotest.(check bool)
        (Printf.sprintf "engine stats identical (jobs=%d)" jobs)
        true
        (let degc (s : Dme.Engine.stats) =
           { s with gc = Obs.Gcstat.zero }
         in
         degc base.engine = degc traced.engine);
      let rounds =
        List.filter_map
          (function
            | Obs.Json.Obj fields
              when List.assoc_opt "type" fields
                   = Some (Obs.Json.String "round") ->
              Some fields
            | _ -> None)
          (Obs.Trace.journal_records trace)
      in
      let sum key =
        List.fold_left
          (fun acc fields ->
            match List.assoc_opt key fields with
            | Some (Obs.Json.Int n) -> acc + n
            | _ -> acc)
          0 rounds
      in
      Alcotest.(check int)
        (Printf.sprintf "journal round count (jobs=%d)" jobs)
        traced.engine.rounds (List.length rounds);
      Alcotest.(check int)
        (Printf.sprintf "journal probes sum (jobs=%d)" jobs)
        traced.engine.nn_reprobes (sum "probes");
      Alcotest.(check int)
        (Printf.sprintf "journal trial merges sum (jobs=%d)" jobs)
        traced.engine.trial.trial_merges (sum "trial_merges");
      Alcotest.(check int)
        (Printf.sprintf "journal cache hits sum (jobs=%d)" jobs)
        traced.engine.trial.cache_hits (sum "trial_cache_hits");
      Alcotest.(check bool)
        (Printf.sprintf "trace captured spans (jobs=%d)" jobs)
        true
        (Obs.Trace.events trace <> []))
    [ 1; 2 ]

(* Every router entry point stamps the run manifest and produces a
   Chrome export that re-parses with a non-empty traceEvents list. *)
let test_trace_router_manifest () =
  let inst = mk_instance 40 ~n_groups:2 ~bound:10. in
  List.iter
    (fun (name, route) ->
      let trace = Obs.Trace.create () in
      let (_ : Astskew.Router.result) =
        route ~run:{ Obs.Run.null with trace } inst
      in
      (match Obs.Trace.manifest trace with
       | Obs.Json.Obj fields ->
         Alcotest.(check bool) (name ^ " manifest names the router") true
           (List.assoc_opt "router" fields = Some (Obs.Json.String name));
         Alcotest.(check bool) (name ^ " manifest has engine_config") true
           (name = "ext_bst" || List.mem_assoc "engine_config" fields)
       | _ -> Alcotest.fail (name ^ ": manifest should be an object"));
      match
        Obs.Json.of_string (Obs.Json.to_string (Obs.Trace.to_chrome trace))
      with
      | Obs.Json.Obj fields ->
        (match List.assoc_opt "traceEvents" fields with
         | Some (Obs.Json.List (_ :: _)) -> ()
         | _ -> Alcotest.fail (name ^ ": traceEvents empty or missing"))
      | _ -> Alcotest.fail (name ^ ": chrome export should be an object"))
    [
      ("ast_dme", fun ~run inst -> Astskew.Router.ast_dme ~run inst);
      ("ext_bst", fun ~run inst -> Astskew.Router.ext_bst ~run inst);
      ("greedy_dme", fun ~run inst -> Astskew.Router.greedy_dme ~run inst);
      ("mmm_dme", fun ~run inst -> Astskew.Router.mmm_dme ~run inst);
    ]

let () =
  Alcotest.run "core"
    [
      ( "routers",
        [
          Alcotest.test_case "greedy-DME zero skew" `Quick test_greedy_dme_zero_skew;
          Alcotest.test_case "EXT-BST within bound" `Quick test_ext_bst_within_bound;
          Alcotest.test_case "AST-DME per-group bound only" `Quick
            test_ast_dme_within_bound_only_per_group;
          Alcotest.test_case "AST beats EXT on intermingled" `Slow
            test_ast_beats_ext_on_intermingled;
          Alcotest.test_case "MMM-DME baseline" `Quick test_mmm_dme;
        ] );
      ( "reporting",
        [
          Alcotest.test_case "reduction" `Quick test_reduction_sign;
          Alcotest.test_case "reduction on zero-wirelength baseline" `Quick
            test_reduction_degenerate_baseline;
          Alcotest.test_case "phase timings" `Quick test_timings_recorded;
          Alcotest.test_case "cpu time" `Quick test_cpu_time_recorded;
          Alcotest.test_case "pp_result" `Quick test_pp_result_smoke;
          Alcotest.test_case "json probe counters" `Quick
            test_json_of_result_probe_counters;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "semantically inert + journal sums" `Quick
            test_trace_identity;
          Alcotest.test_case "router manifests + chrome export" `Quick
            test_trace_router_manifest;
        ] );
    ]
