(* Tests for the public router API. *)

module Pt = Geometry.Pt
module Spec = Astskew.Router.Spec
open Clocktree

(* [algorithm]'s default route, at [jobs] when given. *)
let route ?run ?jobs algorithm inst =
  let config = (Spec.default algorithm).config in
  let config = { config with jobs = Option.value jobs ~default:config.jobs } in
  Astskew.Router.route ?run (Result.get_ok (Spec.make ~config algorithm)) inst

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
  let r = route Greedy_dme inst in
  (* Zero-skew routing ignores groups: global skew ~0. *)
  Alcotest.(check bool) "global skew ~ 0" true (r.evaluation.global_skew <= 1e-4);
  Alcotest.(check bool) "positive wirelength" true (r.evaluation.wirelength > 0.)

let test_ext_bst_within_bound () =
  let inst = mk_instance 60 ~n_groups:3 ~bound:10. in
  let r = route Ext_bst inst in
  (* Global skew bounded by 10 ps, hence every group too. *)
  Alcotest.(check bool) "global skew <= bound" true
    (r.evaluation.global_skew <= 10. +. 1e-4);
  Alcotest.(check bool) "group skews <= bound" true
    (r.evaluation.max_group_skew <= 10. +. 1e-4)

let test_ast_dme_within_bound_only_per_group () =
  let inst = mk_instance 120 ~n_groups:6 ~bound:10. in
  let r = route Ast_dme inst in
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
  let ext = route Ext_bst inst in
  let ast = route Ast_dme inst in
  let red = Astskew.Router.reduction ~baseline:ext ast in
  Alcotest.(check bool)
    (Printf.sprintf "AST reduces wirelength (got %.2f%%)" (100. *. red))
    true (red > 0.02)

let test_mmm_dme () =
  let inst = mk_instance 80 ~n_groups:4 ~bound:10. in
  let r = route Mmm_dme inst in
  Alcotest.(check bool) "constraints hold" true
    (r.evaluation.max_group_skew <= 10. +. 1e-4);
  Alcotest.(check bool) "positive wirelength" true (r.evaluation.wirelength > 0.);
  (* MMM is a reasonable topology: within 2x of the greedy engine. *)
  let ast = route Ast_dme inst in
  Alcotest.(check bool)
    (Printf.sprintf "mmm %.0f within 2x of greedy %.0f"
       r.evaluation.wirelength ast.evaluation.wirelength)
    true
    (r.evaluation.wirelength < 2. *. ast.evaluation.wirelength)

let test_reduction_sign () =
  let inst = mk_instance 40 ~n_groups:2 ~bound:10. in
  let a = route Ext_bst inst in
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
  let base = route Greedy_dme inst in
  Alcotest.(check (float 1e-12)) "baseline wirelength is zero" 0.
    base.evaluation.wirelength;
  let red = Astskew.Router.reduction ~baseline:base base in
  Alcotest.(check bool) "reduction is finite" true (Float.is_finite red);
  Alcotest.(check (float 1e-12)) "reduction is zero" 0. red

let test_timings_recorded () =
  let inst = mk_instance 40 ~n_groups:2 ~bound:10. in
  let r = route Ast_dme inst in
  let t = r.timings in
  Alcotest.(check bool) "phase timings non-negative" true
    (t.engine_s >= 0. && t.repair_s >= 0. && t.evaluate_s >= 0.);
  Alcotest.(check bool) "total covers phases" true
    (t.total_s +. 1e-9 >= t.engine_s +. t.repair_s +. t.evaluate_s)

let test_cpu_time_recorded () =
  let inst = mk_instance 40 ~n_groups:2 ~bound:10. in
  let r = route Ast_dme inst in
  Alcotest.(check bool) "cpu time non-negative" true (r.cpu_seconds >= 0.)

let test_pp_result_smoke () =
  let inst = mk_instance 30 ~n_groups:2 ~bound:10. in
  let r = route Ast_dme inst in
  let s = Format.asprintf "%a" Astskew.Router.pp_result r in
  Alcotest.(check bool) "non-empty" true (String.length s > 10)

let test_json_of_result_probe_counters () =
  (* The probe counters the bench harness and astroute --stats-json key
     on must be present in the engine object and consistent with the
     stats record — parse the emitted schema-2 document back rather than
     substring matching.  The retired, always-zero [nn_probes_saved] is
     no longer written. *)
  let inst = mk_instance 60 ~n_groups:2 ~bound:10. in
  let r = route Ast_dme inst in
  let json =
    Obs.Json.of_string
      (Obs.Json.to_string (Astskew.Router.json_of_results [ ("AST-DME", r) ]))
  in
  let field name = function
    | Obs.Json.Obj fields -> List.assoc_opt name fields
    | _ -> None
  in
  Alcotest.(check bool) "schema 2" true (field "schema" json = Some (Obs.Json.Int 2));
  Alcotest.(check bool) "no process-wide obs block" true (field "obs" json = None);
  match Option.bind (Option.bind (field "results" json) (field "AST-DME")) (field "engine") with
  | None -> Alcotest.fail "missing results.AST-DME.engine object"
  | Some engine ->
    Alcotest.(check bool) "nn_probes_saved is gone" true
      (field "nn_probes_saved" engine = None);
    let int name =
      match field name engine with
      | Some (Obs.Json.Int i) -> i
      | _ -> Alcotest.failf "missing or non-int engine.%s" name
    in
    let reprobes = int "nn_reprobes" and queries = int "nn_queries" in
    let cells = int "nn_cells" and entries = int "nn_entries" in
    Alcotest.(check int) "nn_reprobes" r.engine.nn_reprobes reprobes;
    Alcotest.(check int) "nn_queries" r.engine.nn_queries queries;
    Alcotest.(check int) "nn_cells" r.engine.nn_cells cells;
    Alcotest.(check int) "nn_entries" r.engine.nn_entries entries;
    Alcotest.(check bool) "probes were executed" true (reprobes > 0);
    Alcotest.(check bool) "a query per probe at least" true (queries >= reprobes);
    Alcotest.(check bool) "a cell per query at least" true (cells >= queries);
    Alcotest.(check bool) "entries were scanned" true (entries > 0)

(* Stats are route-scoped: two pooled routes running at once, each on
   its own spawned domain with its own 2-domain pool (five domains in
   all), must each report exactly what the same route reports alone —
   every engine count, k-NN grid work included, and the tree.  r4's
   1,903 sinks are above the pool's 1000-sink grain, so both routes
   really probe in parallel chunks.  A tally shared across routes, as a
   process-global counter is, would show up in both. *)
let test_stats_route_scoped () =
  let spec = Option.get (Workload.Circuits.find "r4") in
  let inst =
    Workload.Circuits.instance spec ~n_groups:8
      ~scheme:Workload.Partition.Intermingled ~bound:10. ()
  in
  let routes =
    [
      ("AST-DME", fun () -> route ~jobs:2 Ast_dme inst);
      ("EXT-BST", fun () -> route ~jobs:2 Ext_bst inst);
    ]
  in
  let solo = List.map (fun (_, route) -> route ()) routes in
  let together =
    List.map (fun (_, route) -> Domain.spawn route) routes |> List.map Domain.join
  in
  List.iter2
    (fun ((name, _), alone) concurrent ->
      Alcotest.(check bool) (name ^ " probed the grid") true
        (alone.Astskew.Router.engine.nn_cells > 0);
      Alcotest.(check (list string)) (name ^ " matches its solo run") []
        (Check.Oracle.diffs (Check.Oracle.of_result concurrent)
           (Check.Oracle.of_result alone)))
    (List.combine routes solo) together

(* Tracing must be semantically inert: routing with a live trace
   produces the exact tree, delays, wirelength and engine stats of the
   untraced run, while the journal's per-round records sum to the
   engine's aggregate counters. *)
let test_trace_identity () =
  let inst = mk_instance 80 ~n_groups:4 ~bound:10. in
  let base = route Ast_dme inst in
  List.iter
    (fun jobs ->
      let trace = Obs.Trace.create () in
      let traced =
        route ~jobs ~run:{ Obs.Run.null with trace } Ast_dme inst
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
      Alcotest.(check bool)
        (Printf.sprintf "elided trials counted (jobs=%d)" jobs)
        true
        (traced.engine.trial.elided_trials > 0);
      Alcotest.(check int)
        (Printf.sprintf "journal elided trials sum (jobs=%d)" jobs)
        traced.engine.trial.elided_trials (sum "trial_elided");
      let e = traced.engine in
      let merges = e.same_group + e.cross_group + e.shared_one + e.shared_multi in
      Alcotest.(check int)
        (Printf.sprintf "journal merges sum (jobs=%d)" jobs)
        merges (sum "merges");
      (* One [merge] instant per merge, emitted in install order, whose
         planned wires add up bit for bit to the last round's running
         total. *)
      let wires =
        List.filter_map
          (fun (ev : Obs.Trace.event) ->
            match (ev.name, List.assoc_opt "planned_wire" ev.args) with
            | "merge", Some (Obs.Json.Float w) -> Some w
            | _ -> None)
          (Obs.Trace.events trace)
      in
      Alcotest.(check int)
        (Printf.sprintf "one merge instant per merge (jobs=%d)" jobs)
        merges (List.length wires);
      let cum_wire =
        match List.assoc_opt "cum_planned_wire" (List.nth rounds (List.length rounds - 1)) with
        | Some (Obs.Json.Float w) -> w
        | _ -> Alcotest.fail "the last round record has no cum_planned_wire"
      in
      Alcotest.(check string)
        (Printf.sprintf "merge instants sum to cum_planned_wire (jobs=%d)" jobs)
        (Printf.sprintf "%h" cum_wire)
        (Printf.sprintf "%h" (List.fold_left ( +. ) 0. wires));
      Alcotest.(check bool)
        (Printf.sprintf "trace captured spans (jobs=%d)" jobs)
        true
        (Obs.Trace.events trace <> []))
    [ 1; 2; 4 ]

(* Every algorithm's route stamps the run manifest and produces a
   Chrome export that re-parses with a non-empty traceEvents list. *)
let test_trace_router_manifest () =
  let inst = mk_instance 40 ~n_groups:2 ~bound:10. in
  List.iter
    (fun algorithm ->
      let name = Spec.name algorithm in
      let trace = Obs.Trace.create () in
      let (_ : Astskew.Router.result) =
        route ~run:{ Obs.Run.null with trace } algorithm inst
      in
      match
        Obs.Json.of_string (Obs.Json.to_string (Obs.Trace.to_chrome trace))
      with
      | Obs.Json.Obj fields ->
        (match List.assoc_opt "otherData" fields with
         | Some (Obs.Json.Obj manifest) ->
           Alcotest.(check bool) (name ^ " manifest names the router") true
             (List.assoc_opt "router" manifest = Some (Obs.Json.String name));
           Alcotest.(check bool) (name ^ " manifest has engine_config") true
             (name = "ext_bst" || List.mem_assoc "engine_config" manifest)
         | _ -> Alcotest.fail (name ^ ": manifest should be an object"));
        (match List.assoc_opt "traceEvents" fields with
         | Some (Obs.Json.List (_ :: _)) -> ()
         | _ -> Alcotest.fail (name ^ ": traceEvents empty or missing"))
      | _ -> Alcotest.fail (name ^ ": chrome export should be an object"))
    Spec.algorithms

(* A spec is validated once, up front: every default is accepted, and
   each invalid field is rejected with a message naming it. *)
let test_spec_validation () =
  List.iter
    (fun algorithm ->
      let d = Spec.default algorithm in
      Alcotest.(check bool)
        (Spec.name algorithm ^ " default is accepted") true
        (Spec.make ~config:d.config ?clustering:d.clustering algorithm
         = Ok d))
    Spec.algorithms;
  let rejects what ?config ?clustering algorithm =
    match Spec.make ?config ?clustering algorithm with
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error msg ->
      let named =
        String.length msg >= String.length what
        && String.sub msg 0 (String.length what) = what
      in
      Alcotest.(check bool)
        (Printf.sprintf "%S names %s" msg what) true named
  in
  let clustering ?clusters ?depth () = { Spec.clusters; depth } in
  List.iter
    (fun jobs ->
      rejects "jobs" ~config:{ Dme.Engine.default with jobs } Ext_bst)
    [ 0; -1 ];
  rejects "clusters" ~clustering:(clustering ~clusters:0 ()) Ast_dme;
  rejects "depth" ~clustering:(clustering ~depth:0 ()) Greedy_dme;
  rejects "clustering" ~clustering:(clustering ()) Mmm_dme;
  Alcotest.(check bool) "clustered EXT-BST is accepted" true
    (Result.is_ok
       (Spec.make ~clustering:(clustering ~clusters:4 ~depth:2 ()) Ext_bst))

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
          Alcotest.test_case "spec validation" `Quick test_spec_validation;
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
          Alcotest.test_case "stats are route-scoped" `Quick
            test_stats_route_scoped;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "semantically inert + journal sums" `Quick
            test_trace_identity;
          Alcotest.test_case "router manifests + chrome export" `Quick
            test_trace_router_manifest;
        ] );
    ]
