(* Self-tests of the benchmark: its metric registry, its agreement with
   BENCHMARK.json, and its seeded inputs. *)

open Perfbench

let benchmark_json = "../BENCHMARK.json"

let member k = function
  | Obs.Json.Obj kv -> (
    match List.assoc_opt k kv with Some v -> v | None -> Alcotest.failf "no key %S" k)
  | _ -> Alcotest.failf "not an object (looking for %S)" k

let str = function Obs.Json.String s -> s | _ -> Alcotest.fail "expected a string"
let list = function Obs.Json.List l -> l | _ -> Alcotest.fail "expected a list"

let num = function
  | Obs.Json.Float f -> f
  | Obs.Json.Int i -> float_of_int i
  | _ -> Alcotest.fail "expected a number"

let test_registry () =
  let names = List.map (fun (m : Metric.t) -> m.name) Metric.all in
  List.iter
    (fun (m : Metric.t) ->
      Alcotest.(check bool) (m.name ^ " is a valid name") true (Metric.valid_name m.name);
      Alcotest.(check bool) (m.name ^ " has a valid unit") true (Metric.valid_unit m.unit);
      match m.kind with
      | End_to_end { bound } ->
        Alcotest.(check bool) (m.name ^ " bound in (0, 0.25]") true (bound > 0. && bound <= 0.25)
      | Per_layer { moves; on } ->
        Alcotest.(check bool) (m.name ^ " maps to a metric and a workload") true
          (moves <> "" && on <> ""))
    Metric.all;
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "setup_s is end to end, in s, lower is better" true
    (List.exists
       (fun (m : Metric.t) -> m.name = "setup_s" && m.unit = "s" && m.better = Lower)
       Metric.end_to_end)

(* BENCHMARK.json lists exactly the registry's metrics and workloads. *)
let test_benchmark_json () =
  let j = Obs.Json.read_file benchmark_json in
  let entries key = List.map (fun e -> (str (member "name" e), e)) (list (member key j)) in
  let check_kind key metrics =
    let listed = entries key in
    Alcotest.(check (list string))
      (key ^ " names")
      (List.map (fun (m : Metric.t) -> m.name) metrics)
      (List.map fst listed);
    List.iter2
      (fun (m : Metric.t) (_, e) ->
        Alcotest.(check string) (m.name ^ " unit") m.unit (str (member "unit" e));
        Alcotest.(check string) (m.name ^ " better") (Metric.better_to_string m.better)
          (str (member "better" e));
        match m.kind with
        | End_to_end { bound } ->
          Alcotest.(check (float 0.)) (m.name ^ " bound") bound (num (member "bound" e))
        | Per_layer _ -> ())
      metrics listed
  in
  check_kind "end_to_end" Metric.end_to_end;
  check_kind "per_layer" Metric.per_layer;
  Alcotest.(check (list string)) "workloads" Inputs.names (List.map fst (entries "workloads"))

let route_named (w : Inputs.t) label =
  match List.find_opt (fun (r : Inputs.route) -> r.label = label) (Array.to_list w.routes) with
  | Some r -> r
  | None -> Alcotest.failf "no route %s" label

(* The default seed is the committed circuits: r5's Table II rows. *)
let test_default_seed_r5 () =
  let w, _ = Inputs.setup "tables" ~seed:0 in
  let wirelength label =
    let r = route_named w label in
    let res, inst = Measure.route ~jobs:1 w r in
    Alcotest.(check (list string)) (label ^ " audit") [] (Measure.violations inst res);
    Float.round res.evaluation.wirelength
  in
  Alcotest.(check (float 0.)) "EXT-BST" 8_066_908. (wirelength "intermingled/r5/ext_bst");
  Alcotest.(check (float 0.)) "AST-DME, 8 groups" 7_481_950.
    (wirelength "intermingled/r5/ast_dme/8")

let sinks (inst : Clocktree.Instance.t) =
  Array.map (fun (s : Clocktree.Sink.t) -> (s.loc.x, s.loc.y, s.cap, s.group)) inst.sinks

(* Another seed draws other instances, and they route audit-clean. *)
let test_other_seed () =
  let w0, _ = Inputs.setup "tables" ~seed:0 and w7, _ = Inputs.setup "tables" ~seed:7 in
  let routes =
    Array.of_list
      (List.filter
         (fun (r : Inputs.route) -> String.starts_with ~prefix:"intermingled/r1/" r.label)
         (Array.to_list w7.routes))
  in
  Array.iter
    (fun (r : Inputs.route) ->
      Alcotest.(check bool) (r.label ^ " differs") false
        (sinks w0.instances.(r.inst) = sinks w7.instances.(r.inst)))
    routes;
  Alcotest.(check int) "failed routes" 0 (Measure.batch ~jobs:w7.jobs w7 routes).failed

let () =
  Alcotest.run "perfbench"
    [
      ( "benchmark",
        [
          Alcotest.test_case "metric registry" `Quick test_registry;
          Alcotest.test_case "BENCHMARK.json matches the registry" `Quick test_benchmark_json;
          Alcotest.test_case "default seed reproduces r5 Table II" `Quick test_default_seed_r5;
          Alcotest.test_case "other seed: new instances, audit-clean" `Quick test_other_seed;
        ] );
    ]
