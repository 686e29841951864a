(* The benchmark's metric registry: every metric it can print, with its
   unit and direction, and for per-layer metrics the end-to-end metric
   they should move and the workloads they move on.  BENCHMARK.json lists
   the same metrics; the self-test keeps the two in step. *)

type better = Lower | Higher

type kind =
  | End_to_end of { bound : float }
  | Per_layer of { moves : string; on : string }

type t = { name : string; unit : string; better : better; kind : kind }

let e name unit better bound = { name; unit; better; kind = End_to_end { bound } }
let l name unit better ~moves ~on = { name; unit; better; kind = Per_layer { moves; on } }

let end_to_end =
  [
    e "wall_s" "s" Lower 0.25;
    e "cpu_s" "s" Lower 0.25;
    e "setup_s" "s" Lower 0.25;
    e "peak_heap_words" "words" Lower 0.15;
    e "wirelength" "layout_units" Lower 0.15;
    e "wirelength_ratio" "ratio" Lower 0.1;
  ]

let per_layer =
  let engine = "tables (most), difficult_mix; scale_100k via cluster.run_s" in
  let quality = "tables" in
  let cluster = "scale_100k only (others: no change)" in
  let repair = "scale_100k (~35%); <3% elsewhere" in
  let memory = "scale_100k" in
  let par = "difficult_mix (speedup <1), scale_100k (>1)" in
  let io = "scale_100k" in
  let plan n u b = l n u b ~moves:"wall_s" ~on:engine in
  let qual n u b = l n u b ~moves:"wirelength, wirelength_ratio" ~on:quality in
  let clu n u b = l n u b ~moves:"wall_s" ~on:cluster in
  let rep n u b = l n u b ~moves:"wall_s" ~on:repair in
  let mem n u b = l n u b ~moves:"peak_heap_words, then wall_s" ~on:memory in
  let pll n u b = l n u b ~moves:"wall_s, cpu_s" ~on:par in
  let set n u b = l n u b ~moves:"setup_s" ~on:io in
  [
    plan "engine.plan_s" "s" Lower;
    plan "engine.ns_per_probe" "ns" Lower;
    plan "engine.minor_words_per_probe" "words" Lower;
    plan "engine.probes" "count" Lower;
    plan "engine.probes_saved" "count" Higher;
    plan "engine.probe_reuse_ratio" "ratio" Higher;
    plan "engine.rounds" "count" Lower;
    plan "engine.trial_merges" "count" Lower;
    l "geometry.knn_ns_per_query" "ns" Lower ~moves:"engine.ns_per_probe, then wall_s"
      ~on:"tables";
    l "geometry.octslab_dist_ns" "ns" Lower ~moves:"engine.ns_per_probe, then wall_s"
      ~on:"tables";
    qual "engine.merges.same_group" "count" Higher;
    qual "engine.merges.cross_group" "count" Higher;
    qual "engine.merges.shared_one" "count" Lower;
    qual "engine.merges.shared_multi" "count" Lower;
    qual "engine.infeasible_merges" "count" Lower;
    qual "engine.planned_snake" "layout_units" Lower;
    qual "repair.added_wire" "layout_units" Lower;
    clu "cluster.partition_s" "s" Lower;
    clu "cluster.run_s" "s" Lower;
    clu "cluster.regions" "count" Higher;
    clu "cluster.depth" "count" Lower;
    clu "cluster.region_plan_p50_s" "s" Lower;
    clu "cluster.region_plan_max_s" "s" Lower;
    clu "cluster.region_imbalance" "ratio" Lower;
    rep "repair.run_s" "s" Lower;
    rep "repair.cycles" "count" Lower;
    rep "repair.lift_iterations" "count" Lower;
    rep "repair.adjusted_edges" "count" Lower;
    rep "repair.conflict_nodes" "count" Lower;
    rep "repair.ns_per_node_cycle" "ns" Lower;
    rep "repair.budget_exhausted" "count" Lower;
    mem "embed.run_s" "s" Lower;
    mem "embed.ns_per_node" "ns" Lower;
    mem "embed.minor_words_per_node" "words" Lower;
    mem "evaluate.run_s" "s" Lower;
    mem "evaluate.ns_per_node" "ns" Lower;
    mem "arena.to_routed_s" "s" Lower;
    mem "arena.to_routed_words" "words" Lower;
    mem "heap.words_per_sink" "words" Lower;
    pll "pool.spawn_us" "us" Lower;
    pll "router.speedup_j2" "ratio" Higher;
    set "workload.generate_s" "s" Lower;
    set "io.write_s" "s" Lower;
    set "io.parse_s" "s" Lower;
    set "io.parse_ns_per_sink" "ns" Lower;
    l "trace.overhead_share" "ratio" Lower ~moves:"none; it validates the traced run"
      ~on:"all";
  ]

let all = end_to_end @ per_layer

let better_to_string = function Lower -> "lower" | Higher -> "higher"

(* Names and units as BENCHMARK.json allows them. *)
let valid_name s =
  s <> ""
  && String.length s <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let valid_unit s =
  s <> ""
  && String.length s <= 16
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
         | _ -> false)
       s

(* Digits as measured: %.17g round-trips every double. *)
let number v =
  if not (Float.is_finite v) then invalid_arg "Metric.number: non-finite value";
  Printf.sprintf "%.17g" v

(* The result line: exactly [metrics]'s names, in registry order, each
   with the registry's unit.  Raises [Invalid_argument] when [values]
   misses one of them, names another, or holds a non-finite value, so a
   run can never print a partial or malformed result. *)
let result_line ~correct ~attempted ~failed metrics values =
  let names = List.map (fun m -> m.name) metrics in
  List.iter
    (fun (n, _) ->
      if not (List.mem n names) then invalid_arg ("Metric.result_line: unregistered " ^ n))
    values;
  let field m =
    match List.assoc_opt m.name values with
    | None -> invalid_arg ("Metric.result_line: missing " ^ m.name)
    | Some v -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (number v) m.unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map field metrics))
