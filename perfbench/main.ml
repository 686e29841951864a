(* The routing benchmark.

     main.exe --workload tables|scale_100k|difficult_mix --seed N
              --seconds S --trace 0|1

   --trace 0 sets the workload up (median of several set-ups), routes its
   batch through the public router entry points at least twice and as
   often as fits in S seconds, checks every routed tree, and prints the
   end-to-end metrics.
   --trace 1 replays the same inputs layer by layer (see Layers) and
   prints the per-layer metrics; its spans go to
   perfbench-out/spans-<workload>-<seed>.json.  The last line of stdout
   is the JSON result; the exit code is 0 only when every check held. *)

open Perfbench

let now = Unix.gettimeofday
let setup_reps = 5

let div a b = if b = 0. then 0. else a /. b

(* Times are rescaled to the box's reference speed (see Calib): the
   set-ups by the probes taken between them, each route by the probes
   taken around it. *)
let untraced name ~seed ~seconds =
  let setup_cal = Calib.create () in
  (* Each set-up starts from a collected heap, so the GC work it pays
     for is its own. *)
  let setups =
    List.init setup_reps (fun _ ->
        Gc.full_major ();
        Calib.probe setup_cal;
        Inputs.setup name ~seed)
  in
  Calib.probe setup_cal;
  let cal = Calib.create () in
  let w, _ = List.hd (List.rev setups) in
  (* At least two batches; another one only if it should end within
     [seconds]. *)
  let t_start = now () in
  let rec loop acc =
    let acc = Measure.batch ~cal ~jobs:w.jobs w w.routes :: acc in
    let elapsed = now () -. t_start in
    let n = List.length acc in
    if n < 2 || elapsed *. float_of_int (n + 1) /. float_of_int n <= seconds then loop acc
    else List.rev acc
  in
  let batches = loop [] in
  Calib.probe cal;
  let peak = Obs.Gcstat.top_heap_words () in
  let refs = Measure.batch ~jobs:w.jobs w w.references in
  let first = List.hd batches in
  let deterministic =
    List.for_all (fun (b : Measure.batch) -> Measure.same_bits b.lengths first.lengths) batches
  in
  if not deterministic then prerr_endline "repeated batches routed different wirelengths";
  let failed = refs.failed + List.fold_left (fun n (b : Measure.batch) -> n + b.failed) 0 batches in
  let mean field =
    Measure.sum (Array.of_list (List.map (Measure.rescaled cal field) batches))
    /. float_of_int (List.length batches)
  in
  let values =
    [
      ("wall_s", mean (fun (b : Measure.batch) -> b.walls));
      ("cpu_s", mean (fun (b : Measure.batch) -> b.cpus));
      ( "setup_s",
        Calib.factor setup_cal
        *. Measure.median (List.map (fun (_, s) -> Inputs.setup_s s) setups) );
      ("peak_heap_words", float_of_int peak);
      ("wirelength", Measure.sum first.lengths);
      ( "wirelength_ratio",
        Measure.wirelength_ratio w ~lengths:first.lengths ~references:refs.lengths );
    ]
  in
  Printf.eprintf "%d batches, %d calibration probes, speed factor %.4f\n%!"
    (List.length batches) cal.probes (Calib.factor cal);
  let attempted =
    (Array.length w.routes * List.length batches) + Array.length w.references
  in
  (failed = 0 && deterministic, attempted, failed, Metric.end_to_end, values)

let traced name ~seed =
  let w, setup = Inputs.setup name ~seed in
  let spawn_us = Layers.pool_spawn_us () in
  let n = Array.length w.routes in
  let delays = Array.make n [||] in
  let keep i (r : Astskew.Router.result) = delays.(i) <- r.evaluation.delays in
  let base = Measure.batch ~keep ~jobs:w.jobs w w.routes in
  let other_jobs = if w.jobs = 1 then 2 else 1 in
  let other = Measure.batch ~jobs:other_jobs w w.routes in
  let wall (b : Measure.batch) = Measure.sum b.walls in
  let j1, j2 = if w.jobs = 1 then (wall base, wall other) else (wall other, wall base) in
  let jobs_invariant = Measure.same_bits base.lengths other.lengths in
  if not jobs_invariant then prerr_endline "jobs 1 and jobs 2 routed different wirelengths";
  (* The replay must reproduce the router bit for bit. *)
  let mismatches = ref 0 and layered_wall = ref 0. in
  Array.iteri
    (fun i (r : Inputs.route) ->
      let t0 = now () in
      let report = Layers.replay ~jobs:w.jobs w r in
      layered_wall := !layered_wall +. (now () -. t0);
      if
        not
          (Measure.same_bits [| report.wirelength |] [| base.lengths.(i) |]
          && Measure.same_bits report.delays delays.(i))
      then begin
        incr mismatches;
        Printf.eprintf "replay of %s differs from the router\n%!" r.label
      end)
    w.routes;
  let layered_wall = !layered_wall in
  Printf.eprintf "router at jobs 1: %.3f s, at jobs 2: %.3f s; layered replay: %.3f s\n%!"
    j1 j2 layered_wall;
  let largest =
    Array.fold_left
      (fun a b -> if Clocktree.Instance.n_sinks b > Clocktree.Instance.n_sinks a then b else a)
      w.instances.(0) w.instances
  in
  let knn = Layers.knn_ns largest and oct = Layers.octslab_ns largest in
  let max_sinks =
    Array.fold_left
      (fun m (r : Inputs.route) -> Int.max m (Clocktree.Instance.n_sinks w.instances.(r.inst)))
      1 w.routes
  in
  let g = Layers.get in
  let probes = g "engine.probes" and saved = g "engine.probes_saved" in
  let values =
    [
      ("engine.plan_s", g "engine.plan_s");
      ("engine.ns_per_probe", div (g "engine.plan_s" *. 1e9) probes);
      ("engine.minor_words_per_probe", div (g "engine.plan_minor_words") probes);
      ("engine.probes", probes);
      ("engine.probes_saved", saved);
      ("engine.probe_reuse_ratio", div saved (probes +. saved));
      ("geometry.knn_ns_per_query", knn);
      ("geometry.octslab_dist_ns", oct);
      ("embed.ns_per_node", div (g "embed.run_s" *. 1e9) (g "embed.nodes"));
      ("embed.minor_words_per_node", div (g "embed.minor_words") (g "embed.nodes"));
      ("evaluate.ns_per_node", div (g "evaluate.run_s" *. 1e9) (g "evaluate.nodes"));
      ("repair.ns_per_node_cycle", div (g "repair.run_s" *. 1e9) (g "repair.node_cycles"));
      ("heap.words_per_sink", float_of_int (Obs.Gcstat.top_heap_words ()) /. float_of_int max_sinks);
      ("pool.spawn_us", spawn_us);
      ("router.speedup_j2", div j1 j2);
      ("workload.generate_s", setup.generate_s);
      ("io.write_s", setup.write_s);
      ("io.parse_s", setup.parse_s);
      ("io.parse_ns_per_sink", div (setup.parse_s *. 1e9) (float_of_int setup.sinks));
      ("trace.overhead_share", div (layered_wall -. wall base) (wall base));
    ]
  in
  (* Everything else is a plain per-layer sum. *)
  let values =
    values
    @ List.filter_map
        (fun (m : Metric.t) ->
          if List.mem_assoc m.name values then None else Some (m.name, g m.name))
        Metric.per_layer
  in
  let dir = "perfbench-out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Obs.Json.write_file
    (Printf.sprintf "%s/spans-%s-%d.json" dir name seed)
    (Layers.spans_json ());
  let failed = base.failed + other.failed + !mismatches in
  (failed = 0 && jobs_invariant, 3 * n, failed, Metric.per_layer, values)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" Inputs.names);
      ("--seed", Arg.Set_int seed, "N workload seed (0 = the committed circuits)");
      ("--seconds", Arg.Set_float seconds, "S how long the untraced run measures");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
  in
  let usage = "main.exe --workload W [--seed N] [--seconds S] [--trace 0|1]" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem !workload Inputs.names) || (!trace <> 0 && !trace <> 1) then begin
    Arg.usage (Arg.align spec) usage;
    exit 2
  end;
  let correct, attempted, failed, metrics, values =
    if !trace = 1 then traced !workload ~seed:!seed
    else untraced !workload ~seed:!seed ~seconds:!seconds
  in
  print_endline (Metric.result_line ~correct ~attempted ~failed metrics values);
  exit (if correct then 0 else 1)
