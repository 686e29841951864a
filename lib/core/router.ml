module Instance = Clocktree.Instance
module Evaluate = Clocktree.Evaluate
module Repair = Clocktree.Repair

type timings = {
  engine_s : float;
  repair_s : float;
  evaluate_s : float;
  total_s : float;
}

type result = {
  routed : Clocktree.Arena.t;
  evaluation : Evaluate.report;
  engine : Dme.Engine.stats;
  repair : Repair.stats;
  cpu_seconds : float;
  timings : timings;
  clustering : Dme.Cluster.stats option;
  sched : Obs.Sched.report option;
  top_heap_words : int;
}

(* Route [route_inst] (whose groups define the constraints the engine and
   repair enforce) and evaluate against [eval_inst] (the original problem,
   whose groups define the reported skews).  [plan] is the engine phase:
   Dme.Engine.run_arena for the greedy merge order, Dme.Mmm.run_arena for
   the fixed topology.

   The whole path is arena-native: the plan embeds straight into a flat
   arena, repair mutates its [len] column in place, evaluation reads it
   windowed across [jobs] domains, and the repaired arena is the
   result's tree. *)
let solve_with ~run ~jobs ~plan ~route_inst ~eval_inst () =
  let jobs = Int.max 1 jobs in
  (* Repair and evaluation inherit the engine's jobs so one --jobs flag
     drives every parallel phase; their results are jobs-invariant
     either way. *)
  (* The cycle budget is per fixpoint, and the global fixpoint's
     convergence tail grows with the stitched spine, so the default
     scales with the instance (the fixed 300 was exhausted by the
     3·10^5-sink bench point's last ~0.1 ps of group skew). *)
  let repair_config =
    {
      Repair.default_config with
      jobs;
      max_cycles =
        Int.max Repair.default_config.Repair.max_cycles
          (Instance.n_sinks route_inst / 250);
    }
  in
  let t0 = Sys.time () in
  let (arena, engine), engine_s =
    Obs.Run.phase run "engine" (fun () -> plan route_inst)
  in
  let repair, repair_s =
    Obs.Run.phase run "repair" (fun () ->
        Repair.run_arena ~config:repair_config ~run route_inst arena)
  in
  (* cpu_seconds spans planning + repair, as it always has; the wall
     timings additionally cover evaluation. *)
  let cpu_seconds = Sys.time () -. t0 in
  let evaluation, evaluate_s =
    Obs.Run.phase run "evaluate" (fun () ->
        Evaluate.report_of_arena ~jobs ~run eval_inst arena)
  in
  let trace = run.Obs.Run.trace in
  if Obs.Trace.enabled trace then begin
    (* Final-quality histograms: per-sink source-to-sink delay and
       per-group skew of the evaluated (post-repair) tree. *)
    let h_delay = Obs.Trace.histogram trace "router.sink_delay_ps" in
    Array.iter (Obs.Histogram.observe h_delay) evaluation.Evaluate.delays;
    let h_skew = Obs.Trace.histogram trace "router.group_skew_ps" in
    Array.iter (Obs.Histogram.observe h_skew) evaluation.Evaluate.group_skew
  end;
  let total_s = engine_s +. repair_s +. evaluate_s in
  let timings = { engine_s; repair_s; evaluate_s; total_s } in
  let sched = Obs.Run.finish run in
  {
    routed = arena;
    evaluation;
    engine;
    repair;
    cpu_seconds;
    timings;
    clustering = None;
    sched;
    (* The process high-water mark; with a single route per process
       (bench points, astroute) this is the route's peak heap. *)
    top_heap_words = Obs.Gcstat.top_heap_words ();
  }

let solve ?config ~run ~route_inst ~eval_inst () =
  let jobs =
    match config with
    | Some (c : Dme.Engine.config) -> c.jobs
    | None -> Dme.Engine.default.jobs
  in
  solve_with ~run ~jobs ~plan:(Dme.Engine.run_arena ?config ~run) ~route_inst
    ~eval_inst ()

(* [jobs] overrides the engine parallelism of [config] (or of [default]
   when no config was given); routed trees are invariant under it, so it
   only affects wall time. *)
let with_jobs ?jobs ~default config =
  let config = Option.value config ~default in
  match jobs with
  | None -> config
  | Some j -> { config with Dme.Engine.jobs = j }

(* AST-DME ships with the §V.F delay-target merge order on (it prevents
   late deep-vs-shallow shared-group merges that would need heavy
   snaking); the baselines use the plain nearest-neighbour order of
   greedy-DME / greedy-BST, as in the thesis' comparison.  The weight
   is dimensionless (see {!Dme.Engine.config}); 1.2 reproduces the old
   absolute 400 layout-units-per-ps tuning at r1–r5 benchmark scale
   while staying invariant under a change of layout unit. *)
let ast_default_config =
  { Dme.Engine.default with delay_order_weight = 1.2 }

let router_manifest (run : Obs.Run.t) name (config : Dme.Engine.config) =
  if Obs.Trace.enabled run.trace then
    Obs.Trace.merge_manifest run.trace
      [
        ("router", Obs.Json.String name);
        ("jobs", Obs.Json.Int config.jobs);
      ]

let ast_dme ?config ?jobs ?(clustered = false) ?clusters
    ?cluster_depth ?(run = Obs.Run.null) inst =
  let config = with_jobs ?jobs ~default:ast_default_config config in
  router_manifest run "ast_dme" config;
  if not clustered then
    solve ~config ~run ~route_inst:inst ~eval_inst:inst ()
  else begin
    (* The clustered engine returns its per-region detail alongside the
       aggregate stats [solve_with] threads through; stash it and patch
       the result.  Repair and evaluation treat the stitched tree
       exactly like a flat one — the global skew bound is theirs to
       enforce and report. *)
    let detail = ref None in
    let plan inst =
      let arena, stats, d =
        Dme.Cluster.run_arena ~config ~run ?clusters ?depth:cluster_depth inst
      in
      detail := Some d;
      (arena, stats)
    in
    let r =
      solve_with ~run ~jobs:config.jobs ~plan
        ~route_inst:inst ~eval_inst:inst ()
    in
    { r with clustering = !detail }
  end

(* Fuse all groups into one: intra-group bound becomes a global bound;
   with per-group bounds the tightest one applies, so the fused router
   still satisfies every original constraint. *)
let fused ?bound (inst : Instance.t) =
  let sinks =
    Array.map (fun (s : Clocktree.Sink.t) -> { s with group = 0 }) inst.sinks
  in
  let default =
    List.init inst.n_groups (fun g -> Instance.bound_for inst g)
    |> List.fold_left Float.min Float.infinity
  in
  Instance.make ~params:inst.params ~rd:inst.rd
    ~bound:(Option.value bound ~default)
    ~source:inst.source ~n_groups:1 sinks

let ext_bst ?config ?jobs ?(run = Obs.Run.null) inst =
  let config = with_jobs ?jobs ~default:Dme.Engine.default config in
  router_manifest run "ext_bst" config;
  solve ~config ~run ~route_inst:(fused inst) ~eval_inst:inst ()

let greedy_dme ?config ?jobs ?(run = Obs.Run.null) inst =
  let config = with_jobs ?jobs ~default:Dme.Engine.default config in
  router_manifest run "greedy_dme" config;
  solve ~config ~run ~route_inst:(fused ~bound:0. inst) ~eval_inst:inst ()

let mmm_dme ?config ?jobs ?(run = Obs.Run.null) inst =
  let config = with_jobs ?jobs ~default:ast_default_config config in
  router_manifest run "mmm_dme" config;
  (* The MMM plan itself is serial (no recorded maps), but repair and
     evaluation still ledger under the recorder. *)
  solve_with ~run ~jobs:config.jobs
    ~plan:(Dme.Mmm.run_arena ~config ~run)
    ~route_inst:inst ~eval_inst:inst ()

let reduction ~baseline result =
  let base = baseline.evaluation.wirelength in
  (* Degenerate baselines (single sink at the source) have zero
     wirelength; report "no reduction" rather than NaN/inf. *)
  if base = 0. then 0.
  else (base -. result.evaluation.wirelength) /. base

let json_of_engine_stats (s : Dme.Engine.stats) : Obs.Json.t =
  let open Obs.Json in
  Obj
    [
      ("rounds", Int s.rounds);
      ("same_group", Int s.same_group);
      ("cross_group", Int s.cross_group);
      ("shared_one", Int s.shared_one);
      ("shared_multi", Int s.shared_multi);
      ("planned_snake", Float s.planned_snake);
      ("infeasible_merges", Int s.infeasible_merges);
      ("nn_reprobes", Int s.nn_reprobes);
      ("nn_queries", Int s.nn_queries);
      ("nn_cells", Int s.nn_cells);
      ("nn_entries", Int s.nn_entries);
      ("trial_merges", Int s.trial.trial_merges);
      ("trial_elided", Int s.trial.elided_trials);
      ("gc", Obs.Gcstat.json s.gc);
    ]

let json_of_clustering (d : Dme.Cluster.stats) : Obs.Json.t =
  let open Obs.Json in
  let plans cs =
    List
      (Array.to_list
         (Array.map
            (fun (c : Dme.Cluster.cluster_stats) ->
              Obj
                [
                  ("cluster", Int c.cluster);
                  ("n_sinks", Int c.n_sinks);
                  ("wall_s", Float c.wall_s);
                  ("stats", json_of_engine_stats c.stats);
                ])
            cs))
  in
  Obj
    [
      ("n_clusters", Int d.n_clusters);
      ("depth", Int d.depth);
      ("top", json_of_engine_stats d.top);
      ("per_cluster", plans d.per_cluster);
      ("super", plans d.super);
    ]

let json_of_result (r : result) : Obs.Json.t =
  let open Obs.Json in
  let engine = json_of_engine_stats r.engine in
  let repair =
    let s = r.repair in
    Obj
      [
        ("added_wire", Float s.added_wire);
        ("adjusted_edges", Int s.adjusted_edges);
        ("conflict_nodes", Int s.conflict_nodes);
        ("lift_iterations", Int s.lift_iterations);
        ("unresolved_groups", Int s.unresolved_groups);
        ("cycles", Int s.cycles);
        ("budget_exhausted", Bool s.budget_exhausted);
      ]
  in
  let timings =
    Obj
      [
        ("engine_s", Float r.timings.engine_s);
        ("repair_s", Float r.timings.repair_s);
        ("evaluate_s", Float r.timings.evaluate_s);
        ("total_s", Float r.timings.total_s);
      ]
  in
  Obj
    ([
       ("wirelength", Float r.evaluation.wirelength);
       ("snaking", Float r.evaluation.snaking);
       ("global_skew_ps", Float r.evaluation.global_skew);
       ("max_group_skew_ps", Float r.evaluation.max_group_skew);
       ("cpu_seconds", Float r.cpu_seconds);
       ("timings", timings);
       ("top_heap_words", Int r.top_heap_words);
       ("engine", engine);
       ("repair", repair);
       ("clustered", Bool (r.clustering <> None));
     ]
    @ (match r.clustering with
      | None -> []
      | Some d -> [ ("clustering", json_of_clustering d) ])
    @
    match r.sched with
    | None -> []
    | Some rep -> [ ("efficiency", Obs.Sched.json_of_report rep) ])

let json_of_results results =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Int 2);
      ( "results",
        Obs.Json.Obj (List.map (fun (name, r) -> (name, json_of_result r)) results) );
    ]

let pp_result ppf r =
  Format.fprintf ppf "%a, %.2fs cpu, %d infeasible merges, repair +%.0f wire"
    Evaluate.pp_report r.evaluation r.cpu_seconds r.engine.infeasible_merges
    r.repair.added_wire
