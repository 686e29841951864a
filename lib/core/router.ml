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

(* AST-DME ships with the §V.F delay-target merge order on (it prevents
   late deep-vs-shallow shared-group merges that would need heavy
   snaking); the baselines use the plain nearest-neighbour order of
   greedy-DME / greedy-BST, as in the thesis' comparison.  The weight
   is dimensionless (see {!Dme.Engine.config}); 1.2 reproduces the old
   absolute 400 layout-units-per-ps tuning at r1–r5 benchmark scale
   while staying invariant under a change of layout unit. *)
let ast_default_config =
  { Dme.Engine.default with delay_order_weight = 1.2 }

module Spec = struct
  type algorithm = Ast_dme | Ext_bst | Greedy_dme | Mmm_dme

  let algorithms = [ Ast_dme; Ext_bst; Greedy_dme; Mmm_dme ]

  let name = function
    | Ast_dme -> "ast_dme"
    | Ext_bst -> "ext_bst"
    | Greedy_dme -> "greedy_dme"
    | Mmm_dme -> "mmm_dme"

  type clustering = { clusters : int option; depth : int option }

  type t = {
    algorithm : algorithm;
    config : Dme.Engine.config;
    clustering : clustering option;
  }

  let default algorithm =
    let config =
      match algorithm with
      | Ast_dme | Mmm_dme -> ast_default_config
      | Ext_bst | Greedy_dme -> Dme.Engine.default
    in
    { algorithm; config; clustering = None }

  let make ?config ?clustering algorithm =
    let config = Option.value config ~default:(default algorithm).config in
    let c = Option.value clustering ~default:{ clusters = None; depth = None } in
    let fields =
      [ ("jobs", Some config.jobs); ("clusters", c.clusters); ("depth", c.depth) ]
    in
    match List.find_opt (fun (_, v) -> Option.value v ~default:1 < 1) fields with
    | Some (what, v) ->
      Error (Printf.sprintf "%s must be at least 1, got %d" what (Option.get v))
    | None when algorithm = Mmm_dme && clustering <> None ->
      Error "clustering does not apply to MMM-DME's fixed topology"
    | None -> Ok { algorithm; config; clustering }
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

(* The algorithm picks the instance the route enforces (its groups
   define the constraints the engine and repair see); the clustering
   picks the plan.  Evaluation is always against the original [inst],
   whose groups define the reported skews.

   The whole path is arena-native: the plan embeds straight into a flat
   arena, repair mutates its [len] column in place and returns the sink
   delays of its last evaluation, evaluation folds those into the
   grouped report, and the repaired arena is the result's tree.  EXT-BST
   and greedy-DME fuse groups but keep sink ids, so repair's delays index
   [inst]'s sinks too. *)
let route ?(run = Obs.Run.null) (spec : Spec.t) inst =
  let config = spec.config in
  let jobs = config.jobs in
  if Obs.Trace.enabled run.trace then
    Obs.Trace.merge_manifest run.trace
      [
        ("router", Obs.Json.String (Spec.name spec.algorithm));
        ("jobs", Obs.Json.Int jobs);
      ];
  let route_inst =
    match spec.algorithm with
    | Ast_dme | Mmm_dme -> inst
    | Ext_bst -> fused inst
    | Greedy_dme -> fused ~bound:0. inst
  in
  (* Repair and the clustered stitch are global: the stitched tree is
     repaired and evaluated exactly like a flat one.  The MMM plan itself
     is serial (no recorded maps), but repair and evaluation still
     ledger under the recorder. *)
  let plan () =
    let flat (arena, stats) = (arena, stats, None) in
    match (spec.algorithm, spec.clustering) with
    | Mmm_dme, _ -> flat (Dme.Mmm.run_arena ~config ~run route_inst)
    | _, None -> flat (Dme.Engine.run_arena ~config ~run route_inst)
    | _, Some { clusters; depth } ->
      let arena, stats, detail =
        Dme.Cluster.run_arena ~config ~run ?clusters ?depth route_inst
      in
      (arena, stats, Some detail)
  in
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
  let (arena, engine, clustering), engine_s = Obs.Run.phase run "engine" plan in
  let repair, repair_s =
    Obs.Run.phase run "repair" (fun () ->
        Repair.run_arena ~config:repair_config ~run route_inst arena)
  in
  (* cpu_seconds spans planning + repair, as it always has; the wall
     timings additionally cover evaluation. *)
  let cpu_seconds = Sys.time () -. t0 in
  let evaluation, evaluate_s =
    Obs.Run.phase run "evaluate" (fun () ->
        Evaluate.of_delays inst arena repair.delays)
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
    clustering;
    sched;
    (* Gc.quick_stat's top_heap_words at the end of the route: under
       OCaml 5 the domains' heap statistics at the sample, not a process
       high-water mark, so not the route's peak heap. *)
    top_heap_words = Obs.Gcstat.top_heap_words ();
  }

(* Perfbench's frozen surface: each shim routes the one Spec its
   arguments name. *)
let ast_dme ?(config = ast_default_config) ?(jobs = config.jobs)
    ?(clustered = false) inst =
  let clustering = { Spec.clusters = None; depth = None } in
  let clustering = if clustered then Some clustering else None in
  let spec = Spec.make ~config:{ config with jobs } ?clustering Ast_dme in
  route (Result.get_ok spec) inst

let ext_bst ?(jobs = Dme.Engine.default.jobs) inst =
  let spec = Spec.make ~config:{ Dme.Engine.default with jobs } Ext_bst in
  route (Result.get_ok spec) inst

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
