(* The traced run's layer-by-layer replay.  Each route is re-run through
   the public entry points the router composes — Engine.plan (or
   Cluster.run_arena) -> Embed.run_arena -> Repair.run_arena ->
   Evaluate.report_of_arena -> Arena.to_routed — with the router's own
   configuration, timed from outside.  No Obs.Trace/Sched/Progress is
   passed into the library; the spans are the benchmark's own. *)

module Instance = Clocktree.Instance
module Arena = Clocktree.Arena
module Repair = Clocktree.Repair
module Evaluate = Clocktree.Evaluate
module Engine = Dme.Engine
module Cluster = Dme.Cluster

let now = Unix.gettimeofday

(* --- spans ------------------------------------------------------------- *)

type span = { id : int; parent : int; name : string; route : string; t0 : float; t1 : float }

let origin = now ()
let spans = ref []
let next_id = ref 0
let open_ids = ref []
let current_route = ref ""

(* [span name f] is [(f (), seconds)], recorded as a child of the
   innermost open span. *)
let span name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_ids with p :: _ -> p | [] -> -1 in
  open_ids := id :: !open_ids;
  let t0 = now () in
  let close () =
    let t1 = now () in
    open_ids := List.tl !open_ids;
    spans := { id; parent; name; route = !current_route; t0; t1 } :: !spans;
    t1 -. t0
  in
  match f () with
  | v -> (v, close ())
  | exception e ->
    ignore (close ());
    raise e

let spans_json () =
  let open Obs.Json in
  List
    (List.rev_map
       (fun s ->
         Obj
           [
             ("id", Int s.id);
             ("parent", Int s.parent);
             ("name", String s.name);
             ("route", String s.route);
             ("start_us", Float ((s.t0 -. origin) *. 1e6));
             ("end_us", Float ((s.t1 -. origin) *. 1e6));
           ])
       !spans)

(* --- per-layer sums ---------------------------------------------------- *)

let sums : (string, float) Hashtbl.t = Hashtbl.create 64
let add k v = Hashtbl.replace sums k (v +. Option.value (Hashtbl.find_opt sums k) ~default:0.)
let get k = Option.value (Hashtbl.find_opt sums k) ~default:0.
let addi k v = add k (float_of_int v)

let add_engine (s : Engine.stats) =
  addi "engine.rounds" s.rounds;
  addi "engine.probes" s.nn_reprobes;
  addi "engine.probes_saved" s.nn_probes_saved;
  addi "engine.trial_merges" s.trial.trial_merges;
  addi "engine.merges.same_group" s.same_group;
  addi "engine.merges.cross_group" s.cross_group;
  addi "engine.merges.shared_one" s.shared_one;
  addi "engine.merges.shared_multi" s.shared_multi;
  addi "engine.infeasible_merges" s.infeasible_merges;
  add "engine.planned_snake" s.planned_snake

let add_repair (s : Repair.stats) ~nodes =
  add "repair.added_wire" s.added_wire;
  addi "repair.cycles" s.cycles;
  addi "repair.lift_iterations" s.lift_iterations;
  addi "repair.adjusted_edges" s.adjusted_edges;
  addi "repair.conflict_nodes" s.conflict_nodes;
  addi "repair.budget_exhausted" (Bool.to_int s.budget_exhausted);
  addi "repair.node_cycles" (nodes * s.cycles)

(* --- one route, layer by layer ----------------------------------------- *)

let words_allocated () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8)

(* Plan and embed a flat route the way Engine.run_arena does: one pool
   of [jobs] domains (none at jobs 1) serves ranking and embedding. *)
let flat ~jobs ~config inst =
  let pool, _ =
    span "pool.create" (fun () ->
        if jobs > 1 then Some (Par.Pool.create ~jobs ()) else None)
  in
  let p0 = Gc.minor_words () in
  let (root, stats), plan_s = span "engine.plan" (fun () -> Engine.plan ~config ?pool inst) in
  add "engine.plan_minor_words" (Gc.minor_words () -. p0);
  let w0 = Gc.minor_words () in
  let arena, embed_s = span "embed.run_arena" (fun () -> Dme.Embed.run_arena ?pool inst root) in
  add "embed.minor_words" (Gc.minor_words () -. w0);
  ignore (span "pool.shutdown" (fun () -> Option.iter Par.Pool.shutdown pool));
  add "engine.plan_s" plan_s;
  add "embed.run_s" embed_s;
  addi "embed.nodes" arena.Arena.n;
  add_engine stats;
  arena

(* Cluster.run_arena plans and embeds in one call, so its embed cannot
   be timed apart; the region plans' own walls and GC samples stand in
   for engine.plan_s and the plan's minor words. *)
let clustered ~config inst =
  let clusters = Cluster.auto_clusters inst in
  let regions, partition_s = span "cluster.partition" (fun () -> Cluster.partition inst ~clusters) in
  (match Check.Audit.partition_cover inst regions with
   | [] -> ()
   | v :: _ -> failwith ("cluster partition: " ^ v.invariant ^ ": " ^ v.detail));
  let (arena, stats, detail), run_s =
    span "cluster.run_arena" (fun () -> Cluster.run_arena ~config inst)
  in
  add "cluster.partition_s" partition_s;
  add "cluster.run_s" run_s;
  addi "cluster.regions" detail.n_clusters;
  addi "cluster.depth" detail.depth;
  let plans = Array.append detail.per_cluster detail.super in
  Array.iter
    (fun (c : Cluster.cluster_stats) ->
      add "engine.plan_s" c.wall_s;
      add "engine.plan_minor_words" c.stats.gc.minor_words)
    plans;
  add "engine.plan_minor_words" detail.top.gc.minor_words;
  let walls = Array.map (fun (c : Cluster.cluster_stats) -> c.wall_s) detail.per_cluster in
  let mean = Measure.sum walls /. float_of_int (Array.length walls) in
  let max_wall = Array.fold_left Float.max 0. walls in
  add "cluster.region_plan_p50_s" (Measure.median (Array.to_list walls));
  add "cluster.region_plan_max_s" max_wall;
  add "cluster.region_imbalance" (if mean > 0. then max_wall /. mean else 1.);
  add_engine stats;
  arena

(* Replay one route; returns the evaluation report. *)
let replay ~jobs (w : Inputs.t) (r : Inputs.route) =
  let inst = w.instances.(r.inst) in
  current_route := r.label;
  let report, _ =
    span "route" (fun () ->
        let arena =
          match (r.algo, r.clustered) with
          | Ast, false -> flat ~jobs ~config:{ Astskew.Router.ast_default_config with jobs } inst
          | Ext_bst, false ->
            (* The one-group instance is its own fused instance, so
               EXT-BST is the default engine on it (as Tables.run routes
               its baseline rows). *)
            if inst.n_groups <> 1 then invalid_arg "replay: EXT-BST needs a one-group instance";
            flat ~jobs ~config:{ Engine.default with jobs } inst
          | Ast, true ->
            clustered ~config:{ Astskew.Router.ast_default_config with jobs } inst
          | Ext_bst, true -> invalid_arg "replay: clustered EXT-BST is a reference route"
        in
        let config =
          {
            Repair.default_config with
            jobs;
            max_cycles =
              Int.max Repair.default_config.max_cycles (Instance.n_sinks inst / 250);
          }
        in
        let stats, repair_s = span "repair.run_arena" (fun () -> Repair.run_arena ~config inst arena) in
        add "repair.run_s" repair_s;
        add_repair stats ~nodes:arena.n;
        let report, eval_s =
          span "evaluate.report_of_arena" (fun () -> Evaluate.report_of_arena ~jobs inst arena)
        in
        add "evaluate.run_s" eval_s;
        addi "evaluate.nodes" arena.n;
        let w0 = words_allocated () in
        let routed, to_routed_s = span "arena.to_routed" (fun () -> Arena.to_routed arena) in
        add "arena.to_routed_words" (words_allocated () -. w0);
        add "arena.to_routed_s" to_routed_s;
        ignore (Sys.opaque_identity routed);
        report)
  in
  current_route := "";
  report

(* --- geometry kernels over the workload's own sinks --------------------- *)

let cell_of inst =
  let d = Geometry.Octagon.diameter (Instance.bbox inst) in
  let n = Int.max 1 (Instance.n_sinks inst) in
  Float.max (Float.max Geometry.Eps.tol (Geometry.Eps.tol *. d)) (d /. sqrt (float_of_int n))

(* Repeat [sweep] (which performs [per_sweep] calls) for at least
   [min_s] seconds; ns per call. *)
let ns_per_call ~min_s ~per_sweep sweep =
  let t0 = now () and calls = ref 0 in
  while now () -. t0 < min_s do
    sweep ();
    calls := !calls + per_sweep
  done;
  (now () -. t0) *. 1e9 /. float_of_int !calls

(* k-NN probes as the ranking issues them: every sink queries its
   Engine.default.knn nearest others on a grid sized like Order's. *)
let knn_ns (inst : Instance.t) =
  let g = Geometry.Grid_index.create ~cell:(cell_of inst) in
  Array.iter (fun (s : Clocktree.Sink.t) -> Geometry.Grid_index.add g ~id:s.id s.loc ()) inst.sinks;
  let k = Engine.default.knn in
  let found = ref 0 in
  let ns =
    ns_per_call ~min_s:0.2 ~per_sweep:(Array.length inst.sinks) (fun () ->
        Array.iter
          (fun (s : Clocktree.Sink.t) ->
            let l, _ = Geometry.Grid_index.k_nearest_probe g ~skip:(fun id -> id = s.id) s.loc k in
            found := !found + List.length l)
          inst.sinks)
  in
  ignore (Sys.opaque_identity !found);
  ns

(* Octslab.dist between cell-sized octagons around the sinks, over a
   fixed scatter of pairs. *)
let octslab_ns (inst : Instance.t) =
  let n = Array.length inst.sinks in
  let slab = Geometry.Octslab.create n in
  let r = cell_of inst /. 2. in
  Array.iteri (fun i (s : Clocktree.Sink.t) -> Geometry.Octslab.set slab i (Geometry.Octagon.ball s.loc r)) inst.sinks;
  let acc = ref 0. in
  let ns =
    ns_per_call ~min_s:0.1 ~per_sweep:n (fun () ->
        for i = 0 to n - 1 do
          acc := !acc +. Geometry.Octslab.dist slab i (((i * 7919) + 1) mod n)
        done)
  in
  ignore (Sys.opaque_identity !acc);
  ns

(* Median create+shutdown of a two-domain pool. *)
let pool_spawn_us () =
  Measure.median
    (List.init 21 (fun _ ->
         let t0 = now () in
         Par.Pool.shutdown (Par.Pool.create ~jobs:2 ());
         (now () -. t0) *. 1e6))
