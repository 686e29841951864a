(* Benchmark harness: regenerates every table and figure of the thesis
   and times the library's kernels with Bechamel.

   Usage: main.exe
     [table1|table2|figures|spice|ablation|micro|quick|all]
     | cache [CIRCUIT...]
     | par [CIRCUIT...]
     | trace [CIRCUIT...]
     | smoke [CIRCUIT [CLUSTERED_CIRCUIT]]
     | scale [--smoke]
     | eff [--smoke]
     | compare OLD.json NEW.json [--threshold PCT]
     | fuzz [--cases N] [--seed S] [--inject] [--replay CASE]
   (default: all).  "quick" restricts the tables to r1-r3 for fast runs;
   "cache" (also run by "micro") compares the merge-trial cache off vs on
   over r1-r5 (or the listed circuits),
   sweeps the engine's jobs knob, routes the clustered two-level mode,
   and writes BENCH_<circuit>.json stats files; "par" prints just the
   jobs sweep (speedup vs jobs in
   {1,2,4,cores}); "trace" routes r1-r5 (or the listed circuits) with a
   live trace, writes TRACE_<circuit>.json (Chrome trace-event) and
   TRACE_<circuit>.jsonl (metrics journal) and fails when the journal's
   per-round sums disagree with the engine stats; "smoke" is the
   deterministic CI perf gate: it routes one circuit (default r3) and
   fails unless every probe ran exactly one grid k-NN query, the
   queries visited at most 45 cells each and the ranking stayed inside
   its allocation budget, then gates the clustered router on a second
   circuit (default
   r5: clusters=1 must equal flat bit-for-bit and the auto-clustered
   tree must pass the global grouped audit); "scale" routes synthetic
   10^4-10^6-sink instances through the (multi-level) clustered router,
   checks the clusters=1-vs-flat identity and a forced depth-2 leg, and
   writes the BENCH_scale.json curve with per-point peak heap — each
   point routes with the live progress heartbeat on stderr (--smoke
   keeps the CI-sized pieces only); "eff" sweeps jobs in {1,2,4} with
   the Obs.Sched flight recorder live, prints the per-phase
   utilization / serial-fraction / Amdahl table, writes BENCH_eff.json
   and fails when any run lacks an efficiency report, reports a serial
   fraction outside [0,1], or the jobs=1 leg does not measure speedup
   1.0 (--smoke keeps r4 only, the smallest circuit above the engine's
   1000-sink parallel grain);
   "compare" diffs two BENCH_<circuit>.json files and exits
   non-zero when a watched metric regressed past the threshold (default
   10%); "fuzz" runs the lib/check property-based fuzzer, prints a JSON
   summary, and writes the shrunk repro of any failure to FUZZ_REPRO.txt
   before exiting non-zero. *)

let bound = 10.

let header title =
  Format.printf "@.==== %s ====@." title

(* --- Tables I and II ----------------------------------------------------- *)

let paper_table1 =
  (* (circuit, groups) -> (wirelen, reduction %) from Table I. *)
  [
    ("r1", [ (1, 1070421, 0.); (4, 1048432, 2.05); (6, 1041671, 2.69); (8, 1040952, 2.75); (10, 1039556, 2.88) ]);
    ("r2", [ (1, 2169791, 0.); (4, 2112508, 2.64); (6, 2112074, 2.66); (8, 2093848, 3.50); (10, 2091244, 3.62) ]);
    ("r3", [ (1, 2734959, 0.); (4, 2664397, 2.58); (6, 2647713, 3.19); (8, 2644158, 3.32); (10, 2646072, 3.25) ]);
    ("r4", [ (1, 5442046, 0.); (4, 5311981, 2.39); (6, 5307627, 2.47); (8, 5279328, 2.99); (10, 5272254, 3.12) ]);
    ("r5", [ (1, 8033650, 0.); (4, 7836825, 2.45); (6, 7799067, 2.92); (8, 7771753, 3.26); (10, 7754078, 3.48) ]);
  ]

let paper_table2 =
  [
    ("r1", [ (1, 1070421, 0.); (4, 969872, 9.39); (6, 945353, 11.68); (8, 930384, 13.08); (10, 926958, 13.40) ]);
    ("r2", [ (1, 2169791, 0.); (4, 1940437, 10.57); (6, 1938564, 10.66); (8, 1865821, 14.01); (10, 1855198, 14.50) ]);
    ("r3", [ (1, 2734959, 0.); (4, 2452948, 10.31); (6, 2371398, 13.29); (8, 2386127, 12.75); (10, 2379931, 12.98) ]);
    ("r4", [ (1, 5442046, 0.); (4, 4922763, 9.54); (6, 4785931, 12.06); (8, 4791754, 11.95); (10, 4762357, 12.49) ]);
    ("r5", [ (1, 8033650, 0.); (4, 7247698, 9.78); (6, 7094385, 11.69); (8, 6984476, 13.06); (10, 6915703, 13.92) ]);
  ]

let print_vs_paper paper rows =
  Format.printf "@.Paper vs measured (reduction %% vs each EXT-BST baseline):@.";
  Format.printf "%-8s %-8s %-12s %-12s@." "Circuit" "#groups" "paper" "measured";
  List.iter
    (fun (r : Experiments.Tables.row) ->
      match r.reduction_pct with
      | None -> ()
      | Some measured ->
        (match List.assoc_opt r.circuit paper with
         | None -> ()
         | Some entries ->
           (match
              List.find_opt (fun (g, _, _) -> g = r.n_groups) entries
            with
            | Some (_, _, paper_red) ->
              Format.printf "%-8s %-8d %-12.2f %-12.2f@." r.circuit r.n_groups
                paper_red measured
            | None -> ())))
    rows

let table ~scheme ~title ~paper ~circuits () =
  header title;
  let rows = Experiments.Tables.run ~circuits ~bound ~scheme () in
  Experiments.Tables.print ~title rows;
  print_vs_paper paper rows;
  rows

(* --- Parallel ranking sweep (jobs in {1,2,4,cores}) ----------------------- *)

let bench_instance (spec : Workload.Circuits.spec) =
  Workload.Circuits.instance spec ~n_groups:8
    ~scheme:Workload.Partition.Intermingled ~bound ()

(* Every field in which two routes of [inst] differ (Check.Oracle.diffs:
   arena, evaluation report, repair stats and, unless [engine] is false
   for ablations whose counters legitimately differ, engine stats). *)
let result_diffs ?(engine = true) inst a b =
  let obs r =
    let o = Check.Oracle.of_result inst r in
    if engine then o else { o with engine = None }
  in
  Check.Oracle.diffs (obs a) (obs b)

let same_result ?engine inst a b = result_diffs ?engine inst a b = []

(* Routes the instance once per jobs value (AST-DME) and reports wall and
   engine time plus the speedup relative to jobs=1.  The engine freezes
   each round's state before probing, so every run must produce the same
   tree and engine stats. *)
let par_sweep inst =
  let cores = Domain.recommended_domain_count () in
  let sweep = List.sort_uniq Int.compare [ 1; 2; 4; cores ] in
  let runs =
    List.map
      (fun jobs ->
        Obs.Report.reset ();
        let t0 = Obs.Timer.now () in
        let r = Astskew.Router.ast_dme ~jobs inst in
        let wall = Obs.Timer.now () -. t0 in
        (jobs, wall, r))
      sweep
  in
  let _, base_wall, base = List.hd runs in
  let rows =
    List.map
      (fun (jobs, wall, (r : Astskew.Router.result)) ->
        (jobs, wall, r.timings.engine_s, base_wall /. Float.max 1e-9 wall,
         same_result inst r base))
      runs
  in
  (cores, rows)

let par_json (cores, rows) =
  let open Obs.Json in
  Obj
    [
      ("cores", Int cores);
      ( "runs",
        List
          (List.map
             (fun (jobs, wall, engine_s, speedup, identical) ->
               Obj
                 [
                   ("jobs", Int jobs);
                   ("wall_s", Float wall);
                   ("engine_s", Float engine_s);
                   ("speedup_vs_jobs1", Float speedup);
                   ("identical_to_jobs1", Bool identical);
                 ])
             rows) );
    ]

let print_par_sweep name (cores, rows) =
  List.iter
    (fun (jobs, wall, engine_s, speedup, identical) ->
      Format.printf "%-8s %5d %9.3f %9.3f %7.2fx %9s@." name jobs wall
        engine_s speedup
        (if identical then "ok" else "DIFFERS!"))
    rows;
  ignore cores

let par_header () =
  Format.printf "%-8s %5s %9s %9s %8s %9s@." "circuit" "jobs" "wall (s)"
    "engine(s)" "speedup" "tree"

let default_circuits = [ "r1"; "r2"; "r3"; "r4"; "r5" ]

let par_bench ?(circuits = default_circuits) () =
  header
    (Printf.sprintf "Parallel ranking sweep (AST-DME, %d core%s)"
       (Domain.recommended_domain_count ())
       (if Domain.recommended_domain_count () = 1 then "" else "s"));
  par_header ();
  List.iter
    (fun name ->
      match Workload.Circuits.find name with
      | None -> Format.eprintf "par bench: unknown circuit %S@." name
      | Some spec -> print_par_sweep spec.name (par_sweep (bench_instance spec)))
    circuits

(* --- Merge-trial cache comparison + BENCH_*.json ------------------------- *)

(* Routes each circuit with the trial cache off then on, checks the
   trees agree, prints the speedup, sweeps the engine jobs knob, and
   writes one BENCH_<circuit>.json per circuit with per-phase timings,
   cache and probe counters, the jobs sweep and the full Obs snapshot of
   each run.
   These files are the machine-readable trajectory future performance PRs
   are judged against (see the `compare` subcommand). *)
let cache_bench ?(circuits = default_circuits) () =
  header "Merge-trial cache (AST-DME, cache off vs on)";
  Format.printf "%-8s %9s %9s %8s %11s %11s %7s@." "circuit" "off (s)"
    "on (s)" "speedup" "trials-off" "trials-on" "drop%";
  List.iter
    (fun name ->
      match Workload.Circuits.find name with
      | None -> Format.eprintf "cache bench: unknown circuit %S@." name
      | Some spec ->
        let inst = bench_instance spec in
        let timed config =
          Obs.Report.reset ();
          let t0 = Obs.Timer.now () in
          let r = Astskew.Router.ast_dme ~config inst in
          let elapsed = Obs.Timer.now () -. t0 in
          (r, elapsed, Obs.Report.snapshot ())
        in
        let off_config =
          { Astskew.Router.ast_default_config with Dme.Engine.trial_cache = false }
        in
        let r_off, t_off, snap_off = timed off_config in
        let r_on, t_on, snap_on = timed Astskew.Router.ast_default_config in
        let identical = same_result ~engine:false inst r_on r_off in
        let trials_off = r_off.engine.trial.trial_merges in
        let trials_on = r_on.engine.trial.trial_merges in
        let drop =
          100. *. (1. -. (float_of_int trials_on /. float_of_int (Int.max 1 trials_off)))
        in
        let speedup = t_off /. Float.max 1e-9 t_on in
        Format.printf "%-8s %9.3f %9.3f %7.2fx %11d %11d %6.1f%%@." spec.name
          t_off t_on speedup trials_off trials_on drop;
        if not identical then
          Format.printf "  WARNING: %s cache-on tree differs from cache-off!@."
            spec.name;
        let par = par_sweep inst in
        (* Clustered leg: the two-level router at the auto cluster
           count, plus the degenerate clusters=1 identity against the
           flat cache-on run.  Its watched metrics (wall, counters, GC
           words, quality) land in the BENCH json so `compare` gates
           the clustered path exactly like the flat one. *)
        let timed_clustered clusters =
          Obs.Report.reset ();
          let t0 = Obs.Timer.now () in
          let r = Astskew.Router.ast_dme ~clustered:true ?clusters inst in
          let elapsed = Obs.Timer.now () -. t0 in
          (r, elapsed, Obs.Report.snapshot ())
        in
        let r_clu, t_clu, snap_clu = timed_clustered None in
        let r_k1, _, _ = timed_clustered (Some 1) in
        let clu_identical = same_result inst r_k1 r_on in
        let regions =
          match r_clu.clustering with
          | Some d -> d.Dme.Cluster.n_clusters
          | None -> 0
        in
        Format.printf
          "  clustered: %d regions, %.3f s (%.2fx cache-on wall), clusters=1 trees %s@."
          regions t_clu (t_on /. Float.max 1e-9 t_clu)
          (if clu_identical then "ok" else "DIFFER!");
        let run_json result elapsed snap =
          Obs.Json.Obj
            [
              ("wall_s", Obs.Json.Float elapsed);
              ("result", Astskew.Router.json_of_result result);
              ("obs", snap);
            ]
        in
        let json =
          Obs.Json.Obj
            [
              ("circuit", Obs.Json.String spec.name);
              ("n_sinks", Obs.Json.Int spec.n_sinks);
              ("n_groups", Obs.Json.Int 8);
              ("scheme", Obs.Json.String "intermingled");
              ("bound_ps", Obs.Json.Float bound);
              ("identical_trees", Obs.Json.Bool identical);
              ("speedup", Obs.Json.Float speedup);
              ("trial_merges_off", Obs.Json.Int trials_off);
              ("trial_merges_on", Obs.Json.Int trials_on);
              ("trial_drop_pct", Obs.Json.Float drop);
              ("par", par_json par);
              ( "clustered",
                Obs.Json.Obj
                  [
                    ("regions", Obs.Json.Int regions);
                    ("identical_at_one_cluster", Obs.Json.Bool clu_identical);
                    ("run", run_json r_clu t_clu snap_clu);
                  ] );
              ("cache_off", run_json r_off t_off snap_off);
              ("cache_on", run_json r_on t_on snap_on);
            ]
        in
        let file = Printf.sprintf "BENCH_%s.json" spec.name in
        Obs.Json.write_file file json;
        Format.printf "  wrote %s@." file)
    circuits

(* --- CI perf smoke: ranking k-NN work and allocation ------------------------ *)

(* Clustered leg of the smoke gate: the two-level router must
   degenerate exactly at clusters=1 (same tree, same probe and trial
   counters as flat) and stay Audit-clean under the global grouped
   contract at the auto cluster count, with every region non-empty.
   All gates are deterministic counters and tree fingerprints; wall
   time and GC words are printed for the log but never gated. *)
let smoke_clustered name =
  match Workload.Circuits.find name with
  | None ->
    Format.eprintf "smoke: unknown circuit %S@." name;
    exit 2
  | Some spec ->
    header (Printf.sprintf "Perf smoke: clustered routing on %s" spec.name);
    let inst = bench_instance spec in
    let timed f =
      Obs.Report.reset ();
      let t0 = Obs.Timer.now () in
      let r = f () in
      (r, Obs.Timer.now () -. t0)
    in
    let flat, t_flat = timed (fun () -> Astskew.Router.ast_dme inst) in
    let k1, t_k1 =
      timed (fun () -> Astskew.Router.ast_dme ~clustered:true ~clusters:1 inst)
    in
    let clu, t_clu =
      timed (fun () -> Astskew.Router.ast_dme ~clustered:true inst)
    in
    let line what (r : Astskew.Router.result) wall =
      Format.printf
        "%-12s wall %6.3f s, probes %6d, trial merges %6d, minor words %.3e@."
        what wall r.engine.nn_reprobes r.engine.trial.trial_merges
        r.engine.gc.Obs.Gcstat.minor_words
    in
    line "flat:" flat t_flat;
    line "clusters=1:" k1 t_k1;
    line "clustered:" clu t_clu;
    let fail msg =
      Format.printf "FAIL: %s@." msg;
      exit 1
    in
    Option.iter
      (fun (d : Dme.Cluster.stats) ->
        Format.printf "clustered regions: %d, top-level rounds: %d@."
          d.n_clusters d.top.rounds)
      clu.clustering;
    let differs = result_diffs inst k1 flat in
    List.iter (Format.printf "  DIFF %s@.") differs;
    if differs <> [] then fail "clusters=1 run differs from the flat router's";
    let audit =
      Check.Audit.clustering inst
        ~clusters:(Dme.Cluster.auto_clusters inst)
        clu.clustering
      @ Check.Audit.run Check.Audit.Grouped inst clu.routed clu.evaluation
    in
    if audit <> [] then begin
      List.iter
        (fun (v : Check.Audit.violation) ->
          Format.printf "  AUDIT %s: %s@." v.invariant v.detail)
        audit;
      fail "clustered route failed its clustering or global grouped audit"
    end;
    Format.printf "OK@."

let smoke args =
  let name, clustered_name =
    match args with
    | [] -> ("r3", "r5")
    | [ c ] -> (c, "r5")
    | [ c; k ] -> (c, k)
    | _ ->
      Format.eprintf "usage: smoke [CIRCUIT [CLUSTERED_CIRCUIT]]@.";
      exit 2
  in
  (match Workload.Circuits.find name with
  | None ->
    Format.eprintf "smoke: unknown circuit %S@." name;
    exit 2
  | Some spec ->
    header (Printf.sprintf "Perf smoke: ranking k-NN work on %s" spec.name);
    let inst = bench_instance spec in
    Obs.Report.reset ();
    let r = Astskew.Router.ast_dme inst in
    let probes = r.engine.nn_reprobes in
    let count name = Obs.Counter.value (Option.get (Obs.Counter.find name)) in
    let queries = count "geometry.grid.queries" in
    let cells = count "geometry.grid.cells_visited" in
    let cells_per_query = float_of_int cells /. float_of_int (Int.max 1 queries) in
    Format.printf "probes %d, grid queries %d, cells visited %d (%.1f per query)@."
      probes queries cells cells_per_query;
    (* Work gate.  Every probe runs exactly one k-NN query and nothing
       else queries the grid, so queries = probes.  Re-celling as the
       population shrinks keeps a query near its neighbours: r3 visits
       about 37 cells per query re-celled and about 80 on a grid sized
       once for the leaves, so 45 catches a lost re-cell with headroom
       for honest drift.  Counts are deterministic, so this cannot flake
       on slow runners. *)
    let cells_per_query_budget = 45. in
    (* Allocation gate: the arena/SoA merge loop allocates a bounded
       number of minor words per ranking probe.  Before the slab
       rewrite the figure sat around 7500 words/probe on r5; after it,
       well under 2000 on every circuit.  The budget leaves headroom
       for honest churn while still catching a boxed octagon or closure
       sneaking back onto the hot path (a 5-6x jump).  Allocation
       counts are deterministic per domain, so like the counters above
       this cannot flake on slow runners. *)
    let words_per_probe_budget = 3500. in
    let words_per_probe =
      r.engine.gc.Obs.Gcstat.minor_words /. float_of_int (Int.max 1 probes)
    in
    Format.printf "alloc: minor words=%.3e (%.1f per probe)@."
      r.engine.gc.Obs.Gcstat.minor_words words_per_probe;
    let fail msg =
      Format.printf "FAIL: %s@." msg;
      exit 1
    in
    if queries <> probes then
      fail (Printf.sprintf "%d grid queries for %d probes" queries probes);
    if cells_per_query > cells_per_query_budget then
      fail
        (Printf.sprintf "%.1f cells visited per k-NN query exceeds the %.0f budget"
           cells_per_query cells_per_query_budget);
    if words_per_probe > words_per_probe_budget then
      fail
        (Printf.sprintf
           "allocation per probe %.1f exceeds the %.0f minor-word budget"
           words_per_probe words_per_probe_budget);
    Format.printf "OK@.");
  smoke_clustered clustered_name

(* --- bench trace: Chrome trace + JSONL journal artifacts ------------------- *)

(* Routes each circuit once (AST-DME) with a live trace and writes
   TRACE_<circuit>.json (Chrome trace-event format, Perfetto-loadable)
   and TRACE_<circuit>.jsonl (metrics journal).  Fails — exit 1 — when
   any journal's per-round sums disagree with the engine's aggregate
   stats, so CI catches instrumentation drift the moment a counter and
   its journal field diverge.  The flight recorder rides along so the
   journal also carries (and is gated on) the efficiency record. *)
let trace_bench ?(circuits = default_circuits) () =
  header "Trace artifacts (AST-DME, Chrome trace + JSONL journal)";
  Format.printf "%-8s %7s %8s %8s %9s@." "circuit" "rounds" "events" "journal"
    "check";
  let failures = ref 0 in
  List.iter
    (fun name ->
      match Workload.Circuits.find name with
      | None ->
        Format.eprintf "trace bench: unknown circuit %S@." name;
        incr failures
      | Some spec ->
        let inst = bench_instance spec in
        let trace = Obs.Trace.create () in
        Obs.Trace.merge_manifest trace
          [
            ("circuit", Obs.Json.String spec.name);
            ("n_sinks", Obs.Json.Int spec.n_sinks);
            ("n_groups", Obs.Json.Int 8);
            ("scheme", Obs.Json.String "intermingled");
            ("bound_ps", Obs.Json.Float bound);
          ];
        let run =
          { Obs.Run.null with trace; sched = Obs.Sched.create () }
        in
        let r = Astskew.Router.ast_dme ~run inst in
        let chrome_file = Printf.sprintf "TRACE_%s.json" spec.name in
        let journal_file = Printf.sprintf "TRACE_%s.jsonl" spec.name in
        Obs.Trace.write_chrome chrome_file trace;
        Obs.Trace.write_journal journal_file trace;
        let count kind =
          List.length
            (List.filter
               (function
                 | Obs.Json.Obj fields ->
                   List.assoc_opt "type" fields = Some (Obs.Json.String kind)
                 | _ -> false)
               (Obs.Trace.journal_records trace))
        in
        let bad =
          List.map
            (fun (v : Check.Audit.violation) -> v.detail)
            (Check.Audit.journal trace r.engine)
          @
          if count "efficiency" = 1 then []
          else
            [ Printf.sprintf "%d efficiency records, expected 1"
                (count "efficiency") ]
        in
        let n_events = List.length (Obs.Trace.events trace) in
        Format.printf "%-8s %7d %8d %8d %9s@." spec.name r.engine.rounds
          n_events (count "round")
          (if bad = [] then "ok" else "MISMATCH");
        List.iter (fun m -> Format.printf "  MISMATCH %s@." m) bad;
        if bad <> [] then incr failures;
        Format.printf "  wrote %s, %s@." chrome_file journal_file)
    circuits;
  if !failures > 0 then begin
    Format.printf "@.%d circuit(s) failed the journal consistency check@."
      !failures;
    exit 1
  end

(* --- BENCH_*.json comparison ---------------------------------------------- *)

(* Flattens a BENCH json tree to dotted-path -> number (list elements get
   bracketed indices, e.g. "par.runs[2].wall_s"). *)
let flatten json =
  let tbl = Hashtbl.create 128 in
  let rec go path = function
    | Obs.Json.Int i -> Hashtbl.replace tbl path (float_of_int i)
    | Obs.Json.Float f -> Hashtbl.replace tbl path f
    | Obs.Json.Obj fields ->
      List.iter
        (fun (k, v) -> go (if path = "" then k else path ^ "." ^ k) v)
        fields
    | Obs.Json.List l ->
      List.iteri (fun i v -> go (Printf.sprintf "%s[%d]" path i) v) l
    | Obs.Json.Null | Obs.Json.Bool _ | Obs.Json.String _ -> ()
  in
  go "" json;
  tbl

(* Watched cost metrics: for all of these, an increase is a regression.
   Quality metrics (wirelength, skews) are included so a perf win that
   silently trades routing quality still fails the gate; counters are
   deterministic, wall times are why the threshold exists. *)
let cost_metrics =
  [
    "wall_s"; "engine_s"; "repair_s"; "evaluate_s"; "total_s"; "cpu_seconds";
    "trial_merges"; "trial_cache_misses"; "nn_reprobes";
    "trial_merges_off"; "trial_merges_on";
    "wirelength"; "global_skew_ps"; "max_group_skew_ps";
    (* repair-loop effort: balance cycles, lift sweeps and the per-sink
       repair wall time of the scale curve — the metrics the flat-arena
       incremental repair exists to keep down *)
    "lift_iterations"; "cycles"; "repair_s_per_sink";
    (* engine-phase GC counters (see Obs.Gcstat): allocation growth is a
       perf regression just like wall time, but deterministic *)
    "minor_words"; "promoted_words"; "major_words";
    (* process-lifetime major-heap high-water mark, recorded per scale
       point: the arena-native pipeline exists to keep this flat *)
    "top_heap_words";
    (* parallel-efficiency metrics from the Obs.Sched flight recorder
       (BENCH_eff.json): serial residue, per-phase idleness and the
       chunk-latency tail are what the clustered pipeline's scaling
       lives on — all three regress upward *)
    "serial_fraction"; "idle_fraction"; "chunk_latency_p99_s";
  ]

let watched_leaf path =
  let seg =
    match String.rindex_opt path '.' with
    | Some i -> String.sub path (i + 1) (String.length path - i - 1)
    | None -> path
  in
  List.mem seg cost_metrics

(* Diffs two BENCH_<circuit>.json files (typically: committed trajectory
   vs freshly regenerated) and exits 1 when any watched metric grew by
   more than the threshold, 2 on usage or unreadable input.  Keeps perf
   trajectory checks scriptable instead of eyeball-only. *)
let compare_bench args =
  let usage () =
    Format.eprintf "usage: compare OLD.json NEW.json [--threshold PCT]@.";
    exit 2
  in
  let threshold = ref 10. in
  let files = ref [] in
  let rec parse = function
    | [] -> ()
    | "--threshold" :: t :: rest ->
      (match float_of_string_opt t with
       | Some t when t >= 0. -> threshold := t
       | _ -> usage ());
      parse rest
    | f :: rest ->
      files := f :: !files;
      parse rest
  in
  parse args;
  let old_file, new_file =
    match List.rev !files with [ o; n ] -> (o, n) | _ -> usage ()
  in
  let read path =
    match Obs.Json.read_file path with
    | v -> v
    | exception Sys_error msg ->
      Format.eprintf "compare: %s@." msg;
      exit 2
    | exception Obs.Json.Parse_error { pos; msg } ->
      Format.eprintf "compare: %s: parse error at byte %d: %s@." path pos msg;
      exit 2
  in
  let old_t = flatten (read old_file) and new_t = flatten (read new_file) in
  let paths =
    Hashtbl.fold (fun k _ acc -> k :: acc) old_t []
    |> List.filter watched_leaf
    |> List.sort compare
  in
  header
    (Printf.sprintf "BENCH compare: %s -> %s (threshold %.1f%%)" old_file
       new_file !threshold);
  Format.printf "%-52s %14s %14s %9s@." "metric" "old" "new" "change";
  let regressions = ref 0 in
  List.iter
    (fun path ->
      let ov = Hashtbl.find old_t path in
      match Hashtbl.find_opt new_t path with
      | None -> Format.printf "%-52s %14.6g %14s@." path ov "(missing)"
      | Some nv ->
        let delta = nv -. ov in
        let rel = 100. *. delta /. Float.max (Float.abs ov) 1e-9 in
        (* The absolute floor keeps float dust (e.g. a 1e-12 ps skew
           wiggle) from tripping the relative test on near-zero bases. *)
        let flag = rel > !threshold && delta > 1e-6 in
        if flag then incr regressions;
        Format.printf "%-52s %14.6g %14.6g %+8.1f%%%s@." path ov nv rel
          (if flag then "  REGRESSION" else ""))
    paths;
  let new_only =
    Hashtbl.fold
      (fun k _ acc ->
        if watched_leaf k && not (Hashtbl.mem old_t k) then k :: acc else acc)
      new_t []
  in
  List.iter
    (fun p -> Format.printf "%-52s %14s %14s (new metric)@." p "-" "-")
    (List.sort compare new_only);
  if !regressions > 0 then begin
    Format.printf "@.%d metric(s) regressed past %.1f%%@." !regressions
      !threshold;
    exit 1
  end
  else Format.printf "@.no regressions past %.1f%%@." !threshold

(* --- Bechamel micro-benchmarks ------------------------------------------- *)

let micro () =
  cache_bench ();
  header "Bechamel micro-benchmarks";
  let open Bechamel in
  let open Geometry in
  let pt = Pt.make in
  let oct_a = Octagon.hull_list [ Octagon.of_point (pt 0. 0.); Octagon.of_point (pt 500. 300.) ] in
  let oct_b = Octagon.hull_list [ Octagon.of_point (pt 4000. 100.); Octagon.of_point (pt 4500. 900.) ] in
  let r1 = Option.get (Workload.Circuits.find "r1") in
  let quick_spec = Workload.Circuits.{ name = "bench"; n_sinks = 120; die = 40000. } in
  let quick_inst scheme groups =
    Workload.Circuits.instance quick_spec ~n_groups:groups ~scheme ~bound ()
  in
  let inst_inter = quick_inst Workload.Partition.Intermingled 6 in
  let inst_clust = quick_inst Workload.Partition.Clustered 6 in
  let r1_inter =
    Workload.Circuits.instance r1 ~n_groups:8
      ~scheme:Workload.Partition.Intermingled ~bound ()
  in
  let routed, _ = Dme.Engine.run inst_inter in
  let params = Rc.Wire.default in
  let cons =
    [ Rc.Balance.{ a = { lo = 0.; hi = 1. }; b = { lo = 3.; hi = 5. }; bound = 10. } ]
  in
  let tests =
    Test.make_grouped ~name:"astskew"
      [
        (* kernel operations *)
        Test.make ~name:"octagon-dist" (Staged.stage (fun () -> Octagon.dist oct_a oct_b));
        Test.make ~name:"octagon-sdr" (Staged.stage (fun () -> Octagon.sdr oct_a oct_b));
        Test.make ~name:"balance-plan"
          (Staged.stage (fun () ->
               Rc.Balance.plan params ~dist:2000. ~cap_a:120. ~cap_b:180. ~cons ~pref:2.));
        Test.make ~name:"evaluate"
          (Staged.stage (fun () -> Clocktree.Evaluate.run inst_inter routed));
        Test.make ~name:"repair"
          (Staged.stage (fun () -> Clocktree.Repair.run inst_inter routed));
        (* one per table: the table's inner loop at reduced scale *)
        Test.make ~name:"table1-ast-clustered"
          (Staged.stage (fun () -> Astskew.Router.ast_dme inst_clust));
        Test.make ~name:"table2-ast-intermingled"
          (Staged.stage (fun () -> Astskew.Router.ast_dme inst_inter));
        Test.make ~name:"table-baseline-ext-bst"
          (Staged.stage (fun () -> Astskew.Router.ext_bst inst_inter));
        Test.make ~name:"table2-ast-r1-full"
          (Staged.stage (fun () -> Astskew.Router.ast_dme r1_inter));
        (* one per figure *)
        Test.make ~name:"fig1-zst-vs-bst"
          (Staged.stage Experiments.Figures.fig1);
        Test.make ~name:"fig2-stitch-vs-assoc"
          (Staged.stage Experiments.Figures.fig2);
        Test.make ~name:"fig3-merging-region"
          (Staged.stage Experiments.Figures.fig3);
        Test.make ~name:"fig4-instance1"
          (Staged.stage Experiments.Figures.fig4);
        Test.make ~name:"fig5-instance2"
          (Staged.stage Experiments.Figures.fig5);
      ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) ~kde:None () in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let entries =
    Hashtbl.fold
      (fun name o acc ->
        match Analyze.OLS.estimates o with
        | Some [ ns ] -> (name, ns) :: acc
        | _ -> acc)
      results []
  in
  Format.printf "%-40s %s@." "benchmark" "time/run";
  List.iter
    (fun (name, ns) ->
      let pretty =
        if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      Format.printf "%-40s %s@." name pretty)
    (List.sort (fun (a, _) (b, _) -> compare a b) entries)

(* --- bench scale: clustered routing at 10^4-10^5 sinks --------------------- *)

let scale_file = "BENCH_scale.json"

(* Synthetic specs above the named-circuit range: die side grows as
   sqrt(n) so sink density matches r1-r5; groups stay intermingled
   (via bench_instance) so the top-level stitch carries real
   cross-region skew constraints. *)
let scale_spec n =
  Workload.Circuits.
    {
      name = Printf.sprintf "s%dk" (n / 1000);
      n_sinks = n;
      die = 2000. *. sqrt (float_of_int n);
    }

(* One curve point: route clustered (auto region count and depth) with
   the live progress heartbeat on stderr, audit the stitched tree under
   the global grouped contract.  The major-heap high-water mark is the
   router's own end-of-run sample (result.top_heap_words): it is a
   process-lifetime maximum, so points must run in ascending sink order
   for per-point values to be attributable (scale's ns list is
   ascending). *)
let scale_point n =
  let spec = scale_spec n in
  let inst = bench_instance spec in
  Obs.Report.reset ();
  let run = { Obs.Run.null with progress = Obs.Progress.create () } in
  let t0 = Obs.Timer.now () in
  let r = Astskew.Router.ast_dme ~clustered:true ~run inst in
  let wall = Obs.Timer.now () -. t0 in
  let heap = r.Astskew.Router.top_heap_words in
  let audit = Check.Audit.run Check.Audit.Grouped inst r.routed r.evaluation in
  (spec, r, wall, heap, audit)

let scale_point_json (spec : Workload.Circuits.spec)
    (r : Astskew.Router.result) wall heap audit =
  let open Obs.Json in
  Obj
    [
      ("circuit", String spec.name);
      ("n_sinks", Int spec.n_sinks);
      ("die", Float spec.die);
      ( "clusters",
        Int
          (match r.clustering with
           | Some d -> d.Dme.Cluster.n_clusters
           | None -> 0) );
      ( "cluster_depth",
        Int
          (match r.clustering with
           | Some d -> d.Dme.Cluster.depth
           | None -> 0) );
      ("wall_s", Float wall);
      ( "repair_s_per_sink",
        Float (r.timings.repair_s /. float_of_int spec.n_sinks) );
      ("top_heap_words", Int heap);
      ("audit_clean", Bool (audit = []));
      ("result", Astskew.Router.json_of_result r);
    ]

let print_scale_point (spec : Workload.Circuits.spec)
    (r : Astskew.Router.result) wall heap audit =
  Format.printf
    "%-8s %8d %8d %5d %9.3f %9.3f %6d %14.0f %8.3f %8.3f %8.1f %7s@."
    spec.name spec.n_sinks
    (match r.clustering with
     | Some d -> d.Dme.Cluster.n_clusters
     | None -> 0)
    (match r.clustering with
     | Some d -> d.Dme.Cluster.depth
     | None -> 0)
    wall r.timings.repair_s r.repair.cycles r.evaluation.wirelength
    r.evaluation.global_skew r.evaluation.max_group_skew
    (float_of_int heap /. 1e6)
    (if audit = [] then "clean" else "DIRTY!");
  List.iter
    (fun (v : Check.Audit.violation) ->
      Format.printf "  AUDIT %s: %s@." v.invariant v.detail)
    audit

(* Wall-clock/wirelength/peak-heap scaling curve for the clustered
   router, written to BENCH_scale.json.  Full mode routes 10^4, ~10^4.5,
   10^5, ~10^5.5 and 10^6 sinks (the last through the multi-level
   stitch: ~1000 regions at depth 2) and checks the clusters=1 identity
   on every named circuit at jobs {1,4}; --smoke keeps CI-sized pieces
   only (one 10^4-sink route plus the identity on a downsampled
   2000-sink instance).  Both modes run the forced depth-2 leg on the
   10^4 instance.  Exits 1 when any route fails the global audit, any
   identity or depth check differs, or repair misbehaves — a fixpoint
   exhausting its cycle budget or leaving a group unresolved.  All of
   these are deterministic, so this cannot flake on slow runners. *)
let scale args =
  let smoke_mode = ref false in
  let usage () =
    Format.eprintf "usage: scale [--smoke]@.";
    exit 2
  in
  List.iter
    (function "--smoke" -> smoke_mode := true | _ -> usage ())
    args;
  let ns =
    if !smoke_mode then [ 10_000 ]
    else [ 10_000; 31_623; 100_000; 316_228; 1_000_000 ]
  in
  header
    (Printf.sprintf "Scale: clustered AST-DME%s"
       (if !smoke_mode then " (smoke)" else ""));
  Format.printf "%-8s %8s %8s %5s %9s %9s %6s %14s %8s %8s %8s %7s@."
    "circuit" "sinks" "clusters" "depth" "wall (s)" "repair(s)" "cycles"
    "wirelength" "skew" "grp-skew" "heap(MW)" "audit";
  let points =
    List.map
      (fun n ->
        let spec, r, wall, heap, audit = scale_point n in
        print_scale_point spec r wall heap audit;
        (spec, r, wall, heap, audit))
      ns
  in
  let identity_legs =
    if !smoke_mode then [ scale_spec 2_000 ]
    else List.filter_map Workload.Circuits.find default_circuits
  in
  Format.printf "@.clusters=1 vs flat identity:@.";
  let identities =
    List.map
      (fun (spec : Workload.Circuits.spec) ->
        (* ad-hoc specs (the smoke downsample) are not in the registry,
           so run the oracle on the instance directly *)
        let findings =
          Check.Oracle.identity ~jobs:[ 1; 4 ] Check.Oracle.cluster
            (bench_instance spec)
        in
        Format.printf "%-8s jobs 1,4: %s@." spec.name
          (if findings = [] then "identical" else "DIFFERS!");
        List.iter (Format.printf "  %a@." Check.Oracle.pp_finding) findings;
        (spec.name, findings))
      identity_legs
  in
  (* Forced depth-2 leg: a 10^4-sink route through a two-level stitch
     hierarchy (clusters=16 forces fan-out 4 over 4), gated on the
     stitched tree passing the global grouped audit and on a forced
     depth-1 run being bit-identical to the default-depth run (at 16
     regions the auto depth is 1, so the two must coincide exactly). *)
  let depth2_name, depth2_bad =
    let spec = scale_spec 10_000 in
    let inst = bench_instance spec in
    let base = Astskew.Router.ast_dme ~clustered:true ~clusters:16 inst in
    let d1 =
      Astskew.Router.ast_dme ~clustered:true ~clusters:16 ~cluster_depth:1
        inst
    in
    let t0 = Obs.Timer.now () in
    let d2 =
      Astskew.Router.ast_dme ~clustered:true ~clusters:16 ~cluster_depth:2
        inst
    in
    let wall2 = Obs.Timer.now () -. t0 in
    let bad =
      List.map (( ^ ) "depth=1 vs default: ") (result_diffs inst d1 base)
      @ List.map
          (fun (v : Check.Audit.violation) -> v.invariant ^ ": " ^ v.detail)
          (Check.Audit.clustering inst ~clusters:16 ~depth:2 d2.clustering
          @ Check.Audit.run Check.Audit.Grouped inst d2.routed d2.evaluation)
    in
    Format.printf "@.forced depth-2 (%s, clusters=16): %.3fs %s@." spec.name
      wall2
      (if bad = [] then "clean" else "DIRTY!");
    List.iter (Format.printf "  DEPTH2 %s@.") bad;
    (spec.name, bad)
  in
  let json =
    let open Obs.Json in
    Obj
      [
        ("bench", String "scale");
        ("mode", String (if !smoke_mode then "smoke" else "full"));
        ("bound_ps", Float bound);
        ("n_groups", Int 8);
        ("scheme", String "intermingled");
        ( "curve",
          List
            (List.map
               (fun (spec, r, wall, heap, audit) ->
                 scale_point_json spec r wall heap audit)
               points) );
        ( "cluster_identity",
          List
            (List.map
               (fun (name, findings) ->
                 Obj
                   [
                     ("circuit", String name);
                     ("jobs", List [ Int 1; Int 4 ]);
                     ("identical", Bool (findings = []));
                   ])
               identities) );
        ( "depth2",
          Obj
            [
              ("circuit", String depth2_name);
              ("clusters", Int 16);
              ("clean", Bool (depth2_bad = []));
            ] );
      ]
  in
  Obs.Json.write_file scale_file json;
  Format.printf "@.wrote %s@." scale_file;
  (* Repair gate: a fixpoint burning through its whole cycle budget (or
     worse, leaving a group over bound) is a behavioral regression even
     when the wall time still looks fine. *)
  let repair_bad =
    List.filter_map
      (fun ( (spec : Workload.Circuits.spec),
             (r : Astskew.Router.result),
             _,
             _,
             _ ) ->
        if r.repair.budget_exhausted || r.repair.unresolved_groups > 0 then
          Some
            (Printf.sprintf "%s: budget_exhausted=%b unresolved=%d" spec.name
               r.repair.budget_exhausted r.repair.unresolved_groups)
        else None)
      points
  in
  List.iter (Format.printf "REPAIR %s@.") repair_bad;
  let dirty =
    List.exists (fun (_, _, _, _, audit) -> audit <> []) points
    || List.exists (fun (_, findings) -> findings <> []) identities
    || repair_bad <> [] || depth2_bad <> []
  in
  if dirty then begin
    Format.printf "FAIL@.";
    exit 1
  end;
  Format.printf "OK@."

(* --- bench eff: parallel-efficiency sweep + BENCH_eff.json ----------------- *)

let eff_file = "BENCH_eff.json"
let eff_jobs = [ 1; 2; 4 ]

(* Sweeps the jobs knob with the Obs.Sched flight recorder live and
   prints the Amdahl ledger: measured wall speedup vs jobs=1 next to
   the speedup the measured serial fraction projects at 4/8/16 domains
   — when the two diverge, the recorder's per-phase table says which
   phase sat idle.  Deterministic gates only (report presence, serial
   fraction in [0,1], jobs=1 speedup exactly 1.0, identical trees);
   wall times and fractions are recorded for the trajectory, never
   thresholded here (that is `compare`'s job). *)
let eff args =
  let smoke_mode = ref false in
  let usage () =
    Format.eprintf "usage: eff [--smoke]@.";
    exit 2
  in
  List.iter
    (function "--smoke" -> smoke_mode := true | _ -> usage ())
    args;
  (* r4 (1903 sinks) is the smallest circuit whose engine opens a pool:
     at 1000 sinks or fewer the ranking plans serially at any jobs. *)
  let circuits = if !smoke_mode then [ "r4" ] else [ "r3"; "r5" ] in
  header
    (Printf.sprintf "Parallel efficiency (AST-DME, flight recorder%s)"
       (if !smoke_mode then ", smoke" else ""));
  Format.printf "%-8s %5s %9s %9s %8s %8s %8s %8s@." "circuit" "jobs"
    "wall (s)" "speedup" "serial%" "amdahl4" "amdahl8" "amdahl16";
  let fail msg =
    Format.printf "FAIL: %s@." msg;
    exit 1
  in
  let amdahl_at n (rep : Obs.Sched.report) =
    match Array.find_opt (fun (k, _) -> k = n) rep.Obs.Sched.amdahl with
    | Some (_, s) -> s
    | None -> Float.nan
  in
  let circuit_json =
    List.map
      (fun name ->
        match Workload.Circuits.find name with
        | None ->
          Format.eprintf "eff: unknown circuit %S@." name;
          exit 2
        | Some spec ->
          let inst = bench_instance spec in
          let runs =
            List.map
              (fun jobs ->
                Obs.Report.reset ();
                let run = { Obs.Run.null with sched = Obs.Sched.create () } in
                let t0 = Obs.Timer.now () in
                let r = Astskew.Router.ast_dme ~jobs ~run inst in
                let wall = Obs.Timer.now () -. t0 in
                (jobs, wall, r))
              eff_jobs
          in
          let _, base_wall, base = List.hd runs in
          let rows =
            List.map
              (fun (jobs, wall, (r : Astskew.Router.result)) ->
                (match Check.Audit.sched_report ~jobs r.sched with
                 | [] -> ()
                 | v :: _ ->
                   fail
                     (Printf.sprintf "%s jobs=%d: %s" spec.name jobs
                        v.Check.Audit.detail));
                let rep = Option.get r.sched in
                let speedup = base_wall /. Float.max 1e-9 wall in
                Format.printf
                  "%-8s %5d %9.3f %8.2fx %7.1f%% %7.2fx %7.2fx %7.2fx@."
                  spec.name jobs wall speedup
                  (100. *. rep.Obs.Sched.serial_fraction)
                  (amdahl_at 4 rep) (amdahl_at 8 rep) (amdahl_at 16 rep);
                if jobs = 1 && speedup <> 1.0 then
                  fail
                    (Printf.sprintf "%s: jobs=1 speedup %.17g <> 1.0" spec.name
                       speedup);
                (match result_diffs inst r base with
                 | [] -> ()
                 | d :: _ ->
                   fail
                     (Printf.sprintf "%s jobs=%d differs from jobs=1: %s"
                        spec.name jobs d));
                Obs.Json.Obj
                  [
                    ("jobs", Obs.Json.Int jobs);
                    ("wall_s", Obs.Json.Float wall);
                    ("speedup_vs_jobs1", Obs.Json.Float speedup);
                    ("identical_to_jobs1", Obs.Json.Bool true);
                    ("result", Astskew.Router.json_of_result r);
                  ])
              runs
          in
          Obs.Json.Obj
            [
              ("circuit", Obs.Json.String spec.name);
              ("n_sinks", Obs.Json.Int spec.n_sinks);
              ("n_groups", Obs.Json.Int 8);
              ("scheme", Obs.Json.String "intermingled");
              ("bound_ps", Obs.Json.Float bound);
              ("runs", Obs.Json.List rows);
            ])
      circuits
  in
  let json =
    Obs.Json.Obj
      [
        ("bench", Obs.Json.String "eff");
        ( "mode",
          Obs.Json.String (if !smoke_mode then "smoke" else "full") );
        ("cores", Obs.Json.Int (Domain.recommended_domain_count ()));
        ("circuits", Obs.Json.List circuit_json);
      ]
  in
  Obs.Json.write_file eff_file json;
  Format.printf "@.wrote %s@.OK@." eff_file

(* --- Property-based fuzzing (lib/check) ----------------------------------- *)

let fuzz_repro_file = "FUZZ_REPRO.txt"

let fuzz args =
  let cases = ref 100 in
  let seed = ref 1L in
  let inject = ref false in
  let replay = ref None in
  let regime = ref None in
  let usage () =
    Format.eprintf
      "usage: fuzz [--cases N] [--seed S] [--inject] [--replay CASE]        [--regime R]@.";
    exit 2
  in
  let rec parse = function
    | [] -> ()
    | "--cases" :: n :: rest ->
      (match int_of_string_opt n with
       | Some n when n > 0 -> cases := n
       | _ -> usage ());
      parse rest
    | "--seed" :: s :: rest ->
      (match Int64.of_string_opt s with
       | Some s -> seed := s
       | None -> usage ());
      parse rest
    | "--inject" :: rest ->
      inject := true;
      parse rest
    | "--replay" :: c :: rest ->
      (match int_of_string_opt c with
       | Some c when c >= 0 -> replay := Some c
       | _ -> usage ());
      parse rest
    | "--regime" :: r :: rest ->
      (* Only meaningful with --replay: forces the regime of the
         replayed case (e.g. "huge" for a scaled par-identity case). *)
      (match Check.Gen.regime_of_string r with
       | Some r -> regime := Some r
       | None -> usage ());
      parse rest
    | _ -> usage ()
  in
  parse args;
  match !replay with
  | Some case ->
    let findings =
      Check.replay ~inject:!inject ?regime:!regime ~seed:!seed ~case ()
    in
    List.iter (Format.printf "%a@." Check.Oracle.pp_finding) findings;
    if findings <> [] then exit 1
  | None ->
    (* stdout carries only the JSON summary; progress goes to stderr. *)
    Format.eprintf "==== Fuzz: %d cases, seed %Ld%s ====@." !cases !seed
      (if !inject then ", injected skew violations" else "");
    let on_case (case : Check.Gen.case) =
      if case.index mod 25 = 0 then
        Format.eprintf "case %d (%s)...@." case.index
          (Check.Gen.regime_to_string case.regime)
    in
    let summary =
      Check.fuzz ~inject:!inject ~on_case ~cases:!cases ~seed:!seed ()
    in
    Format.printf "%a@." Obs.Json.pp (Check.Runner.json_of_summary summary);
    if not (Check.Runner.ok summary) then begin
      let repro =
        String.concat "\n"
          (List.map Check.Runner.repro_text summary.failures)
      in
      let oc = open_out fuzz_repro_file in
      output_string oc repro;
      close_out oc;
      Format.eprintf "wrote shrunk repro(s) to %s@." fuzz_repro_file;
      exit 1
    end

(* --- main ----------------------------------------------------------------- *)

let () =
  let what = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let rest =
    if Array.length Sys.argv > 2 then
      Array.to_list (Array.sub Sys.argv 2 (Array.length Sys.argv - 2))
    else []
  in
  let circuits_of rest =
    match rest with [] -> None | cs -> Some cs
  in
  if what = "fuzz" then begin
    fuzz rest;
    exit 0
  end;
  let circuits quickly =
    if quickly then
      List.filter
        (fun (s : Workload.Circuits.spec) -> s.n_sinks <= 900)
        Workload.Circuits.specs
    else Workload.Circuits.specs
  in
  let run_tables quickly =
    ignore
      (table ~scheme:Workload.Partition.Clustered
         ~title:"Table I: clusters of sink groups" ~paper:paper_table1
         ~circuits:(circuits quickly) ());
    ignore
      (table ~scheme:Workload.Partition.Intermingled
         ~title:"Table II: intermingled sink groups" ~paper:paper_table2
         ~circuits:(circuits quickly) ())
  in
  match what with
  | "table1" ->
    ignore
      (table ~scheme:Workload.Partition.Clustered
         ~title:"Table I: clusters of sink groups" ~paper:paper_table1
         ~circuits:(circuits false) ())
  | "table2" ->
    ignore
      (table ~scheme:Workload.Partition.Intermingled
         ~title:"Table II: intermingled sink groups" ~paper:paper_table2
         ~circuits:(circuits false) ())
  | "figures" ->
    header "Figures 1-5";
    Experiments.Figures.print_all ()
  | "spice" ->
    header "Elmore vs transient (Chapter III)";
    Experiments.Spice_check.print (Experiments.Spice_check.run ())
  | "ablation" ->
    header "Ablation (Section V.F)";
    Experiments.Ablation.print (Experiments.Ablation.run ())
  | "micro" -> micro ()
  | "cache" -> cache_bench ?circuits:(circuits_of rest) ()
  | "par" -> par_bench ?circuits:(circuits_of rest) ()
  | "trace" -> trace_bench ?circuits:(circuits_of rest) ()
  | "smoke" -> smoke rest
  | "scale" -> scale rest
  | "eff" -> eff rest
  | "compare" -> compare_bench rest
  | "quick" ->
    run_tables true;
    header "Figures 1-5";
    Experiments.Figures.print_all ()
  | "all" ->
    run_tables false;
    header "Figures 1-5";
    Experiments.Figures.print_all ();
    header "Elmore vs transient (Chapter III)";
    Experiments.Spice_check.print (Experiments.Spice_check.run ());
    header "Ablation (Section V.F)";
    Experiments.Ablation.print (Experiments.Ablation.run ());
    micro ()
  | other ->
    Format.eprintf
      "unknown command %S (expected table1|table2|figures|spice|ablation|micro|cache|par|trace|smoke|scale|eff|compare|quick|all)@."
      other;
    exit 1
