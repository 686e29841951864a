(* Experiment harness: regenerates every table and figure of the thesis
   and runs the deterministic CI gates.  Router timing lives in
   perfbench, the benchmark of record.

   Usage: main.exe
     [table1|table2|figures|spice|ablation|quick|all]
     | smoke [CIRCUIT [CLUSTERED_CIRCUIT]]
     | scale [--smoke]
     | eff [--smoke]
     | fuzz [--cases N] [--seed S] [--inject] [--replay CASE] [--regime R]
   (default: all).  "quick" restricts the tables to r1-r3 and adds the
   figures; "all" runs the tables on r1-r5, the figures, the
   Elmore-vs-transient check and the ablation.

   "smoke" is the deterministic ranking gate: it routes one circuit
   (default r3) and fails unless the probes ran between 1 and 1.25 grid
   k-NN queries each, visited at most 18 grid cells each (and at least
   one per query), priced at most 2 candidates each and allocated at
   most 100 minor words each,
   and that Octagon.sdr allocates at most 32 minor words a call, a
   Grid_index.query at most 2.5 and a committed Merge.run at most 84; then
   it gates the clustered router on a second circuit (default r5:
   clusters=1 must equal flat bit-for-bit and the auto-clustered tree
   must pass the global grouped audit).

   "scale" routes synthetic 10^4-10^6-sink instances through the
   (multi-level) clustered router, checks the clusters=1-vs-flat
   identity and a forced depth-2 leg, and writes the BENCH_scale.json
   curve with per-point heap sample and peak resident set; each point
   routes with the live progress heartbeat on stderr (--smoke keeps the
   CI-sized pieces).

   "eff" sweeps jobs in {1,2,4} with the Obs.Sched flight recorder
   live, prints the serial-fraction / Amdahl table and, at jobs > 1,
   each run's per-phase and per-label table, writes BENCH_eff.json and
   fails when any run lacks an efficiency report, reports a serial
   fraction outside [0,1], differs from the jobs=1 tree, or the jobs=1
   leg does not measure speedup 1.0.  It sweeps flat r3 and r5 and the
   clustered 10^4- and 10^5-sink scale instances; --smoke keeps flat
   r4, the smallest circuit above the engine's 1000-sink parallel
   grain, and the clustered 10^4-sink instance.

   "fuzz" runs the lib/check property-based fuzzer, prints a JSON
   summary, and writes the shrunk repro of any failure to
   FUZZ_REPRO.txt before exiting non-zero. *)

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

let table ~scheme ~title ~paper ~circuits =
  header title;
  let rows = Experiments.Tables.run ~circuits ~bound ~scheme () in
  Experiments.Tables.print ~title rows;
  print_vs_paper paper rows

(* --- Shared instances -------------------------------------------------- *)

let bench_instance (spec : Workload.Circuits.spec) =
  Workload.Circuits.instance spec ~n_groups:8
    ~scheme:Workload.Partition.Intermingled ~bound ()

(* Every field in which two routes of [inst] differ (Check.Oracle.diffs:
   arena, evaluation report, repair stats and engine stats). *)
let result_diffs a b =
  Check.Oracle.diffs (Check.Oracle.of_result a) (Check.Oracle.of_result b)

let ast = Check.Oracle.ast
let clustered ?clusters ?depth () = { Astskew.Router.Spec.clusters; depth }

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
      let t0 = Obs.Timer.now () in
      let r = f () in
      (r, Obs.Timer.now () -. t0)
    in
    let flat, t_flat = timed (fun () -> ast inst) in
    let k1, t_k1 =
      timed (fun () -> ast ~clustering:(clustered ~clusters:1 ()) inst)
    in
    let clu, t_clu = timed (fun () -> ast ~clustering:(clustered ()) inst) in
    let line what (r : Astskew.Router.result) wall =
      Format.printf
        "%-12s wall %6.3f s, probes %6d, priced %6d, minor words %.3e@."
        what wall r.engine.nn_reprobes r.engine.trial.elided_trials
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
    let differs = result_diffs k1 flat in
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

(* The instance file path on r5 (8 intermingled groups, as every smoke
   leg routes it): words allocated per sink by [Io.to_string] and by
   [Io.of_string] on its text, counted exactly on this domain as
   [Gc.minor_words] plus the words allocated straight in the major heap
   (major minus promoted words of [Gc.counters]).  The parser reads 12.1
   words per sink: 10.0 minor words (the sink, its point and its boxed
   capacity) and 2.1 of sink arrays.  It read 16.1 while
   [Instance.make] boxed the two coordinates it checks, 20.1 while
   [float_of_string] returned a boxed float per number, and the
   line-and-token-list parser read 222.  The writer reads 18.6: the
   buffer and the final string (68 bytes a sink); it read 22.6 while it
   handed the printer a boxed float per coordinate, and the
   [Printf.bprintf] writer read 184.  The gates, 28.3 and 20.1, are
   1.25 times the 22.6 and 16.1 readings.  The decimal reader must
   decide every number of r5's text; the count for s100k's is printed.
   Deterministic like every count here. *)
let smoke_io () =
  header "Perf smoke: instance file path on r5";
  let inst = bench_instance (Option.get (Workload.Circuits.find "r5")) in
  let n = float_of_int (Clocktree.Instance.n_sinks inst) in
  let words_per_sink f =
    let _, promoted0, major0 = Gc.counters () in
    let minor0 = Gc.minor_words () in
    let r = Sys.opaque_identity (f ()) in
    let minor1 = Gc.minor_words () in
    let _, promoted1, major1 = Gc.counters () in
    (r, (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)) /. n)
  in
  let text, write_words = words_per_sink (fun () -> Clocktree.Io.to_string inst) in
  let parsed, parse_words = words_per_sink (fun () -> Clocktree.Io.of_string text) in
  Format.printf "alloc: Io.to_string %.1f words per sink, Io.of_string %.1f@." write_words
    parse_words;
  let fail msg =
    Format.printf "FAIL: %s@." msg;
    exit 1
  in
  (match parsed with
   | Ok i when Clocktree.Io.to_string i = text -> ()
   | _ -> fail "r5 does not read back to the same text");
  let s100k =
    bench_instance { name = "s100k"; n_sinks = 100_000; die = 2000. *. sqrt 1e5 }
  in
  let declined = Clocktree.Io.declined text in
  Format.printf "decimal reader: %d of r5's number tokens declined, %d of s100k's@." declined
    (Clocktree.Io.declined (Clocktree.Io.to_string s100k));
  if declined > 0 then
    fail (Printf.sprintf "the decimal reader declines %d of r5's number tokens" declined);
  let write_words_budget = 28.3 and parse_words_budget = 20.1 in
  if write_words > write_words_budget then
    fail
      (Printf.sprintf "Io.to_string allocates %.1f words per sink, over the %.1f budget"
         write_words write_words_budget);
  if parse_words > parse_words_budget then
    fail
      (Printf.sprintf "Io.of_string allocates %.1f words per sink, over the %.1f budget"
         parse_words parse_words_budget);
  Format.printf "OK@."

(* Two plan stores are the same plan when every column is, floats bit
   for bit and leaves physically. *)
let rec same_store (a : Dme.Subtree.store) (b : Dme.Subtree.store) =
  let bits x =
    Array.init (Float.Array.length x) (fun i -> Int64.bits_of_float (Float.Array.get x i))
  in
  let bounds (st : Dme.Subtree.store) =
    Array.init st.merges (fun m ->
        match Geometry.Octagon.bounds (Geometry.Octslab.get st.bounds m) with
        | Some o ->
          bits (Float.Array.of_list [ o.xl; o.xh; o.yl; o.yh; o.sl; o.sh; o.dl; o.dh ])
        | None -> [||])
  in
  a.merges = b.merges && a.kids = b.kids && a.n_sinks = b.n_sinks
  && Bytes.equal a.rule b.rule
  && bits a.lengths = bits b.lengths
  && bounds a = bounds b
  && Array.length a.sinks = Array.length b.sinks
  && Array.for_all2 ( == ) a.sinks b.sinks
  && Array.length a.subs = Array.length b.subs
  && Array.for_all2 same_store a.subs b.subs

(* The allocation of the hot kernels on [inst]'s own work, counted
   exactly with [Gc.minor_words] on this domain: minor words per
   [Grid_index.query] when every sink of the instance probes a snapshot
   of all sinks for its [knn] nearest others, as a leaf round does;
   minor words per [Merge.run] replaying every merge of the instance's
   plan; the words a merge must allocate — its result and the merged
   subtree's own blocks — per merge; the number of merges; whether the
   replayed plan is the engine's, store column for store column; and
   minor words per arena node embedding the engine's plan. *)
let kernel_allocation (inst : Clocktree.Instance.t) =
  let config = Dme.Engine.default in
  let sinks = inst.sinks in
  let n = Array.length sinks in
  let snap = Geometry.Grid_index.snapshot () and buf = Geometry.Grid_index.knn_buffer () in
  Geometry.Grid_index.pack snap
    ~cell:(Clocktree.Instance.diameter inst /. Float.sqrt (float_of_int n))
    (Array.init n Fun.id)
    (Float.Array.map_from_array (fun (s : Clocktree.Sink.t) -> s.loc.x) sinks)
    (Float.Array.map_from_array (fun (s : Clocktree.Sink.t) -> s.loc.y) sinks)
    n;
  let query i =
    Geometry.Grid_index.query snap buf ~skip:i sinks.(i).Clocktree.Sink.loc config.knn
  in
  (* The first query sizes the buffer. *)
  query 0;
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    query i
  done;
  let knn_words = (Gc.minor_words () -. w0) /. float_of_int n in
  (* A plan node keeps only its children's plans, so the merged pairs
     are captured while planning: the ranking loop with the engine's
     cost and a merger that records each committed (left, right) pair.
     The recorded plan must be the engine's; [Engine.default] ranks
     without the delay bias. *)
  let pairs = ref [] in
  let cost = Dme.Engine.cost inst in
  let merge ~id a b =
    Dme.Merge.run inst ~split_slack:config.split_slack ~width_cap:config.width_cap
      ~id a b
  in
  let root, _ =
    Dme.Order.run_ranked inst
      {
        multi_merge = config.multi_merge;
        knn = config.knn;
        delay_order_weight = 0.;
      }
      ~cost
      ~merger:
        {
          compute = (fun ~id a b -> (a, b, merge ~id a b));
          install =
            (fun (a, b, (r : Dme.Merge.result)) ->
              pairs := (a, b) :: !pairs;
              r.subtree);
        }
  in
  let engine_root, _ = Dme.Engine.plan ~config:{ config with jobs = 1 } inst in
  let same_plan =
    same_store (Dme.Subtree.store_of root) (Dme.Subtree.store_of engine_root)
  in
  let pairs = Array.of_list !pairs in
  let merge (a, b) = merge ~id:(-1) a b in
  let w0 = Gc.minor_words () in
  Array.iter (fun p -> ignore (Sys.opaque_identity (merge p))) pairs;
  let merges = float_of_int (Int.max 1 (Array.length pairs)) in
  let merge_words = (Gc.minor_words () -. w0) /. merges in
  let reachable x = float_of_int (Obj.reachable_words (Obj.repr x)) in
  let own_words = Array.fold_left (fun acc p -> acc +. reachable (merge p)) 0. pairs in
  let w0 = Gc.minor_words () in
  let arena = Dme.Embed.run_arena inst engine_root in
  let embed_words = (Gc.minor_words () -. w0) /. float_of_int arena.n in
  (knn_words, merge_words, own_words /. merges, Array.length pairs, same_plan, embed_words)

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
    let r = ast inst in
    let probes = r.engine.nn_reprobes in
    let queries = r.engine.nn_queries in
    let cells = r.engine.nn_cells in
    let cells_per_probe = float_of_int cells /. float_of_int (Int.max 1 probes) in
    Format.printf
      "probes %d, k-NN queries %d (%.2f per probe), cells visited %d (%.1f \
       per probe)@."
      probes queries
      (float_of_int queries /. float_of_int (Int.max 1 probes))
      cells cells_per_probe;
    (* Work gates.  A probe queries the grid for a quarter of its k-NN
       candidates and widens only while the region bound leaves an
       unseen candidate able to win (Order.settle), so queries run
       between one and about 1.1 per probe on r3; a probe that always
       widened to the full k would read 3, so 1.25 catches a lost bound.
       Sizing each round's snapshot cell for its population keeps a
       query near its neighbours, and the narrow first query scans fewer
       of them: r3 visits about 12.1 cells per probe, the full-k probe
       26.8 and a snapshot sized once for the leaves 28.2, so 18
       catches either regression.  Every query walks at least its own
       cell, so fewer cells than queries means the kernel's tally stopped
       reaching [engine.nn_cells], which would pass the 18-cell budget by
       reading 0.  Counts are deterministic, so this cannot flake on
       slow runners. *)
    let queries_per_probe_budget = 1.25 in
    let cells_per_probe_budget = 18. in
    (* Allocation gates.  A ranking probe allocates a bounded number of
       minor words: r3 reads 47.7 per probe (planning and embedding)
       with the round's packed k-NN snapshot, per-chunk pricing closures,
       proposals written into id-indexed arrays, sorting
       in reused scratch, merges that build only their result and
       record it in a preallocated plan store, and an embedding that
       allocates only the merges' placed points (54.8 while the build
       passed -opaque and every float crossing a call into another
       module was boxed, 57.2 before the flat octagon layout, 77.3
       while the plan was a tree of nodes whose embedding built each
       sink's point region, 73.1 while it kept whole subtrees, 131
       while a merge built its plan from octagon, interval and plan
       values).  That is
       the exact [Gc.minor_words] count; [Gc.quick_stat]'s lagging
       count, which the older readings used, read 118 for the 131,
       against 263 before them, 630 before the unboxed octagon kernels
       and 7500 before the slab rewrite.  The gate is 75: opening the
       pricing closures per probe instead of per chunk added about 43
       words (131 to 174), which fails it.
       [Octagon.sdr] allocates only its result (9 words, an 8-float
       array; 11 while the bounds record sat behind a constructor), so 32 per
       call over r3's consecutive leaf-region pairs
       catches a boxed slice or hull.  A [Grid_index.query] allocates
       only its boxed exclusion bound (2 words) when every sink of r3
       probes the snapshot of all of them, so 2.5 catches a boxed
       distance, argument or closure per query (the predicate-skip
       kernel read 6).  A committed [Merge.run] replaying r3's 861 plan
       merges, their pairs recorded while planning, reads 61.7 words,
       against 54.9 words of the merged subtree (its edge-length rule
       included) and result it must build; 84 is 1.36 times the
       reading, while the merge built from octagon, interval and plan
       values ([Merge.run_reference]) read 232 to 471 words per merge
       kind over r1-r5's plans.  Embedding r3's plan store allocates
       1.39 minor words per arena node, a placed point per merge child
       that moves off its parent's point; 1.8 is 1.29 times that, and
       the tree of plan nodes walked with a frame stack, which built a
       point region per sink, read 40.
       Allocation counts are deterministic per domain,
       so like the counts above these cannot flake on slow runners. *)
    let words_per_probe_budget = 75. in
    let sdr_words_budget = 32. in
    let knn_words_budget = 2.5 in
    let merge_words_budget = 84. in
    let embed_words_budget = 1.8 in
    let sdr_words =
      let regions =
        Array.map
          (fun s -> (Dme.Subtree.leaf s).Dme.Subtree.region)
          inst.Clocktree.Instance.sinks
      in
      let calls = Array.length regions - 1 in
      let w0 = Gc.minor_words () in
      for i = 0 to calls - 1 do
        ignore
          (Sys.opaque_identity
             (Geometry.Octagon.sdr regions.(i) regions.(i + 1)))
      done;
      (Gc.minor_words () -. w0) /. float_of_int (Int.max 1 calls)
    in
    let knn_words, merge_words, merge_own_words, merges, same_plan, embed_words =
      kernel_allocation inst
    in
    (* Pricing gate.  A probe prices a candidate only while its region
       distance can still beat the best cost (Order.cheapest), and every
       priced candidate counts one elided trial (Order.stats nn_priced).
       r3 prices about 1.1 candidates per probe; pricing all 16 k-NN
       candidates reads about 15.9, so 2 catches a lost prune.
       Deterministic like the counts above. *)
    let priced_per_probe_budget = 2. in
    let priced_per_probe =
      float_of_int r.engine.trial.elided_trials
      /. float_of_int (Int.max 1 probes)
    in
    Format.printf "pricing: %d candidates priced (%.2f per probe)@."
      r.engine.trial.elided_trials priced_per_probe;
    let words_per_probe =
      r.engine.gc.Obs.Gcstat.minor_words /. float_of_int (Int.max 1 probes)
    in
    Format.printf "alloc: minor words=%.3e (%.1f per probe), %.1f per SDR@."
      r.engine.gc.Obs.Gcstat.minor_words words_per_probe sdr_words;
    Format.printf "alloc: %.2f minor words per k-NN query@." knn_words;
    Format.printf
      "alloc: %.1f minor words per committed merge over %d merges (%.1f words \
       of merged subtree and result, %.2fx)@."
      merge_words merges merge_own_words (merge_words /. merge_own_words);
    Format.printf "alloc: %.2f minor words per embedded node@." embed_words;
    let fail msg =
      Format.printf "FAIL: %s@." msg;
      exit 1
    in
    if queries < probes then
      fail (Printf.sprintf "%d k-NN queries for %d probes" queries probes);
    if float_of_int queries > queries_per_probe_budget *. float_of_int probes then
      fail
        (Printf.sprintf "%d k-NN queries for %d probes exceeds %.2f per probe"
           queries probes queries_per_probe_budget);
    if cells < queries then
      fail
        (Printf.sprintf "%d cells visited for %d k-NN queries" cells queries);
    if cells_per_probe > cells_per_probe_budget then
      fail
        (Printf.sprintf "%.1f cells visited per probe exceeds the %.0f budget"
           cells_per_probe cells_per_probe_budget);
    if words_per_probe > words_per_probe_budget then
      fail
        (Printf.sprintf
           "allocation per probe %.1f exceeds the %.0f minor-word budget"
           words_per_probe words_per_probe_budget);
    if sdr_words > sdr_words_budget then
      fail
        (Printf.sprintf "allocation per SDR %.1f exceeds the %.0f minor-word budget"
           sdr_words sdr_words_budget);
    if knn_words > knn_words_budget then
      fail
        (Printf.sprintf
           "allocation per k-NN query %.2f exceeds the %.1f minor-word budget"
           knn_words knn_words_budget);
    if not same_plan then
      fail "the merge replay's recorded plan is not the engine's";
    if merge_words > merge_words_budget then
      fail
        (Printf.sprintf
           "allocation per committed merge %.1f exceeds the %.0f minor-word budget"
           merge_words merge_words_budget);
    if embed_words > embed_words_budget then
      fail
        (Printf.sprintf
           "allocation per embedded node %.2f exceeds the %.1f minor-word budget"
           embed_words embed_words_budget);
    if priced_per_probe > priced_per_probe_budget then
      fail
        (Printf.sprintf "%.2f candidates priced per probe exceeds the %.0f budget"
           priced_per_probe priced_per_probe_budget);
    Format.printf "OK@.");
  smoke_clustered clustered_name;
  smoke_io ()

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

(* The process's peak resident set in kB, [VmHWM] of /proc/self/status;
   [None] where /proc is absent. *)
let vmhwm_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> None
  | status ->
    List.find_map
      (fun line -> Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id)
      (String.split_on_char '\n' status)

(* One curve point: route clustered (auto region count and depth) with
   the live progress heartbeat on stderr, audit the stitched tree under
   the global grouped contract.  [heap] is the router's end-of-run heap
   sample (result.top_heap_words): under OCaml 5 the domains' heap
   statistics at that sample, not a high-water mark, so it can read
   below the route's peak.  [vmhwm] is the process's peak resident set,
   a true high-water mark but over the process's lifetime, so points
   must run in ascending sink order for per-point values to be
   attributable (scale's ns list is ascending). *)
let scale_point n =
  let spec = scale_spec n in
  let inst = bench_instance spec in
  let run = { Obs.Run.null with progress = Obs.Progress.create () } in
  let t0 = Obs.Timer.now () in
  let r = ast ~clustering:(clustered ()) ~run inst in
  let wall = Obs.Timer.now () -. t0 in
  let heap = r.Astskew.Router.top_heap_words in
  let vmhwm = vmhwm_kb () in
  let audit = Check.Audit.run Check.Audit.Grouped inst r.routed r.evaluation in
  (spec, r, wall, heap, vmhwm, audit)

let scale_point_json (spec : Workload.Circuits.spec)
    (r : Astskew.Router.result) wall heap vmhwm audit =
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
      ("vmhwm_kb", match vmhwm with Some kb -> Int kb | None -> Null);
      ("audit_clean", Bool (audit = []));
      ("result", Astskew.Router.json_of_result r);
    ]

let print_scale_point (spec : Workload.Circuits.spec)
    (r : Astskew.Router.result) wall heap vmhwm audit =
  Format.printf
    "%-8s %8d %8d %5d %9.3f %9.3f %6d %14.0f %8.3f %8.3f %8.1f %9s %7s@."
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
    (match vmhwm with Some kb -> string_of_int kb | None -> "-")
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
   2000-sink instance, and with jobs > 1 the 10^4-sink route again at
   jobs 1).  Both modes run the forced depth-2 leg on the 10^4
   instance.  Exits 1 when any route fails the global audit, any
   identity, jobs or depth check differs, or repair misbehaves — a fixpoint
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
  Format.printf "%-8s %8s %8s %5s %9s %9s %6s %14s %8s %8s %8s %9s %7s@."
    "circuit" "sinks" "clusters" "depth" "wall (s)" "repair(s)" "cycles"
    "wirelength" "skew" "grp-skew" "heap(MW)" "vmhwm_kb" "audit";
  let points =
    List.map
      (fun n ->
        let ((spec, r, wall, heap, vmhwm, audit) as point) = scale_point n in
        print_scale_point spec r wall heap vmhwm audit;
        point)
      ns
  in
  let identity_legs =
    if !smoke_mode then [ scale_spec 2_000 ]
    else Workload.Circuits.specs
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
    let base = ast ~clustering:(clustered ~clusters:16 ()) inst in
    let d1 = ast ~clustering:(clustered ~clusters:16 ~depth:1 ()) inst in
    let t0 = Obs.Timer.now () in
    let d2 = ast ~clustering:(clustered ~clusters:16 ~depth:2 ()) inst in
    let wall2 = Obs.Timer.now () -. t0 in
    let bad =
      List.map (( ^ ) "depth=1 vs default: ") (result_diffs d1 base)
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
  (* Jobs-invariance leg: under --smoke with jobs > 1, the 10^4-sink
     route is re-routed at jobs 1 and must match it in every compared
     field, repair.added_wire by its bits — the windowed global repair
     cycle runs on the pool only at jobs > 1. *)
  let jobs = Par.Pool.default_jobs () in
  let jobs_bad =
    if (not !smoke_mode) || jobs <= 1 then []
    else
      List.concat_map
        (fun ((spec : Workload.Circuits.spec), (r : Astskew.Router.result), _, _, _, _) ->
          let inst = bench_instance spec in
          let r1 = ast ~jobs:1 ~clustering:(clustered ()) inst in
          let bits (r : Astskew.Router.result) =
            Int64.bits_of_float r.repair.added_wire
          in
          let bad =
            result_diffs r r1
            @ if bits r = bits r1 then [] else [ "repair.added_wire bits" ]
          in
          Format.printf "@.%s jobs %d vs 1: %s@." spec.name jobs
            (if bad = [] then "identical" else "DIFFERS!");
          List.map (Printf.sprintf "%s jobs %d vs 1: %s" spec.name jobs) bad)
        points
  in
  List.iter (Format.printf "  JOBS %s@.") jobs_bad;
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
               (fun (spec, r, wall, heap, vmhwm, audit) ->
                 scale_point_json spec r wall heap vmhwm audit)
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
        ( "jobs_vs_1",
          Obj
            [
              ("jobs", Int jobs);
              ("checked", Bool (!smoke_mode && jobs > 1));
              ("identical", Bool (jobs_bad = []));
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
    List.exists (fun (_, _, _, _, _, audit) -> audit <> []) points
    || List.exists (fun (_, findings) -> findings <> []) identities
    || repair_bad <> [] || depth2_bad <> [] || jobs_bad <> []
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
   — when the two diverge, the recorder's per-phase table (printed for
   every run at jobs > 1) says which phase sat idle.  Deterministic
   gates only (report presence, serial fraction in [0,1], jobs=1
   speedup exactly 1.0, identical trees); wall times and fractions are
   recorded for the log, never thresholded (perfbench's
   router.speedup_j2 is the timed figure). *)
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
     at 1000 sinks or fewer the ranking plans serially at any jobs.  The
     clustered legs route bench scale's instances: the partition,
     region, stitch and windowed-repair batches only run there. *)
  let find name =
    match Workload.Circuits.find name with
    | Some spec -> spec
    | None ->
      Format.eprintf "eff: unknown circuit %S@." name;
      exit 2
  in
  let legs =
    List.map (fun name -> (find name, None)) (if !smoke_mode then [ "r4" ] else [ "r3"; "r5" ])
    @ List.map
        (fun n -> (scale_spec n, Some (clustered ())))
        (if !smoke_mode then [ 10_000 ] else [ 10_000; 100_000 ])
  in
  header
    (Printf.sprintf "Parallel efficiency (AST-DME, flight recorder%s)"
       (if !smoke_mode then ", smoke" else ""));
  let fail msg =
    Format.printf "FAIL: %s@." msg;
    exit 1
  in
  let busy fractions =
    String.concat " "
      (Array.to_list (Array.map (Printf.sprintf "%.2f") fractions))
  in
  let print_phases (rep : Obs.Sched.report) =
    Format.printf "  %-18s %8s %8s %8s %8s  %s@." "phase / label" "wall(s)"
      "par(s)" "serial(s)" "serial%" "busy per slot";
    List.iter
      (fun (p : Obs.Sched.phase_report) ->
        Format.printf "  %-18s %8.3f %8.3f %8.3f %7.1f%%  %s@." p.phase p.wall_s
          p.par_wall_s p.serial_s
          (100. *. p.serial_fraction)
          (busy p.busy_fraction);
        List.iter
          (fun (l : Obs.Sched.label_report) ->
            Format.printf "    %-16s %8s %8.3f %8s %8s  %s  (%d batches, %d items)@."
              l.label "" l.par_wall_s "" "" (busy l.busy_fraction) l.ledgers
              l.items)
          p.labels)
      rep.phases
  in
  let amdahl_at n (rep : Obs.Sched.report) =
    match Array.find_opt (fun (k, _) -> k = n) rep.Obs.Sched.amdahl with
    | Some (_, s) -> s
    | None -> Float.nan
  in
  let circuit_json =
    List.map
      (fun ((spec : Workload.Circuits.spec), clustering) ->
          let inst = bench_instance spec in
          Format.printf "@.%-8s %5s %9s %9s %8s %8s %8s %8s@." "circuit" "jobs"
            "wall (s)" "speedup" "serial%" "amdahl4" "amdahl8" "amdahl16";
          let runs =
            List.map
              (fun jobs ->
                let run = { Obs.Run.null with sched = Obs.Sched.create () } in
                let t0 = Obs.Timer.now () in
                let r = ast ~jobs ?clustering ~run inst in
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
                if jobs > 1 then print_phases rep;
                if jobs = 1 && speedup <> 1.0 then
                  fail
                    (Printf.sprintf "%s: jobs=1 speedup %.17g <> 1.0" spec.name
                       speedup);
                (match result_diffs r base with
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
              ("clustered", Obs.Json.Bool (clustering <> None));
              ("n_sinks", Obs.Json.Int spec.n_sinks);
              ("n_groups", Obs.Json.Int 8);
              ("scheme", Obs.Json.String "intermingled");
              ("bound_ps", Obs.Json.Float bound);
              ("runs", Obs.Json.List rows);
            ])
      legs
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
      "usage: fuzz [--cases N] [--seed S] [--inject] [--replay CASE] \
       [--regime R]@.";
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

let commands =
  "table1|table2|figures|spice|ablation|quick|all|smoke|scale|eff|fuzz"

let () =
  let what = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let rest =
    if Array.length Sys.argv > 2 then
      Array.to_list (Array.sub Sys.argv 2 (Array.length Sys.argv - 2))
    else []
  in
  let circuits quickly =
    if quickly then
      List.filter
        (fun (s : Workload.Circuits.spec) -> s.n_sinks <= 900)
        Workload.Circuits.specs
    else Workload.Circuits.specs
  in
  let table1 quickly =
    table ~scheme:Workload.Partition.Clustered
      ~title:"Table I: clusters of sink groups" ~paper:paper_table1
      ~circuits:(circuits quickly)
  in
  let table2 quickly =
    table ~scheme:Workload.Partition.Intermingled
      ~title:"Table II: intermingled sink groups" ~paper:paper_table2
      ~circuits:(circuits quickly)
  in
  let figures () =
    header "Figures 1-5";
    Experiments.Figures.print_all ()
  in
  let spice () =
    header "Elmore vs transient (Chapter III)";
    Experiments.Spice_check.print (Experiments.Spice_check.run ())
  in
  let ablation () =
    header "Ablation (Section V.F)";
    Experiments.Ablation.print (Experiments.Ablation.run ())
  in
  match what with
  | "table1" -> table1 false
  | "table2" -> table2 false
  | "figures" -> figures ()
  | "spice" -> spice ()
  | "ablation" -> ablation ()
  | "quick" ->
    table1 true;
    table2 true;
    figures ()
  | "all" ->
    table1 false;
    table2 false;
    figures ();
    spice ();
    ablation ()
  | "smoke" -> smoke rest
  | "scale" -> scale rest
  | "eff" -> eff rest
  | "fuzz" -> fuzz rest
  | other ->
    Format.eprintf "unknown command %S (expected %s)@." other commands;
    exit 1
