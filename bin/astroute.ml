(* astroute: command-line driver for the associative-skew clock router.

   Subcommands:
     route    — route one circuit (or instance file) with one algorithm,
                optionally writing an SVG of the tree
     compare  — run greedy-DME, EXT-BST, MMM-DME and AST-DME on one instance
     gen      — write a benchmark instance to a file
     table    — regenerate Table I or II of the thesis
     figures  — print the figure reconstructions
*)

open Cmdliner

let circuit_arg =
  let doc = "Benchmark circuit (r1..r5)." in
  Arg.(value & opt string "r1" & info [ "c"; "circuit" ] ~docv:"NAME" ~doc)

let groups_arg =
  let doc = "Number of sink groups." in
  Arg.(value & opt int 8 & info [ "g"; "groups" ] ~docv:"N" ~doc)

let scheme_arg =
  let doc = "Group partition scheme: clustered or intermingled." in
  Arg.(value & opt string "intermingled" & info [ "s"; "scheme" ] ~docv:"SCHEME" ~doc)

let bound_arg =
  let doc = "Intra-group skew bound in picoseconds." in
  Arg.(value & opt float 10. & info [ "b"; "bound" ] ~docv:"PS" ~doc)

let seed_arg =
  let doc = "Override the deterministic placement seed." in
  Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc)

let jobs_arg =
  let doc =
    "Upper bound on the worker domains for merge ranking, embedding,      repair and evaluation (1 = fully serial).  Each phase opens a pool      only above its grain: flat routes of 1000 sinks or fewer plan,      repair and evaluate serially whatever the value.  Defaults to the ASTSKEW_JOBS      environment variable, else 1.  Routed trees are bit-identical for      any value; only wall time changes."
  in
  Arg.(
    value
    & opt int (Par.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let clustered_arg =
  let doc =
    "Route AST-DME in clustered mode: partition the sinks into spatial      regions, plan each region in parallel, stitch the region roots back      through a bounded-fan-in hierarchy of merges.  With --clusters 1 the      output is bit-identical to the flat router; any fixed cluster count      and depth is bit-identical across --jobs."
  in
  Arg.(value & flag & info [ "clustered" ] ~doc)

let clusters_arg =
  let doc =
    "Region count for --clustered (clamped to the sink count).  Default:      about one region per thousand sinks."
  in
  Arg.(value & opt (some int) None & info [ "clusters" ] ~docv:"N" ~doc)

let cluster_depth_arg =
  let doc =
    "Stitch depth for --clustered: 1 is the classic two-level      construction (every region joins one top-level merge), higher depths      stitch regions through intermediate plans of at most 64 children      each.  Default: the smallest depth that accommodates the region      count."
  in
  Arg.(
    value
    & opt (some int) None
    & info [ "cluster-depth" ] ~docv:"D" ~doc)

let algo_arg =
  let doc =
    "Algorithm: ast (AST-DME), ext (EXT-BST), zst (greedy-DME) or mmm      (fixed MMM topology)."
  in
  Arg.(value & opt string "ast" & info [ "a"; "algo" ] ~docv:"ALGO" ~doc)

let file_arg =
  let doc = "Load the instance from FILE (see Clocktree.Io for the format)              instead of generating a benchmark circuit." in
  Arg.(value & opt (some string) None & info [ "f"; "file" ] ~docv:"FILE" ~doc)

let svg_arg =
  let doc = "Write the routed tree as an SVG drawing to FILE." in
  Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"FILE" ~doc)

let stats_json_arg =
  let doc =
    "Write routing statistics as JSON to FILE: each router's result metrics \
     (wirelength, skews, per-phase timings, engine and repair stats); the \
     file's top-level $(b,schema) field is 2."
  in
  Arg.(value & opt (some string) None & info [ "stats-json" ] ~docv:"FILE" ~doc)

let progress_arg =
  let doc =
    "Print a live heartbeat to stderr while routing: one line per second      carrying the pipeline phase, wall clock, heap watermark, per-depth      region completion counts and an ETA.  Lines are strictly space-      separated key=value tokens (progress phase=... wall_s=... ...).      The heartbeat never changes the routed tree."
  in
  Arg.(value & flag & info [ "progress" ] ~doc)

let trace_arg =
  let doc =
    "Write a Chrome trace-event JSON file to FILE: spans and instants from      the routing pipeline (engine rounds, probe/commit phases, repair      cycles), loadable in Perfetto or chrome://tracing.  Tracing does not      change the routed tree."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let trace_journal_arg =
  let doc =
    "Write a JSONL metrics journal to FILE: a manifest line (circuit,      seed, full engine config), one record per DME merge round (probe,      trial-merge and elided-trial counts, merge cost, cumulative wire, wall      time) and a final histograms record."
  in
  Arg.(
    value & opt (some string) None & info [ "trace-journal" ] ~docv:"FILE" ~doc)

(* One trace context serves both artifacts; Trace.null when neither was
   requested, so the untraced run skips every emission. *)
let make_trace ~trace_file ~journal_file ~circuit ~groups ~scheme ~bound ~seed
    ~file ~jobs =
  if trace_file = None && journal_file = None then Obs.Trace.null
  else begin
    let trace = Obs.Trace.create () in
    Obs.Trace.merge_manifest trace
      ([
         ( "circuit",
           match file with
           | Some f -> Obs.Json.String f
           | None -> Obs.Json.String circuit );
         ("groups", Obs.Json.Int groups);
         ("scheme", Obs.Json.String scheme);
         ("bound_ps", Obs.Json.Float bound);
         ("jobs", Obs.Json.Int jobs);
       ]
      @ match seed with
        | Some s -> [ ("seed", Obs.Json.Int s) ]
        | None -> []);
    trace
  end

(* Write one output file; an unwritable path is reported, not raised.
   Returns an exit code. *)
let write what path writer =
  match writer path with
  | () ->
    Format.printf "wrote %s@." path;
    0
  | exception Sys_error e ->
    Format.eprintf "astroute: cannot write %s: %s@." what e;
    1

let write_trace_files ~trace_file ~journal_file trace =
  let c1 =
    match trace_file with
    | Some path -> write "trace" path (fun p -> Obs.Trace.write_chrome p trace)
    | None -> 0
  in
  let c2 =
    match journal_file with
    | Some path ->
      write "trace journal" path (fun p -> Obs.Trace.write_journal p trace)
    | None -> 0
  in
  Int.max c1 c2

(* The schema-2 document of Router.json_of_results: each router's
   counts live in its own result object.  Returns an exit code. *)
let write_stats_json path results =
  write "stats" path (fun p ->
      Obs.Json.write_file p (Astskew.Router.json_of_results results))

(* The generation options are checked before anything is built, so a
   bad value is reported like any other input error instead of escaping
   as an exception from instance construction. *)
let load_instance ?file circuit groups scheme bound seed =
  if groups < 1 then
    Error (Printf.sprintf "--groups must be at least 1, got %d" groups)
  else if not (Float.is_finite bound && bound >= 0.) then
    Error
      (Printf.sprintf "--bound must be a finite, non-negative skew in ps, got %g"
         bound)
  else
  match file with
  | Some path -> Clocktree.Io.read_file path
  | None ->
  match Workload.Circuits.find circuit with
  | None -> Error (Printf.sprintf "unknown circuit %S (expected r1..r5)" circuit)
  | Some spec ->
    (match Workload.Partition.scheme_of_string scheme with
     | None -> Error (Printf.sprintf "unknown scheme %S" scheme)
     | Some scheme ->
       let seed = Option.map Int64.of_int seed in
       Ok (Workload.Circuits.instance ?seed spec ~n_groups:groups ~scheme ~bound ()))

let print_result name (r : Astskew.Router.result) =
  Format.printf "%-11s %a@." name Astskew.Router.pp_result r

let route_cmd =
  let run circuit groups scheme bound seed algo file svg stats_json jobs
      clustered clusters cluster_depth
      show_progress trace_file journal_file =
    (* The algorithm, then its --clustered combination, are checked
       before anything is built: a bad choice must not cost a route. *)
    let router =
      match algo with
      | "ast" ->
        Ok
          ( "AST-DME",
            Astskew.Router.ast_dme ~clustered ?clusters ?cluster_depth )
      | ("ext" | "zst" | "mmm") when clustered ->
        Error "--clustered applies to --algo ast only"
      | "ext" -> Ok ("EXT-BST", Astskew.Router.ext_bst)
      | "zst" -> Ok ("greedy-DME", Astskew.Router.greedy_dme)
      | "mmm" -> Ok ("MMM-DME", Astskew.Router.mmm_dme)
      | _ -> Error (Printf.sprintf "unknown algorithm %S" algo)
    in
    let loaded =
      Result.bind router (fun router ->
          Result.map
            (fun inst -> (router, inst))
            (load_instance ?file circuit groups scheme bound seed))
    in
    match loaded with
    | Error e ->
      Format.eprintf "astroute: %s@." e;
      1
    | Ok ((name, route), inst) ->
      let trace =
        make_trace ~trace_file ~journal_file ~circuit ~groups ~scheme ~bound
          ~seed ~file ~jobs
      in
      let progress =
        if show_progress then Obs.Progress.create () else Obs.Progress.null
      in
      let run = { Obs.Run.null with trace; progress } in
      let r = route ~jobs ~run inst in
      Format.printf "%a@." Clocktree.Instance.pp inst;
      print_result name r;
      (match r.Astskew.Router.clustering with
       | Some d ->
         Format.printf
           "clustered: %d regions at depth %d (%d super stitches), %d top-level rounds, largest region %d sinks@."
           d.Dme.Cluster.n_clusters d.Dme.Cluster.depth
           (Array.length d.Dme.Cluster.super)
           d.Dme.Cluster.top.Dme.Engine.rounds
           (Array.fold_left
              (fun m (c : Dme.Cluster.cluster_stats) -> Int.max m c.n_sinks)
              0 d.Dme.Cluster.per_cluster)
       | None -> ());
      let svg_code =
        match svg with
        | Some path ->
          write "svg" path (fun p ->
              Clocktree.Svg.write_file p inst
                (Clocktree.Arena.to_routed r.routed))
        | None -> 0
      in
      let trace_code = write_trace_files ~trace_file ~journal_file trace in
      let stats_code =
        match stats_json with
        | Some path -> write_stats_json path [ (name, r) ]
        | None -> 0
      in
      Int.max svg_code (Int.max trace_code stats_code)
  in
  let term =
    Term.(
      const run $ circuit_arg $ groups_arg $ scheme_arg $ bound_arg $ seed_arg
      $ algo_arg $ file_arg $ svg_arg $ stats_json_arg $ jobs_arg
      $ clustered_arg $ clusters_arg
      $ cluster_depth_arg $ progress_arg $ trace_arg
      $ trace_journal_arg)
  in
  Cmd.v (Cmd.info "route" ~doc:"Route one circuit with one algorithm.") term

let gen_cmd =
  let out =
    let doc = "Output instance file." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run circuit groups scheme bound seed out =
    match load_instance circuit groups scheme bound seed with
    | Error e ->
      Format.eprintf "astroute: %s@." e;
      1
    | Ok inst ->
      let code = write "instance" out (fun p -> Clocktree.Io.write_file p inst) in
      if code = 0 then Format.printf "%a@." Clocktree.Instance.pp inst;
      code
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a benchmark instance file.")
    Term.(
      const run $ circuit_arg $ groups_arg $ scheme_arg $ bound_arg $ seed_arg
      $ out)

let compare_cmd =
  let run circuit groups scheme bound seed file stats_json jobs clustered
      clusters trace_file journal_file =
    match load_instance ?file circuit groups scheme bound seed with
    | Error e ->
      Format.eprintf "astroute: %s@." e;
      1
    | Ok inst ->
      Format.printf "%a@." Clocktree.Instance.pp inst;
      (* All four routers share one trace: their phases appear as
         consecutive span groups in the exported timeline. *)
      let trace =
        make_trace ~trace_file ~journal_file ~circuit ~groups ~scheme ~bound
          ~seed ~file ~jobs
      in
      let run = { Obs.Run.null with trace } in
      let zst = Astskew.Router.greedy_dme ~jobs ~run inst in
      let ext = Astskew.Router.ext_bst ~jobs ~run inst in
      let mmm = Astskew.Router.mmm_dme ~jobs ~run inst in
      (* --clustered applies to the AST-DME leg only; the baselines have
         no clustered mode. *)
      let ast = Astskew.Router.ast_dme ~jobs ~clustered ?clusters ~run inst in
      print_result "greedy-DME" zst;
      print_result "EXT-BST" ext;
      print_result "MMM-DME" mmm;
      print_result "AST-DME" ast;
      Format.printf "AST-DME reduction vs EXT-BST: %.2f%%@."
        (100. *. Astskew.Router.reduction ~baseline:ext ast);
      let trace_code = write_trace_files ~trace_file ~journal_file trace in
      let stats_code =
        match stats_json with
        | Some path ->
          write_stats_json path
            [
              ("greedy-DME", zst);
              ("EXT-BST", ext);
              ("MMM-DME", mmm);
              ("AST-DME", ast);
            ]
        | None -> 0
      in
      Int.max trace_code stats_code
  in
  let term =
    Term.(
      const run $ circuit_arg $ groups_arg $ scheme_arg $ bound_arg $ seed_arg
      $ file_arg $ stats_json_arg $ jobs_arg $ clustered_arg $ clusters_arg
      $ trace_arg $ trace_journal_arg)
  in
  Cmd.v (Cmd.info "compare" ~doc:"Compare all routers on one instance.") term

let table_cmd =
  let which =
    let doc = "Which table: 1 (clustered) or 2 (intermingled)." in
    Arg.(value & pos 0 int 2 & info [] ~docv:"N" ~doc)
  in
  let quick =
    let doc = "Restrict to r1-r3 for a fast run." in
    Arg.(value & flag & info [ "quick" ] ~doc)
  in
  let run which quick =
    let scheme, title =
      match which with
      | 1 -> (Workload.Partition.Clustered, "Table I: clusters of sink groups")
      | 2 -> (Workload.Partition.Intermingled, "Table II: intermingled sink groups")
      | _ ->
        Format.eprintf "astroute: table must be 1 or 2@.";
        exit 1
    in
    let circuits =
      if quick then
        List.filter
          (fun (s : Workload.Circuits.spec) -> s.n_sinks <= 900)
          Workload.Circuits.specs
      else Workload.Circuits.specs
    in
    let rows = Experiments.Tables.run ~circuits ~scheme () in
    Experiments.Tables.print ~title rows;
    0
  in
  Cmd.v
    (Cmd.info "table" ~doc:"Regenerate Table I or II.")
    Term.(const run $ which $ quick)

let figures_cmd =
  let run () =
    Experiments.Figures.print_all ();
    0
  in
  Cmd.v (Cmd.info "figures" ~doc:"Print the figure reconstructions.")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "astroute" ~version:"1.0.0"
      ~doc:"Associative-skew clock routing (AST-DME) and baselines."
  in
  exit
    (Cmd.eval'
       (Cmd.group info [ route_cmd; compare_cmd; gen_cmd; table_cmd; figures_cmd ]))
