module Pt = Geometry.Pt

(* Split a sink array at the median of the longer bounding-box dimension;
   a stable sort keeps the construction deterministic. *)
let bisect sinks =
  let xs = Array.map (fun (s : Clocktree.Sink.t) -> s.loc.Pt.x) sinks in
  let ys = Array.map (fun (s : Clocktree.Sink.t) -> s.loc.Pt.y) sinks in
  let spread arr =
    Array.fold_left Float.max Float.neg_infinity arr
    -. Array.fold_left Float.min Float.infinity arr
  in
  let by_x = spread xs >= spread ys in
  let sorted = Array.copy sinks in
  Array.stable_sort
    (fun (a : Clocktree.Sink.t) (b : Clocktree.Sink.t) ->
      if by_x then Float.compare a.loc.Pt.x b.loc.Pt.x
      else Float.compare a.loc.Pt.y b.loc.Pt.y)
    sorted;
  let mid = Array.length sorted / 2 in
  (Array.sub sorted 0 mid, Array.sub sorted mid (Array.length sorted - mid))

let run_arena ?(config = Engine.default) ?(run = Obs.Run.null)
    (inst : Clocktree.Instance.t) =
  let gc0 = Obs.Gcstat.sample () in
  let trace = run.Obs.Run.trace in
  let tracing = Obs.Trace.enabled trace in
  if tracing then
    Obs.Trace.merge_manifest trace
      [ ("engine_config", Engine.json_of_config config) ];
  let same_group = ref 0 in
  let cross_group = ref 0 in
  let shared_one = ref 0 in
  let shared_multi = ref 0 in
  let planned_snake = ref 0. in
  let infeasible = ref 0 in
  let next_id = ref (Clocktree.Instance.n_sinks inst) in
  let depth = ref 0 in
  let merge a b =
    let id = !next_id in
    incr next_id;
    let result =
      Merge.run inst ~slack_usage:config.slack_usage
        ~split_slack:config.split_slack ~width_cap:config.width_cap
        ~sdr_samples:config.sdr_samples ~id a b
    in
    (match result.kind with
     | Merge.Same_group -> incr same_group
     | Merge.Cross_group -> incr cross_group
     | Merge.Shared_one -> incr shared_one
     | Merge.Shared_multi -> incr shared_multi);
    planned_snake := !planned_snake +. result.snake;
    if not result.feasible then incr infeasible;
    result.subtree
  in
  let rec build sinks level =
    depth := Int.max !depth level;
    match Array.length sinks with
    | 0 -> invalid_arg "Mmm.run_arena: empty sink set"
    | 1 -> Subtree.leaf sinks.(0)
    | _ ->
      let left, right = bisect sinks in
      merge (build left (level + 1)) (build right (level + 1))
  in
  let root =
    if tracing then
      Obs.Trace.span trace ~cat:"dme.mmm"
        ~args:[ ("sinks", Obs.Json.Int (Clocktree.Instance.n_sinks inst)) ]
        "mmm.build"
        (fun () -> build inst.sinks 0)
    else build inst.sinks 0
  in
  let arena = Embed.run_arena ~run inst root in
  ( arena,
    Engine.
      {
        rounds = !depth;
        same_group = !same_group;
        cross_group = !cross_group;
        shared_one = !shared_one;
        shared_multi = !shared_multi;
        planned_snake = !planned_snake;
        infeasible_merges = !infeasible;
        nn_reprobes = 0;
        nn_probes_saved = 0;
        trial = Engine.no_trials;
        gc = Obs.Gcstat.diff (Obs.Gcstat.sample ()) gc0;
      } )
