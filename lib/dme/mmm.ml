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

let plan_on ?(config = Engine.default) ?(run = Obs.Run.null)
    (inst : Clocktree.Instance.t) =
  let trace = run.Obs.Run.trace in
  let tracing = Obs.Trace.enabled trace in
  if tracing then
    Obs.Trace.merge_manifest trace
      [ ("engine_config", Engine.json_of_config config) ];
  let c = Subtree.cols (Subtree.Sinks inst.sinks) in
  let depth = ref 0 in
  (* Both children are built before the merge takes the next id, so ids
     are recorded in order and exceed the children's. *)
  let merge a b =
    let id = Subtree.reserve c a b in
    Merge.run inst ~split_slack:config.split_slack ~width_cap:config.width_cap c ~id a b;
    id
  in
  let rec build (sinks : Clocktree.Sink.t array) level =
    depth := Int.max !depth level;
    match Array.length sinks with
    | 0 -> invalid_arg "Mmm.plan: empty sink set"
    | 1 -> sinks.(0).id
    | _ ->
      let left, right = bisect sinks in
      (* The right half is built first, so its merges take the lower
         ids. *)
      let b = build right (level + 1) in
      merge (build left (level + 1)) b
  in
  let (_ : int) =
    if tracing then
      Obs.Trace.span trace ~cat:"dme.mmm"
        ~args:[ ("sinks", Obs.Json.Int (Clocktree.Instance.n_sinks inst)) ]
        "mmm.build"
        (fun () -> build inst.sinks 0)
    else build inst.sinks 0
  in
  (Subtree.finish c, Engine.of_run c ~rounds:!depth)

let plan ?config inst = plan_on ?config inst

let run_arena ?config ?(run = Obs.Run.null) inst =
  let gc0 = Obs.Gcstat.sample () in
  let root, stats = plan_on ?config ~run inst in
  let arena = Embed.run_arena ~run inst root in
  (arena, { stats with gc = Obs.Gcstat.diff (Obs.Gcstat.sample ()) gc0 })
