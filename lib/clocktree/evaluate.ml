type report = {
  wirelength : float;
  snaking : float;
  delays : float array;
  min_delay : float;
  max_delay : float;
  global_skew : float;
  group_skew : float array;
  max_group_skew : float;
}

(* Acceptance slack shared with Repair.run: a group skew within [slack]
   of its bound counts as satisfied.  Exported so the two modules cannot
   silently drift apart. *)
let default_slack = 1e-4

(* Delays are computed through the arena's RC kernels, which replicate
   the Tree.to_rctree + Rc.Rctree.elmore pipeline bit for bit (see
   Arena) — so Elmore numbers and "SPICE" numbers still describe the
   identical circuit, and the walk is iterative: evaluation survives
   degenerate deep trees (10^6-node combs) that would overflow the
   stack of the recursive RC conversion.

   With [jobs > 1] the three kernels are split along [Arena.windows]:
   each window is a whole subtree, so its bottom-up fill is
   self-contained and its top-down fill needs only its (spine) parent's
   delay — both computed with the per-node expressions of the serial
   kernels, merely reordered across independent index ranges.  Every
   node's value is produced by exactly one domain from exactly the
   serial operands, so the result is bit-identical to [jobs = 1] for any
   decomposition and any jobs count (Check.Oracle's [evaluate] row
   enforces this).  [regions] forces the window count (tests/oracles);
   the default derives it from the sink count, which leaves small
   instances on the plain serial path. *)
let sink_delays ?(jobs = 1) ?regions ?(run = Obs.Run.null) (inst : Instance.t)
    (a : Arena.t) =
  let sched = run.Obs.Run.sched in
  let down = Array.make a.Arena.n 0. in
  let node_delay = Array.make a.Arena.n 0. in
  let delays = Array.make (Instance.n_sinks inst) 0. in
  let serial () =
    let down0 = Arena.downstream_rc ~into:down a in
    Arena.elmore ~down ~down0 ~into:node_delay a;
    Arena.delays_by_sink ~delay:node_delay ~into:delays a
  in
  let windows =
    if jobs > 1 then Arena.windows ?count:regions a else [||]
  in
  if Array.length windows < 2 then serial ()
  else
    Par.Pool.with_pool ~jobs (fun pool ->
        match pool with
        | None -> serial ()
        | Some pool ->
          (* Bottom-up caps: windows in parallel (disjoint index ranges
             of the shared array), then the ascending spine stitch. *)
          let (_ : unit array) =
            Par.Pool.map_chunked pool ~sched ~label:"evaluate.windows"
              ~chunk:1
              (fun (lo, hi) -> Arena.downstream_rc_range ~into:down ~lo ~hi a)
              windows
          in
          let down0 = Arena.downstream_rc_gaps ~into:down ~windows a in
          (* Top-down delays: the descending spine first (window roots
             read their parent's delay), then windows in parallel, each
             scattering its own leaves' delays while it holds them. *)
          Arena.elmore_gaps ~down ~down0 ~into:node_delay ~windows a;
          let (_ : unit array) =
            Par.Pool.map_chunked pool ~sched ~label:"evaluate.windows"
              ~chunk:1
              (fun (lo, hi) ->
                Arena.elmore_window ~down ~into:node_delay ~lo ~hi a;
                Arena.delays_by_sink_range ~delay:node_delay ~into:delays ~lo
                  ~hi a)
              windows
          in
          Arena.delays_by_sink_gaps ~delay:node_delay ~into:delays ~windows a);
  delays

let delays ?jobs ?regions (inst : Instance.t) (r : Tree.routed) =
  sink_delays ?jobs ?regions inst (Arena.of_routed inst.params ~rd:inst.rd r)

let report_of_arena ?jobs ?regions ?run (inst : Instance.t) (a : Arena.t) =
  let delays = sink_delays ?jobs ?regions ?run inst a in
  let min_delay = Array.fold_left Float.min Float.infinity delays in
  let max_delay = Array.fold_left Float.max Float.neg_infinity delays in
  let lo = Array.make inst.n_groups Float.infinity in
  let hi = Array.make inst.n_groups Float.neg_infinity in
  Array.iter
    (fun (s : Sink.t) ->
      lo.(s.group) <- Float.min lo.(s.group) delays.(s.id);
      hi.(s.group) <- Float.max hi.(s.group) delays.(s.id))
    inst.sinks;
  let group_skew =
    Array.init inst.n_groups (fun g ->
        if lo.(g) > hi.(g) then 0. else hi.(g) -. lo.(g))
  in
  {
    wirelength = Arena.wirelength a;
    snaking = Arena.total_snaking a;
    delays;
    min_delay;
    max_delay;
    global_skew = max_delay -. min_delay;
    group_skew;
    max_group_skew = Array.fold_left Float.max 0. group_skew;
  }

let run ?jobs ?regions (inst : Instance.t) (r : Tree.routed) =
  report_of_arena ?jobs ?regions inst (Arena.of_routed inst.params ~rd:inst.rd r)

let within_bound ?(slack = default_slack) (inst : Instance.t) report =
  let ok = ref true in
  Array.iteri
    (fun g w -> if w > Instance.bound_for inst g +. slack then ok := false)
    report.group_skew;
  !ok

let pp_report ppf r =
  Format.fprintf ppf
    "wirelength %.0f (snaking %.0f), delay [%.2f, %.2f] ps, global skew %.2f ps, max group skew %.3f ps"
    r.wirelength r.snaking r.min_delay r.max_delay r.global_skew
    r.max_group_skew
