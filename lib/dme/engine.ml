type config = {
  multi_merge : bool;
  knn : int;
  delay_order_weight : float;
  split_slack : float;
  width_cap : float;
  jobs : int;
}

let default =
  {
    multi_merge = true;
    knn = 16;
    delay_order_weight = 0.;
    split_slack = 0.25;
    width_cap = 0.7;
    jobs = Par.Pool.default_jobs ();
  }

type trial_stats = { trial_merges : int; elided_trials : int }

let no_trials = { trial_merges = 0; elided_trials = 0 }

type stats = {
  rounds : int;
  same_group : int;
  cross_group : int;
  shared_one : int;
  shared_multi : int;
  planned_snake : float;
  infeasible_merges : int;
  nn_reprobes : int;
  nn_queries : int;
  nn_cells : int;
  nn_entries : int;
  nn_probes_saved : int;
  trial : trial_stats;
  gc : Obs.Gcstat.t;
}

let json_of_config (c : config) =
  Obs.Json.Obj
    [
      ("multi_merge", Obs.Json.Bool c.multi_merge);
      ("knn", Obs.Json.Int c.knn);
      ("delay_order_weight", Obs.Json.Float c.delay_order_weight);
      ("split_slack", Obs.Json.Float c.split_slack);
      ("width_cap", Obs.Json.Float c.width_cap);
      ("jobs", Obs.Json.Int c.jobs);
    ]

(* Penalty added to an infeasible candidate's cost: big enough to
   dominate every honest cost, and proportional to the instance extent
   so a rescaled layout ranks bit-identically — adding an absolute
   constant would float-absorb small cost differences at one coordinate
   scale and preserve them at another.  [d] is the instance's L1
   diameter.  A zero-extent instance has every honest cost 0, so any
   positive penalty separates. *)
let infeasible_penalty d =
  if d > 0. then 1e9 *. d else 1.

(* The ranking cost of candidate pair [(a, b)] at region distance [dist]
   (Octslab.dist, the same kernel as Octagon.dist) in [inst] of L1
   diameter [diameter]: [dist] itself, plus the penalty when the merge
   would be infeasible (mutually inconsistent shared-group offsets, the
   thesis' Instance 2), so such a pair merges only as a last resort.
   Merge.committed_feasible answers feasibility bit-identically to a
   trial Merge.run without building the merged subtree.  The penalty is
   positive, so the cost is never below [dist], as Order.run_ranked's
   contract requires. *)
let pricing inst ~diameter =
  let penalty = infeasible_penalty diameter in
  fun ~dist a b ->
    if Merge.committed_feasible inst ~dist a b then dist else dist +. penalty

let cost inst = pricing inst ~diameter:(Clocktree.Instance.diameter inst)

(* Bottom-up merge planning only: reduce [inst]'s sinks — or an explicit
   [leaves] population, see {!Order.run_ranked} — to one subtree.  Does
   not embed and does not own the pool, so the clustered router can run
   one [plan] per region on worker domains (with [pool] absent: the pool
   is not reentrant) and a top-level [plan] over the region roots on the
   shared pool.  [stats.gc] is left zero: the caller samples the GC
   around the span it reports. *)
let plan_unsampled ~config ~run ?pool ?leaves inst =
  let trace = run.Obs.Run.trace in
  let tracing = Obs.Trace.enabled trace in
  if tracing then
    Obs.Trace.merge_manifest trace [ ("engine_config", json_of_config config) ];
  (* Journal-only aggregates, touched exclusively under [tracing] so the
     untraced run's merge path stays allocation-free. *)
  let cum_wire = ref 0. in
  let h_extent =
    if tracing then Some (Obs.Trace.histogram trace "engine.region_extent")
    else None
  in
  let same_group = ref 0 in
  let cross_group = ref 0 in
  let shared_one = ref 0 in
  let shared_multi = ref 0 in
  let planned_snake = ref 0. in
  let infeasible = ref 0 in
  (* The instance's L1 diameter scales the penalty and the delay bias.
     [Instance.diameter] is an O(n) fold, and a stitch plan's instance
     holds every sink, so it is computed once per plan. *)
  let diameter = Clocktree.Instance.diameter inst in
  (* Committed-merge execution, split so the ranking loop can run the
     selected merges of a round on worker domains: [compute] is pure,
     while [install] applies the stats and tracing on the main domain in
     selection order. *)
  let compute ~id a b =
    Merge.run inst ~split_slack:config.split_slack ~width_cap:config.width_cap
      ~id a b
  in
  let install (result : Merge.result) =
    let id = result.subtree.Subtree.id in
    (match result.kind with
     | Merge.Same_group -> incr same_group
     | Merge.Cross_group -> incr cross_group
     | Merge.Shared_one -> incr shared_one
     | Merge.Shared_multi -> incr shared_multi);
    planned_snake := !planned_snake +. result.snake;
    if not result.feasible then incr infeasible;
    if tracing then begin
      cum_wire := !cum_wire +. result.planned_wire;
      (match h_extent with
       | Some h ->
         Obs.Histogram.observe h
           (Geometry.Octagon.diameter result.subtree.Subtree.region)
       | None -> ());
      Obs.Trace.instant trace ~cat:"dme.engine"
        ~args:
          [
            ("id", Obs.Json.Int id);
            ( "kind",
              Obs.Json.String
                (match result.kind with
                 | Merge.Same_group -> "same_group"
                 | Merge.Cross_group -> "cross_group"
                 | Merge.Shared_one -> "shared_one"
                 | Merge.Shared_multi -> "shared_multi") );
            ("planned_wire", Obs.Json.Float result.planned_wire);
            ("feasible", Obs.Json.Bool result.feasible);
          ]
        "merge"
    end;
    result.subtree
  in
  (* [Order]'s §V.F-2 bias adds [weight × delay-hull (ps)] to candidate
     distances (layout units), so its weight is in layout units per ps.
     Exposing that unit in the config would tie the merge order to the
     instance's absolute coordinate scale — the same layout expressed in
     different units would route differently.  The config knob is
     therefore dimensionless (hull as a fraction of an unloaded
     die-diameter wire's delay, bias as a fraction of the diameter) and
     the conversion factor [diameter / die_delay] comes from the
     instance itself.  Both factors rescale exactly under a
     power-of-two change of layout unit (coordinates ×k, unit RC ÷k),
     keeping ranked costs bit-identically ordered across scales. *)
  let delay_order_weight =
    if config.delay_order_weight = 0. then 0.
    else begin
      let die_delay =
        Rc.Elmore.wire_delay inst.Clocktree.Instance.params ~len:diameter ~load:0.
      in
      if die_delay > 0. then config.delay_order_weight *. diameter /. die_delay
      else 0.
    end
  in
  let order_config =
    Order.{ multi_merge = config.multi_merge; knn = config.knn; delay_order_weight }
  in
  let jobs = match pool with Some p -> Par.Pool.jobs p | None -> 1 in
  (* One journal record per merge round: the ranking loop's round report
     joined with the engine's cumulative planned wire and GC delta. *)
  let on_round =
    if not tracing then None
    else begin
      let last_gc = ref (Obs.Gcstat.sample ()) in
      Some
        (fun (r : Order.round_info) ->
          let gc_now = Obs.Gcstat.sample () in
          let d_gc = Obs.Gcstat.diff gc_now !last_gc in
          last_gc := gc_now;
          Obs.Trace.journal trace
            (Obs.Json.Obj
               [
                 ("type", Obs.Json.String "round");
                 ("round", Obs.Json.Int r.round);
                 ("active", Obs.Json.Int r.active);
                 ("probes", Obs.Json.Int r.probes);
                 ("nn_queries", Obs.Json.Int r.queries);
                 ("merges", Obs.Json.Int r.merges);
                 ("trial_elided", Obs.Json.Int r.priced);
                 ("merge_cost", Obs.Json.Float r.best_cost);
                 ("cum_planned_wire", Obs.Json.Float !cum_wire);
                 ("wall_s", Obs.Json.Float r.wall_s);
                 ("gc", Obs.Gcstat.json d_gc);
               ]))
    end
  in
  let root, (ostats : Order.stats) =
    let body () =
      Order.run_ranked ?pool ~run ?on_round ?leaves inst order_config
        ~cost:(pricing inst ~diameter)
        ~merger:{ Order.compute; install }
    in
    if tracing then
      Obs.Trace.span trace ~cat:"dme.engine"
        ~args:[ ("jobs", Obs.Json.Int jobs) ]
        "engine.plan" body
    else body ()
  in
  ( root,
    {
      rounds = ostats.rounds;
      nn_reprobes = ostats.nn_probes;
      nn_queries = ostats.nn_queries;
      nn_cells = ostats.nn_cells;
      nn_entries = ostats.nn_entries;
      nn_probes_saved = 0;
      same_group = !same_group;
      cross_group = !cross_group;
      shared_one = !shared_one;
      shared_multi = !shared_multi;
      planned_snake = !planned_snake;
      infeasible_merges = !infeasible;
      trial = { trial_merges = 0; elided_trials = ostats.nn_priced };
      gc = Obs.Gcstat.zero;
    } )

(* [stats.gc] covers the planning phase only, its minor words on every
   domain of the pool. *)
let plan ?(config = default) ?(run = Obs.Run.null) ?pool ?leaves inst =
  let gc = Par.Pool.gc_window pool in
  let root, stats = plan_unsampled ~config ~run ?pool ?leaves inst in
  (root, { stats with gc = gc () })

let run_arena ?(config = default) ?(run = Obs.Run.null) inst =
  (* [config.jobs] is an upper bound.  A pool costs a domain spawn plus
     two batch hand-offs per merge round, which outweighs the probes of
     an instance smaller than two regions of the shared density target
     (1000 sinks or fewer), so those plan and embed serially — the same
     grain below which repair skips its pool (evaluation opens none).  Planning
     is bit-identical for any pool size, so the gate never moves a tree.
     A flat plan has no sub-plans, so it embeds on this domain.
     [stats.gc] spans planning and embedding inside the pool's lifetime
     (a domain's spawn and join are not the route's allocation), workers'
     minor words included: one GC window, around both phases. *)
  let jobs =
    if Clocktree.Instance.(auto_regions (n_sinks inst)) >= 2 then
      Int.max 1 config.jobs
    else 1
  in
  Par.Pool.with_pool ~jobs (fun pool ->
      let gc = Par.Pool.gc_window pool in
      let root, stats = plan_unsampled ~config ~run ?pool inst in
      let arena = Embed.run_arena ~run inst root in
      (arena, { stats with gc = gc () }))
