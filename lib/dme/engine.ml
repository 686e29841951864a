type config = {
  multi_merge : bool;
  merge_fraction : float;
  knn : int;
  delay_order_weight : float;
  split_slack : float;
  slack_usage : float;
  width_cap : float;
  sdr_samples : int;
  cost_by_planned_wire : bool;
  avoid_infeasible : bool;
  trial_cache : bool;
  jobs : int;
}

let default =
  {
    multi_merge = true;
    merge_fraction = 0.5;
    knn = 16;
    delay_order_weight = 0.;
    split_slack = 0.25;
    slack_usage = 0.3;
    width_cap = 0.7;
    sdr_samples = 9;
    cost_by_planned_wire = false;
    avoid_infeasible = true;
    trial_cache = true;
    jobs = Par.Pool.default_jobs ();
  }

type trial_stats = {
  trial_merges : int;
  cache_hits : int;
  cache_misses : int;
  elided_trials : int;
  reused_trials : int;
}

let no_trials =
  {
    trial_merges = 0;
    cache_hits = 0;
    cache_misses = 0;
    elided_trials = 0;
    reused_trials = 0;
  }

type stats = {
  rounds : int;
  same_group : int;
  cross_group : int;
  shared_one : int;
  shared_multi : int;
  planned_snake : float;
  infeasible_merges : int;
  nn_reprobes : int;
  nn_probes_saved : int;
  trial : trial_stats;
  gc : Obs.Gcstat.t;
}

let json_of_config (c : config) =
  Obs.Json.Obj
    [
      ("multi_merge", Obs.Json.Bool c.multi_merge);
      ("merge_fraction", Obs.Json.Float c.merge_fraction);
      ("knn", Obs.Json.Int c.knn);
      ("delay_order_weight", Obs.Json.Float c.delay_order_weight);
      ("split_slack", Obs.Json.Float c.split_slack);
      ("slack_usage", Obs.Json.Float c.slack_usage);
      ("width_cap", Obs.Json.Float c.width_cap);
      ("sdr_samples", Obs.Json.Int c.sdr_samples);
      ("cost_by_planned_wire", Obs.Json.Bool c.cost_by_planned_wire);
      ("avoid_infeasible", Obs.Json.Bool c.avoid_infeasible);
      ("trial_cache", Obs.Json.Bool c.trial_cache);
      ("jobs", Obs.Json.Int c.jobs);
    ]

let c_trials = Obs.Counter.make "dme.engine.trial_merges"
let c_hits = Obs.Counter.make "dme.engine.trial_cache_hits"
let c_misses = Obs.Counter.make "dme.engine.trial_cache_misses"
let c_elided = Obs.Counter.make "dme.engine.trial_elided"
let c_reused = Obs.Counter.make "dme.engine.trial_reused"
let c_committed = Obs.Counter.make "dme.engine.committed_merges"

(* One memo cell per unordered subtree-id pair.  The two orientations are
   stored separately: Rc.Balance.plan is not guaranteed to be
   floating-point symmetric in its arguments, and the cached cost closure
   must return exactly what an uncached run would, so the routed trees
   stay bit-identical with the cache on or off. *)
type trial_cell = {
  mutable fwd : Merge.result option;  (** [a.id <= b.id] orientation *)
  mutable rev : Merge.result option;
}

(* Side results of one ranking probe, carried back to the main domain:
   trials the probe had to run itself (found neither in the round-start
   cache snapshot nor elided) plus its cache-counter deltas.  The cache
   is frozen while probes run, so a probe's note is a pure function of
   its subtree and the round-start state — identical for any jobs count,
   and identical to what the pre-parallel serial code observed (within a
   round no two probes ever evaluate the same pair orientation, so
   installing trials at round end loses no hits). *)
type note = {
  fresh : (Subtree.t * Subtree.t * Merge.result) list;
  n_trials : int;
  n_hits : int;
  n_elided : int;
}

(* Bottom-up merge planning only: reduce [inst]'s sinks — or an explicit
   [leaves] population, see {!Order.run_ranked} — to one subtree.  Does
   not embed and does not own the pool, so the clustered router can run
   one [plan] per region on worker domains (with [pool] absent: the pool
   is not reentrant) and a top-level [plan] over the region roots on the
   shared pool.  [stats.gc] covers the planning phase only. *)
let plan ?(config = default) ?(run = Obs.Run.null) ?pool ?leaves inst =
  let gc0 = Obs.Gcstat.sample () in
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
  let trial_merges = ref 0 in
  let hits = ref 0 in
  let misses = ref 0 in
  let elided = ref 0 in
  let reused = ref 0 in
  let run_merge ~id a b =
    Merge.run inst ~slack_usage:config.slack_usage
      ~split_slack:config.split_slack ~width_cap:config.width_cap
      ~sdr_samples:config.sdr_samples ~id a b
  in
  (* Penalty added to an infeasible candidate's cost: big enough to
     dominate every honest cost, and proportional to the instance extent
     so a rescaled layout ranks bit-identically — adding an absolute
     constant would float-absorb small cost differences at one
     coordinate scale and preserve them at another.  A zero-extent
     instance has every honest cost 0, so any positive penalty
     separates. *)
  let infeasible_penalty =
    let d = Geometry.Octagon.diameter (Clocktree.Instance.bbox inst) in
    if d > 0. then 1e9 *. d else 1.
  in
  let cache : (int * int, trial_cell) Hashtbl.t = Hashtbl.create 1024 in
  (* Keys each live subtree participates in, for eviction.  Subtree ids
     are never reused, so a stale entry could never be *hit* — eviction
     only bounds the cache's memory to the surviving pairs. *)
  let partners : (int, (int * int) list ref) Hashtbl.t = Hashtbl.create 1024 in
  let pair_key (a : Subtree.t) (b : Subtree.t) =
    if a.id <= b.id then (a.id, b.id, true) else (b.id, a.id, false)
  in
  let link id key =
    match Hashtbl.find_opt partners id with
    | Some l -> l := key :: !l
    | None -> Hashtbl.add partners id (ref [ key ])
  in
  let evict id =
    match Hashtbl.find_opt partners id with
    | None -> ()
    | Some keys ->
      List.iter (Hashtbl.remove cache) !keys;
      Hashtbl.remove partners id
  in
  let lookup a b =
    let i, j, forward = pair_key a b in
    match Hashtbl.find_opt cache (i, j) with
    | None -> None
    | Some cell -> if forward then cell.fwd else cell.rev
  in
  let store a b r =
    let i, j, forward = pair_key a b in
    let cell =
      match Hashtbl.find_opt cache (i, j) with
      | Some c -> c
      | None ->
        let c = { fwd = None; rev = None } in
        Hashtbl.add cache (i, j) c;
        link i (i, j);
        link j (i, j);
        c
    in
    if forward then cell.fwd <- Some r else cell.rev <- Some r
  in
  (* One ranking probe's cost evaluator.  A trial merge probes a
     candidate pair; its result is a pure function of the two subtrees,
     so it can be answered from the (frozen) cache, elided outright for
     cross-group pairs, or run fresh — in which case the result rides
     back in the note for the main domain to install.  Shared state is
     only read here, making the session safe on worker domains. *)
  let session () =
    let fresh = ref [] in
    let n_trials = ref 0 and n_hits = ref 0 and n_elided = ref 0 in
    let trial a b =
      match if config.trial_cache then lookup a b else None with
      | Some r ->
        incr n_hits;
        r
      | None ->
        incr n_trials;
        let r = run_merge ~id:(-1) a b in
        if config.trial_cache then fresh := (a, b, r) :: !fresh;
        r
    in
    (* [dist] arrives from the ranking loop's region slab
       (Octslab.dist, bit-identical to Octagon.dist on these regions). *)
    let cost ~dist (a : Subtree.t) (b : Subtree.t) =
      if config.cost_by_planned_wire then begin
        if config.trial_cache && Subtree.shared_groups a b = [] then begin
          (* Cross-group fast path: an unconstrained merge is always
             feasible and its planned wire is exactly the region distance
             (Merge.merge_cross), so the trial's only two cost-relevant
             outputs are known without running it. *)
          incr n_elided;
          dist
        end
        else begin
          let t = trial a b in
          (* An infeasible pair (mutually inconsistent shared-group
             offsets, the thesis' Instance 2) is merged only as a last
             resort. *)
          if config.avoid_infeasible && not t.feasible then
            t.planned_wire +. infeasible_penalty
          else t.planned_wire
        end
      end
      else if config.avoid_infeasible then begin
        (* Distance-cost ranking needs only feasibility from a trial, and
           Merge.committed_feasible answers that bit-identically without
           building the merged subtree — so no probe ever runs a trial
           merge.  Counted as elided trials under the same gate as the
           cross-group elision above, so cache-off runs keep reporting
           zero elisions. *)
        if config.trial_cache then incr n_elided;
        if Merge.committed_feasible inst ~slack_usage:config.slack_usage
             ~dist a b
        then dist
        else dist +. infeasible_penalty
      end
      else dist
    in
    ( cost,
      fun () ->
        {
          fresh = List.rev !fresh;
          n_trials = !n_trials;
          n_hits = !n_hits;
          n_elided = !n_elided;
        } )
  in
  let absorb note =
    trial_merges := !trial_merges + note.n_trials;
    Obs.Counter.add c_trials note.n_trials;
    if config.trial_cache then begin
      hits := !hits + note.n_hits;
      Obs.Counter.add c_hits note.n_hits;
      misses := !misses + note.n_trials;
      Obs.Counter.add c_misses note.n_trials;
      elided := !elided + note.n_elided;
      Obs.Counter.add c_elided note.n_elided;
      List.iter (fun (a, b, r) -> store a b r) note.fresh
    end
  in
  (* Committed-merge execution, split so the ranking loop can run the
     selected merges of a round on worker domains: [compute] is pure
     with respect to shared state — the trial cache is only read, and it
     is frozen while the round's computes run because evictions happen
     in [install], after the whole compute batch — while [install]
     applies the stats, cache eviction and tracing on the main domain in
     selection order.  The result tuple carries the child ids for
     eviction and whether the cache supplied the result (the counter
     increment must not race on a worker). *)
  let compute ~id (a : Subtree.t) (b : Subtree.t) =
    match if config.trial_cache then lookup a b else None with
    | Some r ->
      (* The winning pair was already trial-merged during ranking; the
         committed merge differs only in the subtree id. *)
      (a.Subtree.id, b.Subtree.id,
       { r with Merge.subtree = { r.Merge.subtree with Subtree.id = id } },
       true)
    | None -> (a.Subtree.id, b.Subtree.id, run_merge ~id a b, false)
  in
  let install (aid, bid, (result : Merge.result), reused_hit) =
    let id = result.subtree.Subtree.id in
    if reused_hit then begin
      incr reused;
      Obs.Counter.incr c_reused
    end;
    Obs.Counter.incr c_committed;
    (match result.kind with
     | Merge.Same_group -> incr same_group
     | Merge.Cross_group -> incr cross_group
     | Merge.Shared_one -> incr shared_one
     | Merge.Shared_multi -> incr shared_multi);
    planned_snake := !planned_snake +. result.snake;
    if not result.feasible then incr infeasible;
    if config.trial_cache then begin
      evict aid;
      evict bid
    end;
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
      let d = Geometry.Octagon.diameter (Clocktree.Instance.bbox inst) in
      let die_delay =
        Rc.Elmore.wire_delay inst.Clocktree.Instance.params ~len:d ~load:0.
      in
      if die_delay > 0. then config.delay_order_weight *. d /. die_delay else 0.
    end
  in
  let order_config =
    Order.
      {
        multi_merge = config.multi_merge;
        merge_fraction = config.merge_fraction;
        knn = config.knn;
        delay_order_weight;
      }
  in
  let jobs = match pool with Some p -> Par.Pool.jobs p | None -> 1 in
  (* One journal record per merge round.  Trial-cache counters are
     engine-side state, so their per-round deltas are computed here and
     joined with the ranking loop's own round report. *)
  let on_round =
    if not tracing then None
    else begin
      let last_trials = ref 0 and last_hits = ref 0 and last_elided = ref 0 in
      let last_gc = ref (Obs.Gcstat.sample ()) in
      Some
        (fun (r : Order.round_info) ->
          let d_trials = !trial_merges - !last_trials in
          let d_hits = !hits - !last_hits in
          let d_elided = !elided - !last_elided in
          last_trials := !trial_merges;
          last_hits := !hits;
          last_elided := !elided;
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
                 ("nn_probes_saved", Obs.Json.Int 0);
                 ("merges", Obs.Json.Int r.merges);
                 ("trial_merges", Obs.Json.Int d_trials);
                 ("trial_cache_hits", Obs.Json.Int d_hits);
                 ("trial_elided", Obs.Json.Int d_elided);
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
        ~coster:{ Order.session; absorb }
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
      nn_probes_saved = 0;
      same_group = !same_group;
      cross_group = !cross_group;
      shared_one = !shared_one;
      shared_multi = !shared_multi;
      planned_snake = !planned_snake;
      infeasible_merges = !infeasible;
      trial =
        {
          trial_merges = !trial_merges;
          cache_hits = !hits;
          cache_misses = !misses;
          elided_trials = !elided;
          reused_trials = !reused;
        };
      gc = Obs.Gcstat.diff (Obs.Gcstat.sample ()) gc0;
    } )

let run_arena ?(config = default) ?(run = Obs.Run.null) inst =
  let gc0 = Obs.Gcstat.sample () in
  (* [config.jobs] is an upper bound.  A pool costs a domain spawn plus
     two batch hand-offs per merge round, which outweighs the probes of
     an instance smaller than two regions of the shared density target
     (1000 sinks or fewer), so those plan and embed serially — the same
     grain below which repair and evaluation skip their pools.  Planning
     is bit-identical for any pool size, so the gate never moves a tree.
     Above it the pool stays alive through embedding: the top-down phase
     reuses the ranking loop's worker domains for its subtree fan-out. *)
  let jobs =
    if Clocktree.Instance.(auto_regions (n_sinks inst)) >= 2 then
      Int.max 1 config.jobs
    else 1
  in
  let arena, stats =
    Par.Pool.with_pool ~jobs (fun pool ->
        let root, stats = plan ~config ~run ?pool inst in
        (Embed.run_arena ?pool ~run inst root, stats))
  in
  (arena, { stats with gc = Obs.Gcstat.diff (Obs.Gcstat.sample ()) gc0 })

let run ?config ?run inst =
  let gc0 = Obs.Gcstat.sample () in
  let arena, stats = run_arena ?config ?run inst in
  let routed = Clocktree.Arena.to_routed arena in
  (routed, { stats with gc = Obs.Gcstat.diff (Obs.Gcstat.sample ()) gc0 })
