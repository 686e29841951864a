module Instance = Clocktree.Instance
module Sink = Clocktree.Sink
module Split = Geometry.Split

type cluster_stats = {
  cluster : int;
  n_sinks : int;
  wall_s : float;
  stats : Engine.stats;
}

type stats = {
  n_clusters : int;
  depth : int;
  per_cluster : cluster_stats array;
  super : cluster_stats array;
  top : Engine.stats;
}

let c_regions = Obs.Counter.make "dme.cluster.regions"
let c_region_sinks = Obs.Counter.make "dme.cluster.region_sinks"

(* The shared density target, uncapped: beyond 64 regions the
   clustering goes multi-level ({!auto_depth}) instead of letting region
   size grow with the instance, so per-region planning cost stays flat
   on the 10^6-sink curve. *)
let auto_clusters inst = Instance.auto_regions (Instance.n_sinks inst)

(* Stitch fan-in cap: no plan (leaf-region stitch or super-stitch) sees
   more than this many children, matching the historical two-level
   region cap. *)
let fanout_cap = 64

(* Smallest depth whose stitch tree can reach [k] regions under the
   fan-out cap. *)
let auto_depth k =
  let d = ref 1 and reach = ref fanout_cap in
  while !reach < k do
    incr d;
    reach := !reach * fanout_cap
  done;
  !d

(* Smallest integer fan-out f >= 2 with f^depth >= budget: the most
   balanced split of a region budget over [depth] remaining stitch
   levels. *)
let iroot budget depth =
  let reaches f =
    let acc = ref 1 and i = ref 0 in
    while !acc < budget && !i < depth do
      acc := !acc * f;
      incr i
    done;
    !acc >= budget
  in
  let f = ref 2 in
  while not (reaches !f) do
    incr f
  done;
  !f

let fanout_for ~budget ~depth =
  if depth <= 1 then budget
  else Int.max 2 (Int.min fanout_cap (iroot budget depth))

(* Budgeted top-down MMM-style halving: split along the longer
   bounding-box axis at the median, handing the larger (lower) half the
   larger share of both the region budget and the fan-out.  The lower
   half holds [ceil (n/2)] sinks and receives [ceil (k/2)] regions, so
   [k <= n] guarantees every group ends up non-empty, by induction; the
   synchronized halving [fl = ceil (f/2)] keeps [f <= k] invariant, so
   every emitted group carries a positive budget.  Because the
   bipartition tree depends only on the sink set and the budget — never
   on the fan-out at which groups are cut off and later resumed — the
   leaf regions of the recursive (multi-level) scheme are identical, in
   contents and order, to the flat [partition] at the same total budget.
   The whole walk is a pure serial function of the sink set. *)
let split_ids point_of ids ~budget ~fanout =
  let n = Array.length ids in
  let out = ref [] in
  let rec split ids k f =
    if f <= 1 then out := (ids, k) :: !out
    else begin
      let lo, hi = Split.bipartition point_of ids in
      let kl = (k + 1) / 2 in
      let fl = (f + 1) / 2 in
      split lo kl fl;
      split hi (k - kl) (f - fl)
    end
  in
  let k = Int.max 1 (Int.min budget n) in
  split ids k (Int.max 1 (Int.min fanout k));
  Array.of_list (List.rev !out)

let partition inst ~clusters =
  let sinks = inst.Instance.sinks in
  let n = Array.length sinks in
  if n = 0 then [||]
  else begin
    let point_of id = sinks.(id).Sink.loc in
    Array.map fst
      (split_ids point_of (Array.init n Fun.id) ~budget:clusters
         ~fanout:clusters)
  end

(* A region's routing instance: its sinks re-indexed densely in the
   order [ids] lists them — as [split_ids] hands a region over, that is
   the (coordinate, id) order of the last median split above it, not
   global id order; sorting them would change the trees.  With
   [clusters = 1] nothing is split, [ids] is the identity and the
   sub-instance is structurally identical to the original.  Every other
   instance parameter is carried over.  Group ids are global: a region's
   delay windows need no translation when its root joins the top-level
   merge. *)
let sub_instance (inst : Instance.t) ids =
  let sinks = Array.mapi (fun i gid -> { inst.sinks.(gid) with Sink.id = i }) ids in
  Instance.make ~params:inst.params ~rd:inst.rd ~bound:inst.bound
    ?group_bounds:inst.group_bounds ~source:inst.source
    ~n_groups:inst.n_groups sinks

(* Swap each leaf's re-indexed sink back for the global one it mirrors.
   Regions, caps and delay windows are unaffected (a leaf's fields depend
   on location, load and group only), so the rebuilt plan embeds to the
   same geometry while the final tree reports global sink ids. *)
let rec reglobalize (inst : Instance.t) ids (s : Subtree.t) =
  match s.Subtree.build with
  | Subtree.Leaf l ->
    { s with Subtree.build = Subtree.Leaf inst.sinks.(ids.(l.Sink.id)) }
  | Subtree.Merge { left; right; lengths } ->
    {
      s with
      Subtree.build =
        Subtree.Merge
          {
            left = reglobalize inst ids left;
            right = reglobalize inst ids right;
            lengths;
          };
    }

let add_trials (a : Engine.trial_stats) (b : Engine.trial_stats) =
  Engine.
    {
      trial_merges = a.trial_merges + b.trial_merges;
      cache_hits = a.cache_hits + b.cache_hits;
      cache_misses = a.cache_misses + b.cache_misses;
      elided_trials = a.elided_trials + b.elided_trials;
      reused_trials = a.reused_trials + b.reused_trials;
    }

(* Component-wise sum, except [gc]: per-plan samples come from whichever
   domain ran the plan, so the aggregate instead carries the caller's
   whole-run differential (passed in by [run]). *)
let add_stats (a : Engine.stats) (b : Engine.stats) =
  Engine.
    {
      rounds = a.rounds + b.rounds;
      same_group = a.same_group + b.same_group;
      cross_group = a.cross_group + b.cross_group;
      shared_one = a.shared_one + b.shared_one;
      shared_multi = a.shared_multi + b.shared_multi;
      planned_snake = a.planned_snake +. b.planned_snake;
      infeasible_merges = a.infeasible_merges + b.infeasible_merges;
      nn_reprobes = a.nn_reprobes + b.nn_reprobes;
      nn_probes_saved = a.nn_probes_saved + b.nn_probes_saved;
      trial = add_trials a.trial b.trial;
      gc = Obs.Gcstat.zero;
    }

(* One planned subtree of the stitch hierarchy: its root (already on
   global sink ids), the leaf-region stats and super-stitch stats it
   contains (in traversal order; [cluster] indices are assigned after
   the top-level gather) and how many stitch levels it holds. *)
type part = {
  pr_root : Subtree.t;
  pr_leaves : cluster_stats list;
  pr_supers : cluster_stats list;
  pr_levels : int;
}

(* Plan one node of the stitch hierarchy, serially — recursion below
   the top level never sees the pool ([Par.Pool] is not reentrant);
   parallelism comes from mapping the top-level groups over the pool's
   domains.  A budget-1 node is a leaf region: one private [Engine.plan]
   on its sub-instance.  A larger node splits its ids with the
   synchronized halving and stitches its children with an [Engine.plan
   ~leaves] over the {e global} instance, so every stitch level uses the
   same bbox-derived penalty and grid-cell scales as the top. *)
let rec plan_node ~config ~run ~pdepth (inst : Instance.t) ids ~budget
    ~depth =
  if budget <= 1 then begin
    let sub = sub_instance inst ids in
    let t0 = Obs.Timer.now () in
    let root, stats = Engine.plan ~config ~run sub in
    let wall_s = Float.max 0. (Obs.Timer.now () -. t0) in
    (* Leaf regions all report at one progress depth regardless of how
       deep the halving placed them: the heartbeat's ETA wants one
       homogeneous completion counter, not the hierarchy's shape. *)
    (match pdepth with
     | Some dd -> Obs.Progress.region_done run.Obs.Run.progress ~depth:dd
     | None -> ());
    {
      pr_root = reglobalize inst ids root;
      pr_leaves =
        [ { cluster = 0; n_sinks = Array.length ids; wall_s; stats } ];
      pr_supers = [];
      pr_levels = 0;
    }
  end
  else begin
    let point_of id = inst.Instance.sinks.(id).Sink.loc in
    let groups =
      split_ids point_of ids ~budget ~fanout:(fanout_for ~budget ~depth)
    in
    let parts =
      Array.map
        (fun (gids, gbudget) ->
          plan_node ~config ~run ~pdepth inst gids ~budget:gbudget
            ~depth:(depth - 1))
        groups
    in
    let leaves =
      Array.mapi (fun i p -> { p.pr_root with Subtree.id = i }) parts
    in
    let t0 = Obs.Timer.now () in
    let root, stats = Engine.plan ~config ~run ~leaves inst in
    let wall_s = Float.max 0. (Obs.Timer.now () -. t0) in
    let stitch = { cluster = 0; n_sinks = Array.length ids; wall_s; stats } in
    {
      pr_root = root;
      pr_leaves = List.concat_map (fun p -> p.pr_leaves) (Array.to_list parts);
      pr_supers =
        List.concat_map (fun p -> p.pr_supers) (Array.to_list parts)
        @ [ stitch ];
      pr_levels =
        1 + Array.fold_left (fun acc p -> Int.max acc p.pr_levels) 0 parts;
    }
  end

let renumber cs = Array.mapi (fun i c -> { c with cluster = i }) cs

let run_arena ?(config = Engine.default) ?(run = Obs.Run.null) ?clusters
    ?depth inst =
  let gc0 = Obs.Gcstat.sample () in
  let { Obs.Run.trace; sched; progress } = run in
  let tracing = Obs.Trace.enabled trace in
  let n = Instance.n_sinks inst in
  let k =
    match clusters with
    | Some k -> Int.max 1 (Int.min k (Int.max 1 n))
    | None -> auto_clusters inst
  in
  let d = match depth with Some d -> Int.max 1 d | None -> auto_depth k in
  let point_of id = inst.Instance.sinks.(id).Sink.loc in
  let groups =
    if n = 0 then [||]
    else
      split_ids point_of (Array.init n Fun.id) ~budget:k
        ~fanout:(fanout_for ~budget:k ~depth:d)
  in
  let kr = Array.fold_left (fun acc (_, b) -> acc + b) 0 groups in
  Obs.Counter.add c_regions kr;
  (* Announce the hierarchy to the heartbeat: top-level groups at
     progress depth 0 and — when the hierarchy actually has a second
     level — the leaf regions at depth 1 (a depth-1 hierarchy's top
     groups ARE its leaf regions, so announcing both would double
     count). *)
  let pdepth = if d > 1 then Some 1 else None in
  if Array.length groups > 0 then begin
    Obs.Progress.add_regions progress ~depth:0 (Array.length groups);
    match pdepth with
    | Some dd -> Obs.Progress.add_regions progress ~depth:dd kr
    | None -> ()
  end;
  (* A single top-level group plans serially whatever the pool, so a
     pool would serve only the stitch and the embedding; like the flat
     engine below its grain, the route then runs without one.  Trees are
     bit-identical for any pool size, so the gate never moves one. *)
  let jobs =
    if Array.length groups >= 2 then Int.max 1 config.Engine.jobs else 1
  in
  Par.Pool.with_pool ~jobs (fun pool ->
      (* Top-level groups map over the pool's domains (one chunk each);
         each group plans serially ([plan_node]).  Each plan builds its
         own private arena and grid shard, mutates nothing shared
         (counters are atomic, trace/histogram sinks are mutex-guarded),
         and its result is a pure function of its sub-instance and
         budget — so the gathered array, and everything downstream, is
         bit-identical for any jobs count. *)
      let plan_group (gids, gbudget) =
        let part =
          plan_node ~config ~run ~pdepth inst gids ~budget:gbudget
            ~depth:(d - 1)
        in
        Obs.Progress.region_done progress ~depth:0;
        part
      in
      let parts =
        let body () =
          match pool with
          | Some pool when Array.length groups > 1 ->
            Par.Pool.map_chunked pool ~sched ~label:"engine.regions" ~chunk:1
              plan_group groups
          | _ -> Array.map plan_group groups
        in
        if tracing then
          Obs.Trace.span trace ~cat:"dme.cluster"
            ~args:
              [
                ("regions", Obs.Json.Int kr);
                ("depth", Obs.Json.Int d);
                ("jobs", Obs.Json.Int jobs);
              ]
            "cluster.plan" body
        else body ()
      in
      let per_cluster =
        renumber
          (Array.of_list
             (List.concat_map (fun p -> p.pr_leaves) (Array.to_list parts)))
      in
      let super =
        renumber
          (Array.of_list
             (List.concat_map (fun p -> p.pr_supers) (Array.to_list parts)))
      in
      let realized_depth =
        1 + Array.fold_left (fun acc p -> Int.max acc p.pr_levels) 0 parts
      in
      Array.iter
        (fun (c : cluster_stats) -> Obs.Counter.add c_region_sinks c.n_sinks)
        per_cluster;
      if tracing then begin
        Obs.Trace.merge_manifest trace
          [
            ("cluster_regions", Obs.Json.Int kr);
            ("cluster_depth", Obs.Json.Int realized_depth);
          ];
        let journal kind (c : cluster_stats) =
          Obs.Trace.journal trace
            (Obs.Json.Obj
               [
                 ("type", Obs.Json.String kind);
                 ("cluster", Obs.Json.Int c.cluster);
                 ("n_sinks", Obs.Json.Int c.n_sinks);
                 ("rounds", Obs.Json.Int c.stats.Engine.rounds);
                 ("nn_reprobes", Obs.Json.Int c.stats.Engine.nn_reprobes);
                 ( "trial_merges",
                   Obs.Json.Int c.stats.Engine.trial.Engine.trial_merges );
                 ("planned_snake", Obs.Json.Float c.stats.Engine.planned_snake);
                 ("wall_s", Obs.Json.Float c.wall_s);
                 ("gc", Obs.Gcstat.json c.stats.Engine.gc);
               ])
        in
        Array.iter (journal "cluster") per_cluster;
        Array.iter (journal "cluster_super") super
      end;
      (* Top level: stitch the group roots with one more AST-DME plan
         over the global instance (global bbox drives the penalty and
         grid-cell scales), then embed the whole multi-level plan
         in a single top-down pass straight into the arena — the skew
         bound is enforced across region boundaries exactly as it is
         within them. *)
      let leaves =
        Array.mapi (fun i p -> { p.pr_root with Subtree.id = i }) parts
      in
      let root, top = Engine.plan ~config ~run ?pool ~leaves inst in
      let arena = Embed.run_arena ?pool ~run inst root in
      let aggregate =
        let sum =
          Array.fold_left (fun acc c -> add_stats acc c.stats) top per_cluster
        in
        let sum =
          Array.fold_left (fun acc c -> add_stats acc c.stats) sum super
        in
        { sum with Engine.gc = Obs.Gcstat.diff (Obs.Gcstat.sample ()) gc0 }
      in
      ( arena,
        aggregate,
        { n_clusters = kr; depth = realized_depth; per_cluster; super; top } ))
