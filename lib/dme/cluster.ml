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

(* The synchronized halving of a region budget [k] at fan-out [f]:
   [kl = ceil (k/2)] regions and [fl = ceil (f/2)] fan-out go to the
   lower half, and a part stops at fan-out 1. *)
let halve_budget k f =
  let kl = (k + 1) / 2 and fl = (f + 1) / 2 in
  ((kl, fl), (k - kl, f - fl))

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
   Only an emitted half needs the (coordinate, id) order —
   [sub_instance] keeps it — so every other half is found by selection
   alone: the next split depends only on its set.  The halving runs
   level by level over a frontier kept in bipartition order, so each
   level's halves are independent and map over [pool]; the groups are a
   pure function of the sink set, budget and fan-out. *)
let halving ?pool ?(run = Obs.Run.null) point_of ids ~budget ~fanout =
  let halve ((ids, k, f) as part) =
    if f <= 1 then [| part |]
    else begin
      let (kl, fl), (kh, fh) = halve_budget k f in
      let lo, hi = Split.bipartition ~sorted:(fl <= 1, fh <= 1) point_of ids in
      [| (lo, kl, fl); (hi, kh, fh) |]
    end
  in
  let rec level parts =
    if Array.for_all (fun (_, _, f) -> f <= 1) parts then
      Array.map (fun (ids, k, _) -> (ids, k)) parts
    else
      level
        (Array.concat
           (Array.to_list
              (Par.Pool.map_each pool ~sched:run.Obs.Run.sched
                 ~label:"engine.partition" halve parts)))
  in
  let k = Int.max 1 (Int.min budget (Array.length ids)) in
  level [| (ids, k, Int.max 1 (Int.min fanout k)) |]

let split_ids ?pool point_of ids ~budget ~fanout = halving ?pool point_of ids ~budget ~fanout

let partition_on ?pool ?run inst ~clusters =
  let sinks = inst.Instance.sinks in
  let n = Array.length sinks in
  if n = 0 then [||]
  else begin
    let point_of id = sinks.(id).Sink.loc in
    Array.map fst
      (halving ?pool ?run point_of (Array.init n Fun.id) ~budget:clusters
         ~fanout:clusters)
  end

let partition inst ~clusters = partition_on inst ~clusters

(* [f i s] of each global sink [s] of [ids], at [i]; the array is filled
   from [Sink.placeholder], not mapped, so a region of young sinks does
   not first empty the minor heap. *)
let region_sinks (inst : Instance.t) ids f =
  let sinks = Array.make (Array.length ids) Sink.placeholder in
  Array.iteri (fun i gid -> sinks.(i) <- f i inst.sinks.(gid)) ids;
  sinks

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
  let sinks = region_sinks inst ids (fun i s -> { s with Sink.id = i }) in
  Instance.make ~params:inst.params ~rd:inst.rd ~bound:inst.bound
    ?group_bounds:inst.group_bounds ~source:inst.source
    ~n_groups:inst.n_groups sinks

let add_trials (a : Engine.trial_stats) (b : Engine.trial_stats) =
  Engine.
    {
      trial_merges = a.trial_merges + b.trial_merges;
      elided_trials = a.elided_trials + b.elided_trials;
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
      nn_queries = a.nn_queries + b.nn_queries;
      nn_cells = a.nn_cells + b.nn_cells;
      nn_entries = a.nn_entries + b.nn_entries;
      nn_probes_saved = a.nn_probes_saved + b.nn_probes_saved;
      trial = add_trials a.trial b.trial;
      gc = Obs.Gcstat.zero;
    }

(* A planned child, as its parent's stitch reads it: a leaf region by
   its index in the partition, a stitch by its index in post order. *)
type slot = Leaf_of of int | Super_of of int

(* One stitch of the hierarchy: the sinks it covers, its children, its
   height (1 + its tallest child's, a leaf region's being 0) and whether
   it is a top-level group. *)
type stitch = { s_sinks : int; s_kids : slot array; s_height : int; s_top : bool }

(* The hierarchy above the leaf regions [regions] of a [budget]-region
   route at [depth]: the top stitch's children, each with its height and
   sink count, and every stitch below the top, in post order.  A node's
   groups are the ones [split_ids] cuts it into at fan-out [fanout_for]
   its depth; their budgets do not depend on the sinks, and a group's
   leaf regions are consecutive in the flat partition, so the shape is
   this arithmetic alone. *)
let hierarchy regions ~budget ~depth =
  let next = ref 0 and stitches = ref [] and n_stitches = ref 0 in
  let rec cut k f =
    if f <= 1 then [ k ]
    else
      let (kl, fl), (kh, fh) = halve_budget k f in
      cut kl fl @ cut kh fh
  in
  let rec groups ~top ~budget ~depth =
    let f = Int.max 1 (Int.min (fanout_for ~budget ~depth) budget) in
    List.map
      (fun b ->
        if b <= 1 then begin
          incr next;
          (Leaf_of (!next - 1), 0, Array.length regions.(!next - 1))
        end
        else begin
          let kids = groups ~top:false ~budget:b ~depth:(depth - 1) in
          let height, sinks =
            Array.fold_left
              (fun (h, s) (_, kh, ks) -> (Int.max h (kh + 1), s + ks))
              (1, 0) kids
          in
          let s_kids = Array.map (fun (c, _, _) -> c) kids in
          stitches := { s_sinks = sinks; s_kids; s_height = height; s_top = top } :: !stitches;
          incr n_stitches;
          (Super_of (!n_stitches - 1), height, sinks)
        end)
      (cut budget f)
    |> Array.of_list
  in
  let top =
    if Array.length regions = 0 then [||] else groups ~top:true ~budget ~depth
  in
  (top, Array.of_list (List.rev !stitches))

let run_arena ?(config = Engine.default) ?(run = Obs.Run.null) ?clusters
    ?depth inst =
  let { Obs.Run.trace; sched; progress } = run in
  let tracing = Obs.Trace.enabled trace in
  let n = Instance.n_sinks inst in
  let k =
    match clusters with
    | Some k -> Int.max 1 (Int.min k (Int.max 1 n))
    | None -> auto_clusters inst
  in
  let d = match depth with Some d -> Int.max 1 d | None -> auto_depth k in
  (* A single region plans serially whatever the pool, so a pool would
     serve only the stitch and the embedding; like the flat engine below
     its grain, the route then runs without one.  Trees are
     bit-identical for any pool size, so the gate never moves one. *)
  let jobs = if k >= 2 then Int.max 1 config.Engine.jobs else 1 in
  Par.Pool.with_pool ~jobs (fun pool ->
      let gc = Par.Pool.gc_window pool in
      let map label f xs = Par.Pool.map_each pool ~sched ~label f xs in
      (* The leaf regions, halved on the pool, and the hierarchy above
         them. *)
      let regions = partition_on ?pool ~run inst ~clusters:k in
      let top_kids, stitches = hierarchy regions ~budget:k ~depth:d in
      let regions_top = Array.make (Array.length regions) false in
      Array.iter
        (fun (c, _, _) ->
          match c with Leaf_of i -> regions_top.(i) <- true | Super_of _ -> ())
        top_kids;
      let kr = Array.length regions in
      let realized_depth =
        1 + Array.fold_left (fun h (_, kh, _) -> Int.max h kh) 0 top_kids
      in
      (* Announce the hierarchy to the heartbeat: top-level groups at
         progress depth 0 and — when the hierarchy actually has a second
         level — the leaf regions at depth 1 (a depth-1 hierarchy's top
         groups ARE its leaf regions, so announcing both would double
         count).  Leaf regions all report at one progress depth
         regardless of how deep the halving placed them: the heartbeat's
         ETA wants one homogeneous completion counter, not the
         hierarchy's shape. *)
      let pdepth = if d > 1 then Some 1 else None in
      if Array.length top_kids > 0 then begin
        Obs.Progress.add_regions progress ~depth:0 (Array.length top_kids);
        match pdepth with
        | Some dd -> Obs.Progress.add_regions progress ~depth:dd kr
        | None -> ()
      end;
      let timed f =
        let t0 = Obs.Timer.now () in
        let root, stats = f () in
        (root, Float.max 0. (Obs.Timer.now () -. t0), stats)
      in
      (* Level by level, each level one batch on the pool: every leaf
         region (one chunk each), then the stitches of each height.  A
         plan builds its own private arena and grid shard, mutates
         nothing shared (trace/histogram sinks are mutex-guarded, and its
         counts come back in its stats), and its result is a pure
         function of its instance and leaves — so the gathered arrays,
         and everything downstream, are bit-identical for any jobs count.
         A leaf region plans over its sub-instance from leaves that carry
         the global sinks, so its plan already reports global sink ids;
         every stitch plans over the {e global} instance, so each level
         uses the same bbox-derived penalty and grid-cell scales as the
         top. *)
      let body () =
        let region_plans =
          map "engine.regions"
            (fun i ->
              let ids = regions.(i) in
              let leaves = region_sinks inst ids (fun _ s -> s) in
              let root, wall_s, stats =
                timed (fun () ->
                    Engine.plan ~config ~run ~leaves:(Sinks leaves)
                      (sub_instance inst ids))
              in
              Option.iter
                (fun dd -> Obs.Progress.region_done progress ~depth:dd)
                pdepth;
              if regions_top.(i) then
                Obs.Progress.region_done progress ~depth:0;
              ( root,
                { cluster = i; n_sinks = Array.length ids; wall_s; stats } ))
            (Array.init kr Fun.id)
        in
        let stitch_plans = Array.make (Array.length stitches) None in
        let stitch_leaves kids =
          Subtree.Subtrees
            (Array.map
               (function
                 | Leaf_of r -> fst region_plans.(r)
                 | Super_of j -> fst (Option.get stitch_plans.(j)))
               kids)
        in
        let height = Array.fold_left (fun h s -> Int.max h s.s_height) 0 stitches in
        for h = 1 to height do
          let level =
            List.filter
              (fun j -> stitches.(j).s_height = h)
              (List.init (Array.length stitches) Fun.id)
            |> Array.of_list
          in
          let planned =
            map "engine.stitch"
              (fun j ->
                let s = stitches.(j) in
                let leaves = stitch_leaves s.s_kids in
                let root, wall_s, stats =
                  timed (fun () -> Engine.plan ~config ~run ~leaves inst)
                in
                if s.s_top then Obs.Progress.region_done progress ~depth:0;
                (root, { cluster = j; n_sinks = s.s_sinks; wall_s; stats }))
              level
          in
          Array.iteri (fun i p -> stitch_plans.(level.(i)) <- Some p) planned
        done;
        (region_plans, Array.map Option.get stitch_plans, stitch_leaves)
      in
      let region_plans, stitch_plans, stitch_leaves =
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
      let per_cluster = Array.map snd region_plans in
      let super = Array.map snd stitch_plans in
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
                 ("nn_queries", Obs.Json.Int c.stats.Engine.nn_queries);
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
         straight into the arena, every stitch and region store in its
         own window on the pool — the skew bound is enforced across
         region boundaries exactly as it is within them. *)
      let leaves = stitch_leaves (Array.map (fun (c, _, _) -> c) top_kids) in
      let root, top = Engine.plan ~config ~run ?pool ~leaves inst in
      let arena = Embed.run_arena ?pool ~run inst root in
      let aggregate =
        let sum =
          Array.fold_left (fun acc c -> add_stats acc c.stats) top per_cluster
        in
        let sum =
          Array.fold_left (fun acc c -> add_stats acc c.stats) sum super
        in
        { sum with Engine.gc = gc () }
      in
      ( arena,
        aggregate,
        { n_clusters = kr; depth = realized_depth; per_cluster; super; top } ))
