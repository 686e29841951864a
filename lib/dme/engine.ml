module Octslab = Geometry.Octslab
module Grid_index = Geometry.Grid_index

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

(* The ranking cost of the candidate pair of ids [(a, b)] of the run [c]
   at region distance [dist] (Octslab.dist, the same kernel as
   Octagon.dist) in [inst]: [dist] itself, plus the penalty when the merge
   would be infeasible (mutually inconsistent shared-group offsets, the
   thesis' Instance 2), so such a pair merges only as a last resort.
   Merge.committed_feasible answers feasibility bit-identically to a
   trial Merge.run without building the merged subtree.  The penalty is
   positive, so the cost is never below [dist], as Order.cheapest's
   [price] contract requires.  Inlined into the probe, so neither [dist]
   nor the cost it returns is boxed there. *)
let[@inline] cost inst c ~dist a b =
  if Merge.committed_feasible inst c ~dist a b then dist
  else dist +. infeasible_penalty (Clocktree.Instance.diameter inst)

(* The merge counts, infeasible merges and planned snake of the run [c],
   folded over its merges' [kinds] and [snakes] in id order: the order
   they were installed in, so [planned_snake] adds up as they landed. *)
let of_run (c : Subtree.cols) ~rounds =
  let same_group = ref 0 and cross_group = ref 0 in
  let shared_one = ref 0 and shared_multi = ref 0 in
  let planned_snake = ref 0. and infeasible = ref 0 in
  let first = Subtree.leaves c.plan in
  for id = first to first + c.plan.merges - 1 do
    (match Merge.kind_at c id with
     | Same_group -> incr same_group
     | Cross_group -> incr cross_group
     | Shared_one -> incr shared_one
     | Shared_multi -> incr shared_multi);
    planned_snake := !planned_snake +. Float.Array.get c.snakes id;
    if not (Merge.feasible_at c id) then incr infeasible
  done;
  {
    rounds;
    same_group = !same_group;
    cross_group = !cross_group;
    shared_one = !shared_one;
    shared_multi = !shared_multi;
    planned_snake = !planned_snake;
    infeasible_merges = !infeasible;
    nn_reprobes = 0;
    nn_queries = 0;
    nn_cells = 0;
    nn_entries = 0;
    nn_probes_saved = 0;
    trial = { trial_merges = 0; elided_trials = 0 };
    gc = Obs.Gcstat.zero;
  }

(* Fraction of the active subtrees a multi-merge round consumes. *)
let merge_fraction = 0.5

(* Each domain's k-NN answer buffer, for a probe's fallback query.  A
   probe fills it and reads it back before returning, and nothing a
   probe calls probes again, so one buffer per domain is never shared. *)
let knn_key = Domain.DLS.new_key Grid_index.knn_buffer

(* Each domain's record of the entries a probe's scan has recorded: the
   center distance [vc.(k)] and id [vid.(k)] of the [k]-th, in visit
   order.  Grown to the largest snapshot the domain has probed. *)
type visited = { mutable vc : floatarray; mutable vid : int array }

let visited_key =
  Domain.DLS.new_key (fun () -> { vc = Float.Array.create 0; vid = [||] })

(* Rounding allowance of the probe's bounds, relative to the magnitudes
   they are computed from (DESIGN.md section 6.3): 2^13 ulps of them,
   hundreds of times what the dozen roundings behind a bound can lose,
   and still far below any cost gap a bound is asked to prove. *)
let tol = 0x1p-40

(* The capped answer computed directly: one k-NN query for the [knn]
   entries nearest to [sid]'s center, then Order.cheapest over them,
   with its price calls, query and grid work added to [sid]'s slots. *)
let fallback inst (c : Subtree.cols) snap ~cx ~cy ~knn (props : Order.proposals) sid =
  let buf = Domain.DLS.get knn_key in
  let cells0 = buf.cells_visited and entries0 = buf.entries in
  Grid_index.query snap buf ~skip:sid cx cy sid knn;
  let slab = c.regions and priced = ref 0 in
  let i, best =
    Order.cheapest buf.kids buf.klen
      ~dist:(fun t -> Octslab.dist slab sid t)
      ~price:(fun t d ->
        incr priced;
        cost inst c ~dist:d sid t)
  in
  props.partner.(sid) <- (if i < 0 then -1 else buf.kids.(i));
  Float.Array.set props.cost sid best;
  props.queries.(sid) <- props.queries.(sid) + 1;
  props.cells.(sid) <- props.cells.(sid) + (buf.cells_visited - cells0);
  props.entries.(sid) <- props.entries.(sid) + (buf.entries - entries0);
  props.priced.(sid) <- props.priced.(sid) + !priced

(* One probe: [sid]'s cheapest partner among its [knn] nearest
   candidates, by (cost, lowest id), found by one scan of the snapshot's
   rings of cells around its center (DESIGN.md section 6.3).

   The scan looks for the global argmin [G] — over every entry but
   [sid] — and proves that fewer than [knn] entries rank before [G] by
   (center distance, id), so that [G] is also the argmin over the [knn]
   nearest.  An entry at center distance [cd] has region distance, and
   so cost, at least [cd - rad sid - rad e]: its region lies within
   [rad e] of its center.  The scan skips the region distance of an
   entry that bound puts above the best, and stops at ring [r] once
   [(r - 1) * cell - rad sid - rmax] does the same for every entry not
   yet visited; the [tol] margins absorb rounding.  An entry it never
   visits then lies farther than [G]'s center.  It records the center
   distance and id of every visited entry within [best + rad sid +
   rmax] of the center at its visit, which every entry ranking before
   [G] is, since the best only falls: fewer than [knn] recorded entries
   settle the rank at once, and more are counted.  It also stops once
   [knn] recorded entries lie closer than any unvisited one can (the
   [knn] nearest are then all visited): the best of the visited is then
   the answer if it is among them.  When the count fails, the probe
   runs the capped answer directly ([fallback]).

   Pricing is deferred: a ring keeps its (distance, id)-least candidate
   that can still win and prices it at the ring's end.  If that price
   is its distance, no other candidate of the ring can beat it, since a
   cost is never below its distance.  If not — an infeasible pair — the
   probe rescans from ring 0 pricing every candidate that can still win
   as it meets it.  A candidate at distance 0 is priced at once.  Once
   the best costs exactly 0 and lies at center distance 0, the rest of a
   cell whose ids pass the best's can neither win (costs are >= 0 and a
   tie goes to the lower id) nor rank before it, so the scan leaves the
   cell: the snapshot must be packed from ascending ids.  The entries it
   leaves go unrecorded but counted: a later best of cost 0 and a lower
   id may lie at a positive center distance, which they can rank
   before, so the rank check then counts them all as ranking before it.

   Every float is a local, the cost is inlined and the recorded entries
   live in per-domain scratch, so a probe allocates nothing but the
   boxed distance each price passes to Merge.committed_feasible. *)
let probe inst (c : Subtree.cols) (s : Grid_index.snapshot) ~cx ~cy ~rad ~rmax ~knn
    (props : Order.proposals) sid =
  let knn = Int.max 1 knn in
  let vis = Domain.DLS.get visited_key in
  if Array.length vis.vid < s.len then begin
    vis.vid <- Array.make s.len 0;
    vis.vc <- Float.Array.create s.len
  end;
  let vc = vis.vc and vid = vis.vid in
  let slab = c.regions in
  let qx = Float.Array.get cx sid and qy = Float.Array.get cy sid in
  let rs = Float.Array.get rad sid in
  let reach = rs +. rmax in
  let qnorm = Float.abs qx +. Float.abs qy in
  let norm = qnorm +. reach in
  (* An entry at center distance [cd] and radius [re] cannot win when
     [cd * shrink - lead - re > lim]; with [rmax] for [re], it cannot
     rank before the best either. *)
  let shrink = 1. -. tol and lead = rs +. (tol *. norm) in
  let cell = s.cell and w = s.w and h = s.h and start = s.start in
  let sids = s.ids and xs = s.xs and ys = s.ys in
  let kx = Grid_index.query_key ~cell s.gx0 w qx
  and ky = Grid_index.query_key ~cell s.gy0 h qy in
  let max_ring = Int.max (Int.max kx (w - 1 - kx)) (Int.max ky (h - 1 - ky)) in
  (* The candidate to beat: [lid] (-1: none yet) at cost [lim] and
     center distance [lc]; while [pending], only its distance is known
     and [lim] is that. *)
  let lim = ref Float.infinity and lid = ref (-1) and lc = ref Float.infinity in
  let pending = ref false in
  (* The zero-cost exit: a cell's entries past [zx] cannot win; [zskip]
     counts the entries it left. *)
  let zx = ref max_int and zskip = ref 0 in
  let deferred = ref true and restart = ref false in
  let r = ref 0 and nvis = ref 0 and cells = ref 0 and entries = ref 0 in
  let priced = ref 0 in
  let scanning = ref true in
  while !scanning do
    let r' = !r in
    let inner = float_of_int (r' - 1) *. cell in
    (* Stop when the window is exhausted, when no unvisited entry can
       beat or rank before the best, or when the [knn] nearest are all
       visited. *)
    if
      r' > max_ring
      || (r' >= 1 && inner -. reach -. (tol *. (inner +. norm)) > !lim)
      || r' >= 2
         && !nvis >= knn
         &&
         let bound = (inner *. shrink) -. (tol *. qnorm) and close = ref 0 in
         for k = 0 to !nvis - 1 do
           if Float.Array.unsafe_get vc k < bound then incr close
         done;
         !close >= knn
    then scanning := false
    else begin
      cells := !cells + if r' = 0 then 1 else 8 * r';
      (* Ring [r']'s top and bottom rows, then its left and right
         columns, clipped to the window; ring 0 is the center cell. *)
      let seg = ref 0 in
      while !seg < (if r' = 0 then 1 else 4) && not !restart do
        let sg = !seg in
        let row = sg < 2 in
        let fixed =
          if sg = 0 then ky - r' else if sg = 1 then ky + r' else if sg = 2 then kx - r'
          else kx + r'
        in
        let lo = if row then Int.max (kx - r') 0 else Int.max (ky - r' + 1) 0 in
        let hi = if row then Int.min (kx + r') (w - 1) else Int.min (ky + r' - 1) (h - 1) in
        if fixed >= 0 && fixed < if row then h else w then begin
          let t = ref lo in
          while !t <= hi && not !restart do
            let cl = if row then (fixed * w) + !t else (!t * w) + fixed in
            let first = start.(cl) in
            let i = ref first and stop = ref start.(cl + 1) in
            while !i < !stop do
              let tid = Array.unsafe_get sids !i in
              if tid > !zx then begin
                zskip := !zskip + (!stop - !i);
                stop := !i
              end
              else begin
                if tid <> sid then begin
                  let cd =
                    Float.abs (qx -. Float.Array.unsafe_get xs !i)
                    +. Float.abs (qy -. Float.Array.unsafe_get ys !i)
                  in
                  let near = (cd *. shrink) -. lead in
                  if not (near -. rmax > !lim) then begin
                    Float.Array.unsafe_set vc !nvis cd;
                    Array.unsafe_set vid !nvis tid;
                    incr nvis
                  end;
                  if not (near -. Float.Array.unsafe_get rad tid > !lim) then begin
                    let d = Octslab.dist slab sid tid in
                    if !lid < 0 || not (d > !lim || (d = !lim && tid > !lid)) then begin
                      if !deferred && d > 0. then begin
                        lim := d;
                        lid := tid;
                        lc := cd;
                        pending := true
                      end
                      else begin
                        let cost = cost inst c ~dist:d sid tid in
                        incr priced;
                        if Float.is_nan cost then invalid_arg "Engine: a merge cost is NaN";
                        if !deferred && cost <> d then restart := true
                        else if !lid < 0 || cost < !lim || (cost = !lim && tid < !lid)
                        then begin
                          lim := cost;
                          lid := tid;
                          lc := cd;
                          pending := false;
                          zx := if cost = 0. && cd = 0. then tid else max_int
                        end
                      end
                    end
                  end
                end;
                incr i;
                if !restart then stop := !i
              end
            done;
            entries := !entries + (!stop - first);
            incr t
          done
        end;
        incr seg
      done;
      if !pending && not !restart then begin
        let d = !lim in
        let cost = cost inst c ~dist:d sid !lid in
        incr priced;
        if Float.is_nan cost then invalid_arg "Engine: a merge cost is NaN";
        if cost = d then pending := false else restart := true
      end;
      if !restart then begin
        restart := false;
        deferred := false;
        lim := Float.infinity;
        lid := -1;
        lc := Float.infinity;
        pending := false;
        zx := max_int;
        zskip := 0;
        nvis := 0;
        r := 0
      end
      else r := r' + 1
    end
  done;
  props.queries.(sid) <- 1;
  props.cells.(sid) <- !cells;
  props.entries.(sid) <- !entries;
  props.priced.(sid) <- !priced;
  (* The entries ranking before the best by (center distance, id), up to
     [knn]: every entry that does is recorded, or left by the zero-cost
     exit.  Those it left have ids above the best's, so they rank after a
     best at center distance 0; before any other, all count. *)
  let b = !lc and bid = !lid in
  let before = ref (if b > 0. then !zskip else 0) and k = ref 0 in
  if !before + !nvis >= knn then
    while !k < !nvis && !before < knn do
      let ck = Float.Array.unsafe_get vc !k in
      if ck < b || (ck = b && Array.unsafe_get vid !k < bid) then incr before;
      incr k
    done;
  if bid < 0 || !before < knn then begin
    props.partner.(sid) <- bid;
    Float.Array.set props.cost sid !lim
  end
  else fallback inst c s ~cx ~cy ~knn props sid

let kind_name = function
  | Merge.Same_group -> "same_group"
  | Merge.Cross_group -> "cross_group"
  | Merge.Shared_one -> "shared_one"
  | Merge.Shared_multi -> "shared_multi"

(* Bottom-up merge planning only: reduce [inst]'s sinks — or an explicit
   [leaves] population — to one subtree in nearest-neighbour rounds.
   Does not embed and does not own the pool, so the clustered router can
   run one [plan] per region on worker domains (with [pool] absent: the
   pool is not reentrant) and a top-level [plan] over the region roots
   on the shared pool.  [stats.gc] is left zero: the caller samples the
   GC around the span it reports. *)
let plan_unsampled ~config ~run ?pool ?leaves inst =
  let { Obs.Run.trace; sched; _ } = run in
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
  (* The best cost of every probe that found a partner, before the delay
     bias. *)
  let h_cost =
    if tracing then Some (Obs.Trace.histogram trace "order.probe_cost") else None
  in
  (* The instance's L1 diameter scales the penalty, the delay bias and
     the ranking's grid cells. *)
  let diameter = Clocktree.Instance.diameter inst in
  let c =
    Subtree.cols (match leaves with Some l -> l | None -> Subtree.Sinks inst.sinks)
  in
  let n = Subtree.leaves c.plan in
  (* The §V.F-2 bias adds [weight × delay-hull (ps)] to candidate
     distances (layout units), so [weight] is in layout units per ps.
     Exposing that unit in the config would tie the merge order to the
     instance's absolute coordinate scale — the same layout expressed in
     different units would route differently.  The config knob is
     therefore dimensionless (hull as a fraction of an unloaded
     die-diameter wire's delay, bias as a fraction of the diameter) and
     the conversion factor [diameter / die_delay] comes from the
     instance itself.  Both factors rescale exactly under a
     power-of-two change of layout unit (coordinates ×k, unit RC ÷k),
     keeping ranked costs bit-identically ordered across scales.  Deep
     subtrees have small delay targets; merging shallow pairs first
     (Chaturvedi-Hu) keeps depths homogeneous and avoids late merges
     that must snake to match a buried group's delay. *)
  let weight =
    if config.delay_order_weight = 0. then 0.
    else begin
      let die_delay =
        Rc.Elmore.wire_delay inst.Clocktree.Instance.params ~len:diameter ~load:0.
      in
      if die_delay > 0. then config.delay_order_weight *. diameter /. die_delay
      else 0.
    end
  in
  let jobs = match pool with Some p -> Par.Pool.jobs p | None -> 1 in
  (* One journal record per merge round, with the round's GC delta. *)
  let last_gc = ref (if tracing then Obs.Gcstat.sample () else Obs.Gcstat.zero) in
  let body () =
    (* A non-positive knn would make every k-NN query return [] and stall
       the pairing loop below; clamp rather than crash. *)
    let knn = Int.max 1 config.knn in
    (* Grid cell for a round of [m] subtrees: the instance's L1 diameter
       over [sqrt m].  On a square die the L1 diameter is twice the side,
       so the cell holds about 4 entries of a uniform population.  The
       floor is relative to the extent, so a sub-unit instance does not
       collapse into one cell and degrade every k-NN query to a full
       scan; [Eps.tol] absolutely and [Eps.tol * d] relatively keep the
       cell positive for degenerate (single-point) instances without
       distorting real ones. *)
    let cell_floor = Float.max Geometry.Eps.tol (Geometry.Eps.tol *. diameter) in
    let cell_for m =
      Float.max cell_floor (diameter /. Float.sqrt (float_of_int (Int.max 1 m)))
    in
    (* Every structure a probe reads per candidate is a flat array indexed
       by subtree id — the run's columns [c] and the ranking's own below
       — so nothing on the probe path chases a hashtable or boxes a
       float.  Ids are dense: [n] leaves plus [n - 1] merges.
       [c.regions] holds each subtree's region bounds; [cx], [cy] its
       center; [rad] the L1 radius of its region about that center;
       [hull_hi] the upper end of its delay hull (the only part the
       delay bias reads).  A merged-away id's slots go stale: the loop
       only ever indexes alive ids.  [props] holds each round's
       proposals by proposer id, the cost biased once the probe phase
       is over.  [used] marks the ids a round's selection takes; they
       are merged away and never reissued, so it is never reset, and
       the ids it leaves unmarked are the alive ones. *)
    let cap_ids = Int.max 2 (2 * n) in
    let props =
      Order.
        {
          partner = Array.make cap_ids (-1);
          cost = Float.Array.make cap_ids Float.nan;
          queries = Array.make cap_ids 0;
          cells = Array.make cap_ids 0;
          entries = Array.make cap_ids 0;
          priced = Array.make cap_ids 0;
        }
    in
    let used = Bytes.make cap_ids '\000' in
    let slab = c.regions in
    let cx = Float.Array.make cap_ids Float.nan in
    let cy = Float.Array.make cap_ids Float.nan in
    let rad = Float.Array.make cap_ids Float.nan in
    let hull_hi = Float.Array.make cap_ids Float.nan in
    let insert id =
      Octslab.center slab id cx cy;
      Float.Array.set rad id (Octslab.radius slab id cx cy);
      if weight <> 0. then Float.Array.set hull_hi id (Subtree.hull_hi c id)
    in
    for id = 0 to n - 1 do
      insert id
    done;
    (* A round's selected pairs, at most half its subtrees. *)
    let sel =
      Order.
        {
          left = Array.make n 0;
          right = Array.make n 0;
          costs = Float.Array.make n Float.nan;
          len = 0;
        }
    in
    (* The round's k-NN snapshot and the positional center columns it is
       packed from; no round has more than [n] subtrees. *)
    let snap = Grid_index.snapshot () in
    let xs = Float.Array.create n and ys = Float.Array.create n in
    (* A pooled phase cuts its work into [4 * jobs] chunks, as
       [Par.Pool.map_chunked] would cut the items themselves; chunk [k] of
       [count] items of [size] each covers [k * size] up to the end, and
       trailing chunks may be empty. *)
    let ways = 4 * jobs in
    let chunk_ids = Array.init ways Fun.id in
    let pooled label count f =
      match pool with
      | Some pool ->
        let size = (count + ways - 1) / ways in
        ignore
          (Par.Pool.map_chunked pool ~sched ~label ~chunk:1
             (fun k -> f (k * size) (Int.min count ((k + 1) * size) - 1))
             chunk_ids)
      | None -> f 0 (count - 1)
    in
    (* Probe the subtrees [ids.(lo .. hi)] ([probe]): each
       one's cheapest merge partner among its [knn] nearest candidates
       by [cost], written to [props].  [rmax], the largest [rad] of the
       round's population, bounds how far an unseen candidate's region
       can reach.  Runs on worker domains during a parallel round: the
       columns, [snap] and [slab] are only read, each probe writes only
       its own [props] slots, and the (cost, lowest-id) argmin makes the
       winner independent of candidate evaluation order. *)
    let probe_range ids rmax lo hi =
      for k = lo to hi do
        let sid = ids.(k) in
        (* The instant lands in the emitting domain's own trace buffer. *)
        if tracing then
          Obs.Trace.instant trace ~cat:"dme.order"
            ~args:[ ("subtree", Obs.Json.Int sid) ]
            "probe";
        probe inst c snap ~cx ~cy ~rad ~rmax ~knn props sid
      done
    in
    (* Run the selected merges [lo .. hi], whose ids follow [first]; each
       writes only its own id's slots of [c]. *)
    let merge_range first lo hi =
      for k = lo to hi do
        Merge.run inst ~split_slack:config.split_slack ~width_cap:config.width_cap c
          ~id:(first + k) sel.left.(k) sel.right.(k)
      done
    in
    (* A committed merge's trace: its region extent and an instant, on
       this domain in id order. *)
    let trace_merge id =
      let planned_wire = Merge.planned_wire c id in
      cum_wire := !cum_wire +. planned_wire;
      (match h_extent with
       | Some h ->
         Obs.Histogram.observe h
           (Geometry.Octagon.diameter (Octslab.get c.regions id))
       | None -> ());
      Obs.Trace.instant trace ~cat:"dme.engine"
        ~args:
          [
            ("id", Obs.Json.Int id);
            ("kind", Obs.Json.String (kind_name (Merge.kind_at c id)));
            ("planned_wire", Obs.Json.Float planned_wire);
            ("feasible", Obs.Json.Bool (Merge.feasible_at c id));
          ]
        "merge"
    in
    let rounds = ref 0 and probed = ref 0 and queried = ref 0 in
    let cells = ref 0 and entries = ref 0 and priced = ref 0 in
    (* [ids.(0 .. count-1)] is the round's active population in
       ascending-id order: the leaves' dense ids to start, then each
       round's survivors followed by its merges, whose fresh ids exceed
       every earlier one.  The next round's population is written to
       [spare], and the two buffers swap. *)
    let rec loop ids spare count =
      if count > 1 then begin
        incr rounds;
        (* The untraced run does not even touch the clock per round. *)
        let t0 = if tracing then Obs.Timer.now () else 0. in
        (* The round's query and priced counts and its cheapest selected
           cost ([infinity] when only the fallback merge ran), for its
           journal record. *)
        let round_queries = ref 0 and round_priced = ref 0 in
        let best_cost = ref Float.infinity in
        (* Rank in two strictly separated phases so the routed tree is
           bit-identical for any jobs count: (1) pack the round's centers
           and probe every active subtree against that frozen snapshot —
           in parallel chunks when a pool is given; (2) sum the probes'
           counts on this domain, rank the proposals and select a
           disjoint pair prefix, reserve the selected merges' ids and
           window space in selection order, run them — in parallel when a
           pool is given: each writes only its own id's slots — and
           install them serially in selection order. *)
        let round_body () =
          let rmax = ref 0. in
          for k = 0 to count - 1 do
            let id = ids.(k) in
            Float.Array.set xs k (Float.Array.get cx id);
            Float.Array.set ys k (Float.Array.get cy id);
            rmax := Float.max !rmax (Float.Array.get rad id)
          done;
          let rmax = !rmax in
          Grid_index.pack snap ~cell:(cell_for count) ids xs ys count;
          (* Probing in the snapshot's cell order keeps consecutive
             probes' rings in cache; each probe writes only its own
             slots, so the order changes nothing else. *)
          let run_probes () = pooled "engine.rank" count (probe_range snap.ids rmax) in
          if tracing then
            Obs.Trace.span trace ~cat:"dme.order"
              ~args:[ ("probes", Obs.Json.Int count) ]
              "probe_phase" run_probes
          else run_probes ();
          probed := !probed + count;
          for k = 0 to count - 1 do
            let id = ids.(k) in
            round_queries := !round_queries + props.queries.(id);
            cells := !cells + props.cells.(id);
            entries := !entries + props.entries.(id);
            round_priced := !round_priced + props.priced.(id);
            let p = props.partner.(id) in
            if p >= 0 then begin
              let d = Float.Array.get props.cost id in
              (match h_cost with Some h -> Obs.Histogram.observe h d | None -> ());
              let depth_bias =
                if weight = 0. then 0.
                else
                  weight
                  *. ((Float.Array.get hull_hi id +. Float.Array.get hull_hi p) /. 2.)
              in
              Float.Array.set props.cost id (d +. depth_bias)
            end
          done;
          let limit =
            if config.multi_merge then
              Int.max 1 (int_of_float (merge_fraction *. float_of_int count /. 2.))
            else 1
          in
          let ranked =
            Order.select_pairs ~ids ~count ~partner:props.partner ~cost:props.cost ~used
              ~limit sel
          in
          (* Which pairs merge this round depends only on the proposals
             and the round-start population — never on any merge's
             result — so the (potentially parallel) merges can all run
             against the frozen round state, and installing them in
             selection order is bit-identical to a merge-one-install-one
             loop.  Ids and window space are reserved in selection order
             to keep the id sequence independent of scheduling. *)
          let commit_phase () =
            for k = 0 to sel.len - 1 do
              best_cost := Float.min !best_cost (Float.Array.get sel.costs k)
            done;
            (* Degenerate safeguard: grid candidates always yield at least
               one pair when two or more subtrees are active.  Should that
               ever fail, merge the two lowest-id survivors directly
               rather than spinning forever. *)
            if sel.len = 0 then begin
              sel.left.(0) <- ids.(0);
              sel.right.(0) <- ids.(1);
              Bytes.set used ids.(0) '\001';
              Bytes.set used ids.(1) '\001';
              sel.len <- 1
            end;
            let merged = sel.len in
            let first = Subtree.reserve c sel.left.(0) sel.right.(0) in
            for k = 1 to merged - 1 do
              ignore (Subtree.reserve c sel.left.(k) sel.right.(k) : int)
            done;
            if merged > 1 then pooled "engine.commit" merged (merge_range first)
            else merge_range first 0 0;
            (* The next round's population: this round's survivors, then
               the merges in selection order — ascending, as fresh ids
               are. *)
            let at = ref 0 in
            for k = 0 to count - 1 do
              let id = ids.(k) in
              if Bytes.get used id = '\000' then begin
                spare.(!at) <- id;
                incr at
              end
            done;
            for k = 0 to merged - 1 do
              if tracing then trace_merge (first + k);
              insert (first + k);
              spare.(!at + k) <- first + k
            done;
            !at + merged
          in
          let next =
            if tracing then
              Obs.Trace.span trace ~cat:"dme.order"
                ~args:[ ("candidates", Obs.Json.Int ranked) ]
                "commit_phase" commit_phase
            else commit_phase ()
          in
          queried := !queried + !round_queries;
          priced := !priced + !round_priced;
          next
        in
        let next =
          if tracing then
            Obs.Trace.span trace ~cat:"dme.order"
              ~args:[ ("round", Obs.Json.Int !rounds); ("active", Obs.Json.Int count) ]
              "round" round_body
          else round_body ()
        in
        if tracing then begin
          let wall_s = Float.max 0. (Obs.Timer.now () -. t0) in
          let gc_now = Obs.Gcstat.sample () in
          let d_gc = Obs.Gcstat.diff gc_now !last_gc in
          last_gc := gc_now;
          Obs.Trace.journal trace
            (Obs.Json.Obj
               [
                 ("type", Obs.Json.String "round");
                 ("round", Obs.Json.Int !rounds);
                 ("active", Obs.Json.Int count);
                 ("probes", Obs.Json.Int count);
                 ("nn_queries", Obs.Json.Int !round_queries);
                 ("merges", Obs.Json.Int (count - next));
                 ("trial_elided", Obs.Json.Int !round_priced);
                 ("merge_cost", Obs.Json.Float !best_cost);
                 ("cum_planned_wire", Obs.Json.Float !cum_wire);
                 ("wall_s", Obs.Json.Float wall_s);
                 ("gc", Obs.Gcstat.json d_gc);
               ])
        end;
        loop spare ids next
      end
    in
    loop (Array.init n Fun.id) (Array.make n 0) n;
    {
      (of_run c ~rounds:!rounds) with
      nn_reprobes = !probed;
      nn_queries = !queried;
      nn_cells = !cells;
      nn_entries = !entries;
      trial = { trial_merges = 0; elided_trials = !priced };
    }
  in
  let stats =
    if tracing then
      Obs.Trace.span trace ~cat:"dme.engine"
        ~args:[ ("jobs", Obs.Json.Int jobs) ]
        "engine.plan" body
    else body ()
  in
  (Subtree.finish c, stats)

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
