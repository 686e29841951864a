module Octagon = Geometry.Octagon
module Octslab = Geometry.Octslab
module Grid_index = Geometry.Grid_index
module Pt = Geometry.Pt

type config = {
  multi_merge : bool;
  merge_fraction : float;
  knn : int;
  delay_order_weight : float;
  incremental : bool;
}

let default =
  {
    multi_merge = true;
    merge_fraction = 0.5;
    knn = 16;
    delay_order_weight = 0.;
    incremental = true;
  }

type 'note coster = {
  session : unit -> (dist:float -> Subtree.t -> Subtree.t -> float) * (unit -> 'note);
  absorb : 'note -> unit;
}

type 'merge merger = {
  compute : id:int -> Subtree.t -> Subtree.t -> 'merge;
  install : 'merge -> Subtree.t;
}

let of_cost cost =
  {
    session = (fun () -> ((fun ~dist:_ a b -> cost a b), fun () -> ()));
    absorb = ignore;
  }

let of_merge merge =
  {
    compute = (fun ~id a b -> (id, a, b));
    install = (fun (id, a, b) -> merge ~id a b);
  }

type stats = { rounds : int; nn_probes : int; nn_probes_saved : int }

type round_info = {
  round : int;
  active : int;
  probes : int;
  cache_served : int;
  merges : int;
  best_cost : float;
  wall_s : float;
}

let c_probes = Obs.Counter.make "dme.order.nn_probes"
let c_saved = Obs.Counter.make "dme.order.nn_probes_saved"
let c_invalidated = Obs.Counter.make "dme.order.nn_invalidated"
let c_inv_partner = Obs.Counter.make "dme.order.nn_inv_partner_died"
let c_inv_rank = Obs.Counter.make "dme.order.nn_inv_rank_churn"
let c_inv_undercut = Obs.Counter.make "dme.order.nn_inv_undercut"
let c_uncached = Obs.Counter.make "dme.order.nn_uncacheable"
let c_pairs = Obs.Counter.make "dme.order.pairs_ranked"
let c_rounds = Obs.Counter.make "dme.order.rounds"

(* The same unordered pair can be proposed by both endpoints with
   slightly different costs (trial orientation asymmetry); keep only
   the cheapest proposal per pair.  Input: sorted by (i, j, cost).
   Accumulator form: the ranked-pair count of a round equals the active
   subtree count, so Gen.Huge-scale instances would blow the stack under
   the former non-tail recursion. *)
let dedupe_pairs pairs =
  let rec go acc = function
    | ((_, i1, j1) as p) :: (_, i2, j2) :: rest when i1 = i2 && j1 = j2 ->
      go acc (p :: rest)
    | p :: rest -> go (p :: acc) rest
    | [] -> List.rev acc
  in
  go [] pairs

(* A best cost at or above [reach_cap inst] is an avoid-infeasible
   penalty (see Engine, 1e9 x the instance extent): a proposal that
   expensive is invalidated by practically any nearby insertion, so it
   is cheaper to just re-probe its owner every round than to cache and
   churn it.  Extent-relative like the penalty itself, so rescaled
   layouts make identical caching decisions; a zero-extent instance
   caches nothing (harmless — such instances are degenerate and tiny). *)
let reach_cap inst =
  1e8 *. Octagon.diameter (Clocktree.Instance.bbox inst)

(* What one probe found: its cheapest partner ([-1] when the k-NN scan
   found no candidate) at [cost], and — when the proposal may be cached
   — the certificate the cache keeps: the partner's center distance
   [pdist] and 1-based candidate [rank], and the owner's region radius
   bound [rad] (see [prop_*] below). *)
type found = { partner : int; cost : float; cert : cert option }
and cert = { pdist : float; rad : float; rank : int }

let no_partner = { partner = -1; cost = Float.infinity; cert = None }

(* Each domain's k-NN answer buffer.  A probe fills it and reads it back
   before returning, and nothing a probe calls probes again, so one
   buffer per domain is never shared. *)
let knn_key = Domain.DLS.new_key Grid_index.knn_buffer

(* Whether [qid] is among the buffer's first [klen] answers — the
   candidates a probe evaluated.  Top-level so the undercut ball scan
   allocates no closure per visited entry. *)
let rec knn_mem (b : Grid_index.knn) qid i =
  i < b.klen && (b.kids.(i) = qid || knn_mem b qid (i + 1))

let run_ranked ?pool ?(trace = Obs.Trace.null) ?(sched = Obs.Sched.null)
    ?on_round ?leaves (inst : Clocktree.Instance.t) config
    ~(coster : 'note coster) ~(merger : 'merge merger) =
  (* The initial population: the instance's sink leaves by default, or an
     explicit subtree array (the clustered router's region roots).  The
     arena is indexed by subtree id, so explicit leaves must carry dense
     ids [0 .. n-1] — the same invariant sink leaves satisfy. *)
  let leaves =
    match leaves with
    | None -> Array.map Subtree.leaf inst.Clocktree.Instance.sinks
    | Some ls ->
      Array.iteri
        (fun i (s : Subtree.t) ->
          if s.id <> i then
            invalid_arg "Order.run_ranked: leaf subtree ids must be dense")
        ls;
      ls
  in
  let n = Array.length leaves in
  let tracing = Obs.Trace.enabled trace in
  (* Probe costs observed in the absorb phase (main domain): the chosen
     best cost of every executed probe. *)
  let h_cost =
    if tracing then Some (Obs.Trace.histogram trace "order.probe_cost")
    else None
  in
  (* A non-positive knn would make every k-NN query return [] and stall
     the pairing loop below; clamp rather than crash. *)
  let knn = Int.max 1 config.knn in
  let incremental = config.incremental in
  let reach_cap = reach_cap inst in
  let cell =
    let d = Octagon.diameter (Clocktree.Instance.bbox inst) in
    let raw = d /. Float.sqrt (float_of_int (Int.max 1 n)) in
    (* The floor must be relative to the instance's extent, not the
       absolute 1.0 layout unit it used to be: a unit-square (or any
       sub-unit) instance would collapse into a single grid cell and
       degrade every k-NN query to a full scan, making ranking cost — and
       the probe/visit counters — depend on coordinate scale.  [Eps.tol]
       absolutely and [Eps.tol * d] relatively keep the cell positive for
       degenerate (single-point) instances without distorting real
       ones. *)
    Float.max (Float.max Geometry.Eps.tol (Geometry.Eps.tol *. d)) raw
  in
  (* Arena: every structure the ranking loop reads per candidate is a
     flat array indexed by subtree id.  Ids are dense — [n] leaves plus
     at most [n - 1] merges — so [2 n] slots cover the whole run and
     nothing on the probe path chases a hashtable or boxes a float.
     [slab] mirrors each alive subtree's region bounds (Octslab.dist is
     bit-identical to Octagon.dist); [cx]/[cy] its center; [hull_hi] the
     upper end of its delay hull (the only part delay biasing reads).
     Slots of merged-away ids go stale rather than being cleared — the
     loop only ever indexes ids of currently alive subtrees. *)
  let cap_ids = Int.max 2 (2 * n) in
  let node : Subtree.t option array = Array.make cap_ids None in
  let n_active = ref 0 in
  let slab = Octslab.create cap_ids in
  let cx = Float.Array.make cap_ids Float.nan in
  let cy = Float.Array.make cap_ids Float.nan in
  let hull_hi = Float.Array.make cap_ids Float.nan in
  (* Proposal cache, SoA: a subtree id is "dirty" exactly when its
     [prop_partner] slot is negative.  Invalidation writes -1; merged
     subtrees drop theirs in [delete]; fresh nodes start without one.
     The remaining slots hold the owner's cheapest raw cost, its region
     radius bound [rad] (L1 diameter; [Octagon.center] lies inside the
     region, so no region point is farther than that from the center),
     the partner's center distance [pdist] and 1-based candidate rank,
     and a running count of nodes inserted closer than the partner since
     the probe ([rank - 1 + closer] bounds the partner's current grid
     rank). *)
  let prop_partner = Array.make cap_ids (-1) in
  let prop_cost = Float.Array.make cap_ids Float.nan in
  let prop_rad = Float.Array.make cap_ids Float.nan in
  let prop_pdist = Float.Array.make cap_ids Float.nan in
  let prop_rank = Array.make cap_ids 0 in
  let prop_closer = Array.make cap_ids 0 in
  let grid : unit Grid_index.t = Grid_index.create ~cell in
  (* Ids inserted by the current round's commits, swept against the
     surviving proposals at the start of the next round. *)
  let inserted : int list ref = ref [] in
  let insert (s : Subtree.t) =
    let c = Octagon.center s.region in
    node.(s.id) <- Some s;
    incr n_active;
    Octslab.set slab s.id s.region;
    Float.Array.set cx s.id c.Pt.x;
    Float.Array.set cy s.id c.Pt.y;
    if config.delay_order_weight <> 0. then
      Float.Array.set hull_hi s.id (Subtree.delay_hull s).hi;
    Grid_index.add grid ~id:s.id c ()
  in
  let center_of id = Pt.make (Float.Array.get cx id) (Float.Array.get cy id) in
  let delete id =
    if node.(id) <> None then begin
      Grid_index.remove grid ~id (center_of id);
      node.(id) <- None;
      decr n_active
    end;
    prop_partner.(id) <- -1
  in
  Array.iter insert leaves;
  let next_id = ref n in
  let fresh_id () =
    let id = !next_id in
    incr next_id;
    id
  in
  let subtree id =
    match node.(id) with Some t -> t | None -> assert false
  in
  (* Largest region radius among the current round's population: bounds
     the unknown region radius of any node a triangle-inequality ball
     must cover, both in the invalidation sweep and in the cache-time
     undercut scan.  Set before each probe phase. *)
  let alive_max_rad = ref 0. in
  (* May the proposal (partner = candidate [i] of [buf], cost [d]) of
     owner [sid] be cached?  Reads only state frozen for the probe phase
     — the grid, slab, centers and [alive_max_rad] — so it runs on the
     probing domain.  Three tests, all against the scan the proposal came
     from:

     - Exclusion bound: the partner must lie strictly inside the k-NN
       scan's exclusion bound ({!Grid_index.knn}), so a node the scan
       left out can never outrank it; an exhaustive scan left none out.

     - Same-cell tie guard: a candidate in the partner's grid cell at
       exactly the partner's distance ranks against it by bucket arrival
       order, which a later removal and re-insertion in that cell changes
       (buckets keep insertion order).  Cross-cell ties rank by ring-scan
       geometry and entries the scan excluded lie at distance >= kth >
       pdist, so only candidates in the partner's own cell can flip.

     - Undercut ball scan: every alive node the probe did not evaluate
       must have region distance > [d] from the owner, so no later
       promotion into the k-NN set can beat or tie the cached best (ties
       are excluded because a pre-existing node may hold a lower id than
       the partner and would win one).  Any such node's center lies
       within [d + rad + alive_max_rad] of the owner's; regions are
       immutable, so this holds for the proposal's whole life and only
       insertions (swept each round) can break it.  The scan is never cut
       short, so the grid's visit counters do not depend on which entry
       fails. *)
  let certify (buf : Grid_index.knn) sid (c_s : Pt.t) i d =
    let tid = buf.kids.(i) in
    let c_t = center_of tid in
    let pdist = Pt.dist c_s c_t in
    let rad = Octslab.diameter slab sid in
    let cacheable =
      (buf.exhaustive || pdist < buf.kth)
      && begin
           let pcell = Grid_index.cell_of grid c_t in
           let tie = ref false in
           for k = 0 to buf.klen - 1 do
             if
               buf.kids.(k) <> tid
               && Float.Array.get buf.kdist k = pdist
               && Grid_index.cell_of grid
                    (Pt.make (Float.Array.get buf.kx k) (Float.Array.get buf.ky k))
                  = pcell
             then tie := true
           done;
           not !tie
         end
      &&
      let ball = d +. rad +. !alive_max_rad +. cell in
      let ok = ref true in
      Grid_index.iter_within grid c_s ball (fun qid ->
          if
            !ok
            && not (qid = sid || knn_mem buf qid 0 || Octslab.dist slab sid qid > d)
          then ok := false);
      !ok
    in
    if cacheable then Some { pdist; rad; rank = i + 1 } else None
  in
  (* One probe: the cheapest merge partner of [s] among its [knn] grid
     candidates (grid ranking is by representative point, so probe
     several candidates and refine with the true merging cost), plus the
     cache certificate when incremental ranking may keep the proposal.
     Runs on worker domains during a parallel round: the arena, [grid]
     and [slab] are only read, and the (cost, lowest-id) argmin makes the
     winner independent of candidate evaluation order.  One probe = one
     coster session: the returned note carries whatever side results
     (e.g. freshly run trial merges) the cost function produced, to be
     absorbed on the main domain in snapshot order.  A k-NN answer comes
     back empty only when no other entry is eligible at all (the scan
     covers the whole occupied box unless it has found [knn] entries),
     so an empty answer needs no fallback scan. *)
  let probe (s : Subtree.t) =
    (* The instant lands in the emitting domain's own trace buffer. *)
    if tracing then
      Obs.Trace.instant trace ~cat:"dme.order"
        ~args:[ ("subtree", Obs.Json.Int s.id) ]
        "probe";
    Obs.Counter.incr c_probes;
    let cost, finish = coster.session () in
    let buf = Domain.DLS.get knn_key in
    let sid = s.id in
    let c_s = center_of sid in
    Grid_index.knn_into grid buf ~skip:(fun id -> id = sid) c_s knn;
    let bi = ref (-1) and bd = ref Float.infinity in
    for i = 0 to buf.klen - 1 do
      let tid = buf.kids.(i) in
      let d = cost ~dist:(Octslab.dist slab sid tid) s (subtree tid) in
      if !bi < 0 || not (!bd < d || (!bd = d && buf.kids.(!bi) < tid)) then begin
        bi := i;
        bd := d
      end
    done;
    let found =
      if !bi < 0 then no_partner
      else begin
        let d = !bd in
        {
          partner = buf.kids.(!bi);
          cost = d;
          cert =
            (if incremental && d < reach_cap then certify buf sid c_s !bi d
             else None);
        }
      end
    in
    (found, finish ())
  in
  (* Deep subtrees have small delay targets; merging shallow pairs first
     (Chaturvedi-Hu) keeps depths homogeneous and avoids late merges that
     must snake to match a buried group's delay.  [hull_hi] caches each
     node's [Subtree.delay_hull] high end from insertion. *)
  let biased aid bid d =
    let depth_bias =
      if config.delay_order_weight = 0. then 0.
      else
        config.delay_order_weight
        *. ((Float.Array.get hull_hi aid +. Float.Array.get hull_hi bid) /. 2.)
    in
    d +. depth_bias
  in
  (* Alive subtrees in ascending-id order: the id-indexed arena walk
     needs no sort. *)
  let snapshot () =
    let acc = ref [] in
    for id = !next_id - 1 downto 0 do
      match node.(id) with Some s -> acc := s :: !acc | None -> ()
    done;
    Array.of_list !acc
  in
  let invalidate id =
    if prop_partner.(id) >= 0 then begin
      Obs.Counter.incr c_invalidated;
      prop_partner.(id) <- -1
    end
  in
  (* Dirty-set invalidation, run at the start of each round against the
     exact population a from-scratch probe would see.  A cached proposal
     (p, B) of owner [s] is reused only if it is provably what a fresh
     probe would return, i.e. the argmin by (cost, lowest id) over the
     current k-NN candidate set is still (p, B).  The argument splits
     over where a fresh probe's candidate could come from:

     - A candidate the original probe evaluated: its cost is a pure
       function of the immutable subtree pair, so it still loses to
       (B, p.id).

     - A node inserted since (a committed merge's node [m]): handled by
       the per-insertion sweep below.  [m] undercuts [B] only if
       [Octagon.dist s.region m.region < B] — the coster contract
       [cost >= region distance] plus [m.id > p.id] losing equal-cost
       ties makes the strict test exact — and [m] can evict [p] from the
       k-NN set only by outranking it.  Grid candidate order is (center
       distance, bucket arrival): an [m] strictly farther than [pdist]
       ranks after [p]; an exact center-distance tie is invalidated
       outright; and an insertion reshuffling bucket arrival inside
       [p]'s cell is harmless because caching refused any proposal whose
       partner had a same-cell distance tie (arrival across different
       cells is fixed by ring-scan geometry).  Insertions closer than
       [pdist] shift [p]'s rank by one each; [rank - 1 + closer < knn]
       keeps [p] inside the k-NN set, so the proposal dies only when
       that headroom runs out, not at the first nearby insertion.  All
       tests are against immutable quantities, so one sweep the round
       after the insertion covers the proposal's whole lifetime.

     - A pre-existing node the probe never evaluated, promoted into the
       k-NN set as deletions push the k-th boundary outward: it lies at
       center distance >= the probe's exclusion bound
       ({!Grid_index.knn}), which caching requires to exceed
       [pdist] strictly — so it ranks after [p] and can never evict it —
       and the cache-time undercut scan proved its region distance
       exceeds [B], so its cost loses even as a k-NN member.  Regions
       are immutable and deletions only shrink the pre-existing
       population, so that cache-time proof needs no per-round
       re-checking; only insertions (swept above) can create new
       undercut risks.

     - [p] itself must still be alive: the partner-death rule.

     The surviving proposal is therefore exactly the fresh probe's
     answer — the routed tree, delays and wirelength are bit-identical
     with incremental ranking on or off.  What is NOT replayed is the
     skipped probes' side work: their coster sessions never run, so
     engine-side trial counters drop below the from-scratch run's.  That
     saving is the point; see DESIGN.md section 10.  The classic
     candidate-list-exact rule (dirty when any candidate of the list
     died) is also sound but measurably useless under multi-merge — each
     round consumes half the active set, so some candidate of nearly
     every survivor dies (measured: 0 of 1083 probes saved on r1).

     Every per-owner test is independent of every other owner's outcome
     and [inserted] sweeps touch disjoint mutable slots, so the grid's
     unspecified [iter_within] visit order cannot change the surviving
     set. *)
  let invalidate_stale () =
    for oid = 0 to !next_id - 1 do
      let pid = prop_partner.(oid) in
      if pid >= 0 && node.(pid) = None then begin
        Obs.Counter.incr c_inv_partner;
        invalidate oid
      end
    done;
    (* Collection radius: an owner failing any exact test below has its
       center within [B + rad + rad_m] (undercut, via the triangle
       inequality through both region radii) or [pdist
       <= B + rad + rad_p] (rank churn) of [m]'s center.  [reach] bounds
       every surviving cached [B + rad] — recomputed per round from the
       live slots, so late-game giants whose proposals already died do
       not inflate earlier sweeps — while [alive_max_rad] bounds the
       radius of [m] and of any live partner.  Over-collection costs
       scan time only — the per-owner tests are exact. *)
    let reach = ref 0. in
    for oid = 0 to !next_id - 1 do
      if prop_partner.(oid) >= 0 then
        reach :=
          Float.max !reach
            (Float.Array.get prop_cost oid +. Float.Array.get prop_rad oid)
    done;
    List.iter
      (fun mid ->
        let cm = center_of mid in
        let collect = !reach +. !alive_max_rad +. cell in
        Grid_index.iter_within grid cm collect (fun oid ->
            if prop_partner.(oid) >= 0 && oid <> mid then begin
              if Octslab.dist slab oid mid < Float.Array.get prop_cost oid
              then begin
                Obs.Counter.incr c_inv_undercut;
                invalidate oid
              end
              else
                let dm = Pt.dist (center_of oid) cm in
                let pdist = Float.Array.get prop_pdist oid in
                if dm = pdist then begin
                  (* [m] ties the partner's center distance; which of the
                     two a fresh scan ranks first hangs on arrival order,
                     so be conservative. *)
                  Obs.Counter.incr c_inv_rank;
                  invalidate oid
                end
                else if dm < pdist then begin
                  prop_closer.(oid) <- prop_closer.(oid) + 1;
                  if prop_rank.(oid) - 1 + prop_closer.(oid) >= knn then begin
                    Obs.Counter.incr c_inv_rank;
                    invalidate oid
                  end
                end
            end))
      !inserted;
    inserted := []
  in
  let rounds = ref 0 in
  let reprobed = ref 0 in
  let saved = ref 0 in
  let rec loop () =
    let count = !n_active in
    if count = 1 then begin
      let survivor = ref None in
      for id = 0 to !next_id - 1 do
        if !survivor = None then survivor := node.(id)
      done;
      match !survivor with Some s -> s | None -> assert false
    end
    else begin
      incr rounds;
      Obs.Counter.incr c_rounds;
      (* Wall time is read only when a round observer is installed, so
         the untraced run does not even touch the clock per round. *)
      let t0 = if on_round <> None then Obs.Timer.now () else 0. in
      let saved0 = !saved in
      (* Rank in three strictly separated phases so the routed tree is
         bit-identical for any jobs count: (1) probe every stale active
         subtree against the frozen grid state — in parallel chunks when
         a pool is given — while clean subtrees reuse their cached
         proposal; (2) absorb the probes' side results on this domain in
         snapshot (ascending-id) order; (3) sort, dedupe and select a
         disjoint pair prefix, compute the selected merges — in parallel
         when a pool is given; [merger.compute] must be pure — and
         install them serially in selection order.  With [incremental]
         off every subtree counts as stale and the round degenerates to
         the from-scratch scan. *)
      let round_body () =
        let snap = snapshot () in
        if incremental then begin
          alive_max_rad :=
            Array.fold_left
              (fun m (s : Subtree.t) -> Float.max m (Octslab.diameter slab s.id))
              0. snap;
          invalidate_stale ()
        end;
        let stale (s : Subtree.t) =
          (not incremental) || prop_partner.(s.id) < 0
        in
        let todo =
          if incremental then
            Array.of_seq (Seq.filter stale (Array.to_seq snap))
          else snap
        in
        let probes =
          let run_probes () =
            match pool with
            | Some pool ->
              Par.Pool.map_chunked pool ~sched ~label:"engine.rank" probe todo
            | None -> Array.map probe todo
          in
          if tracing then
            Obs.Trace.span trace ~cat:"dme.order"
              ~args:[ ("stale", Obs.Json.Int (Array.length todo)) ]
              "probe_phase" run_probes
          else run_probes ()
        in
        reprobed := !reprobed + Array.length todo;
        let pairs = ref [] in
        let ti = ref 0 in
        Array.iter
          (fun (s : Subtree.t) ->
            let partner, d =
              if stale s then begin
                let found, note = probes.(!ti) in
                incr ti;
                coster.absorb note;
                (match h_cost with
                 | Some h when found.partner >= 0 -> Obs.Histogram.observe h found.cost
                 | _ -> ());
                if incremental then begin
                  match found.cert with
                  | Some c ->
                    prop_partner.(s.id) <- found.partner;
                    Float.Array.set prop_cost s.id found.cost;
                    Float.Array.set prop_rad s.id c.rad;
                    Float.Array.set prop_pdist s.id c.pdist;
                    prop_rank.(s.id) <- c.rank;
                    prop_closer.(s.id) <- 0
                  | None -> Obs.Counter.incr c_uncached
                end;
                (found.partner, found.cost)
              end
              else begin
                let pid = prop_partner.(s.id) in
                assert (node.(pid) <> None) (* dead partners were swept *);
                incr saved;
                Obs.Counter.incr c_saved;
                (pid, Float.Array.get prop_cost s.id)
              end
            in
            if partner >= 0 then begin
              let i = Int.min s.Subtree.id partner and j = Int.max s.Subtree.id partner in
              pairs := (biased s.id partner d, i, j) :: !pairs
            end)
          snap;
        let pairs =
          List.sort
            (fun (c1, i1, j1) (c2, i2, j2) ->
              match Int.compare i1 i2 with
              | 0 ->
                (match Int.compare j1 j2 with
                 | 0 -> Float.compare c1 c2
                 | c -> c)
              | c -> c)
            !pairs
          |> dedupe_pairs
          |> List.sort (fun (c1, i1, j1) (c2, i2, j2) ->
                 match Float.compare c1 c2 with
                 | 0 ->
                   (match Int.compare i1 i2 with 0 -> Int.compare j1 j2 | c -> c)
                 | c -> c)
        in
        Obs.Counter.add c_pairs (List.length pairs);
        let limit =
          if config.multi_merge then
            Int.max 1
              (int_of_float (config.merge_fraction *. float_of_int count /. 2.))
          else 1
        in
        let used = Hashtbl.create 64 in
        let merged = ref 0 in
        let best_cost = ref Float.infinity in
        let commit_phase () =
          (* Selection first: which pairs merge this round depends only
             on the sorted pair list and the round-start population —
             never on any merge's result — so the (potentially parallel)
             merge computations can all run against the frozen round
             state, and installing them in selection order is
             bit-identical to the former compute-one-install-one loop.
             Ids are drawn at selection time to keep the id sequence
             independent of compute scheduling. *)
          let selected = ref [] in
          List.iter
            (fun (c, i, j) ->
              if
                !merged < limit
                && (not (Hashtbl.mem used i))
                && not (Hashtbl.mem used j)
              then begin
                match (node.(i), node.(j)) with
                | Some a, Some b ->
                  Hashtbl.replace used i ();
                  Hashtbl.replace used j ();
                  selected := (i, j, a, b, fresh_id ()) :: !selected;
                  best_cost := Float.min !best_cost c;
                  incr merged
                | _ -> ()
              end)
            pairs;
          (* Degenerate safeguard: grid candidates always yield at least one
             pair when two or more subtrees are active.  Should that ever
             fail, merge the two lowest-id survivors directly rather than
             spinning forever. *)
          if !merged = 0 then begin
            let i = ref (-1) and j = ref (-1) in
            (try
               for id = 0 to !next_id - 1 do
                 if node.(id) <> None then
                   if !i < 0 then i := id
                   else begin
                     j := id;
                     raise Exit
                   end
               done
             with Exit -> ());
            match (node.(!i), node.(!j)) with
            | Some a, Some b ->
              selected := (!i, !j, a, b, fresh_id ()) :: !selected;
              incr merged
            | _ -> assert false
          end;
          let sels = Array.of_list (List.rev !selected) in
          let computed =
            let compute (_, _, a, b, id) = merger.compute ~id a b in
            match pool with
            | Some pool when Array.length sels > 1 ->
              Par.Pool.map_chunked pool ~sched ~label:"engine.commit" compute
                sels
            | _ -> Array.map compute sels
          in
          Array.iteri
            (fun k (i, j, _, _, _) ->
              let s = merger.install computed.(k) in
              delete i;
              delete j;
              insert s;
              if incremental then inserted := s.Subtree.id :: !inserted)
            sels
        in
        if tracing then
          Obs.Trace.span trace ~cat:"dme.order"
            ~args:[ ("candidates", Obs.Json.Int (List.length pairs)) ]
            "commit_phase" commit_phase
        else commit_phase ();
        (Array.length todo, !merged, !best_cost)
      in
      let probes_run, merges_done, best_cost =
        if tracing then
          Obs.Trace.span trace ~cat:"dme.order"
            ~args:
              [ ("round", Obs.Json.Int !rounds); ("active", Obs.Json.Int count) ]
            "round" round_body
        else round_body ()
      in
      (match on_round with
       | None -> ()
       | Some f ->
         f
           {
             round = !rounds;
             active = count;
             probes = probes_run;
             cache_served = !saved - saved0;
             merges = merges_done;
             best_cost;
             wall_s = Float.max 0. (Obs.Timer.now () -. t0);
           });
      loop ()
    end
  in
  let root = loop () in
  (root, { rounds = !rounds; nn_probes = !reprobed; nn_probes_saved = !saved })

let run inst config ~cost ~merge =
  run_ranked inst config ~coster:(of_cost cost) ~merger:(of_merge merge)
