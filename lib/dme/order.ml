module Octagon = Geometry.Octagon
module Octslab = Geometry.Octslab
module Grid_index = Geometry.Grid_index
module Pt = Geometry.Pt

type config = { multi_merge : bool; knn : int; delay_order_weight : float }

let default = { multi_merge = true; knn = 16; delay_order_weight = 0. }

(* Fraction of the active subtrees a multi-merge round consumes. *)
let merge_fraction = 0.5

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

type stats = { rounds : int; nn_probes : int; nn_queries : int }

type round_info = {
  round : int;
  active : int;
  probes : int;
  queries : int;
  merges : int;
  best_cost : float;
  wall_s : float;
}

let c_probes = Obs.Counter.make "dme.order.nn_probes"
let c_pairs = Obs.Counter.make "dme.order.pairs_ranked"
let c_rounds = Obs.Counter.make "dme.order.rounds"

(* The (cost, lowest id) argmin over candidates [ids.(from .. len-1)],
   resumed from the running best [(bi, bd)] over [ids.(0 .. from-1)] and
   pricing only those that can still win.  Every coster returns a cost
   [>= dist] (the coster contract), so a candidate whose region distance
   already exceeds the best cost — or ties it with a higher id — cannot
   take the argmin whatever it costs, and its price is never asked for.
   A NaN distance proves nothing, so that candidate is priced.  The
   winner is the exhaustive argmin's, for any candidate order. *)
let scan ids ~from len ~bi ~bd ~dist ~price =
  let bi = ref bi and bd = ref bd in
  for i = from to len - 1 do
    let tid = ids.(i) in
    let d = dist tid in
    if !bi < 0 || not (d > !bd || (d = !bd && tid > ids.(!bi))) then begin
      let c = price tid d in
      if Float.is_nan c then invalid_arg "Order: a merge cost is NaN";
      if !bi < 0 || c < !bd || (c = !bd && tid < ids.(!bi)) then begin
        bi := i;
        bd := c
      end
    end
  done;
  (!bi, !bd)

let cheapest ids len ~dist ~price =
  scan ids ~from:0 len ~bi:(-1) ~bd:Float.infinity ~dist ~price

(* Rounding allowance of the settle test, relative to the magnitudes
   the bound is computed from (DESIGN.md section 25): 2^13 ulps of them,
   hundreds of times what the dozen roundings behind the bound can
   lose, and still far below any cost gap the bound is asked to prove. *)
let settle_tol = 0x1p-40

(* A probe's widening loop: price the [k] nearest candidates, then
   double [k] (up to [knn]) until the k-NN exclusion bound proves that
   no candidate left out can win.  Every eligible entry outside a
   non-exhaustive answer has its center at L1 distance >= [kth] from
   [q]; its region lies within [rmax] of its center and the probed
   subtree's within [rad] of [q], so its region distance, and hence its
   cost, is at least [kth - rad - rmax].  When that exceeds the best
   cost, strictly, an unseen candidate can neither beat the best nor tie
   it with a lower id.  The answer is canonical in (distance, id), so a
   wider query's first [k] entries are the previous answer: pricing
   resumes at index [k] from the running best, and the sequence of
   [price] calls is a prefix of the full-[knn] probe's — the rest of
   which [scan] would skip, by the same bound. *)
let settle grid (buf : Grid_index.knn) ~skip (q : Pt.t) ~knn ~rad ~rmax ~dist
    ~price =
  let knn = Int.max 1 knn in
  let reach = rad +. rmax in
  let norm = Float.abs q.x +. Float.abs q.y +. reach in
  let k = ref (Int.max 1 (knn / 4)) and from = ref 0 and queries = ref 0 in
  let bi = ref (-1) and bd = ref Float.infinity and settled = ref false in
  while not !settled do
    Grid_index.knn_into grid buf ~skip q !k;
    incr queries;
    let i, d = scan buf.kids ~from:!from buf.klen ~bi:!bi ~bd:!bd ~dist ~price in
    bi := i;
    bd := d;
    if
      !k >= knn || buf.exhaustive
      || buf.kth -. reach -. (settle_tol *. (buf.kth +. norm)) > d
    then settled := true
    else begin
      from := buf.klen;
      k := Int.min knn (2 * !k)
    end
  done;
  ((if !bi < 0 then -1 else buf.kids.(!bi)), !bd, !queries)

(* One round's selection.  Probes propose at most one partner each, so
   an unordered pair is proposed at most twice — once by each endpoint,
   possibly at slightly different costs (trial orientation asymmetry) —
   and is ranked once, from its lower id, at the smaller cost under
   [Float.compare] (the higher id's on a tie).  Ranked pairs sort by
   (cost, i, j), a total order on distinct pairs, and a greedy pass takes
   the first [limit] that touch no id taken before them.  Flat arrays and
   one index sort: no list, no hashtable, nothing deep enough to
   recurse. *)
let select_pairs ~ids ~partner ~cost ~used ~limit =
  let m = Array.length ids in
  let pi = Array.make m 0 and pj = Array.make m 0 in
  let pc = Float.Array.create m in
  let ranked = ref 0 in
  Array.iter
    (fun i ->
      let j = partner.(i) in
      let mutual = j >= 0 && partner.(j) = i in
      if j >= 0 && (i < j || not mutual) then begin
        let c = Float.Array.get cost i in
        let c =
          if not mutual then c
          else
            let cj = Float.Array.get cost j in
            if Float.compare c cj < 0 then c else cj
        in
        let k = !ranked in
        pi.(k) <- Int.min i j;
        pj.(k) <- Int.max i j;
        Float.Array.set pc k c;
        ranked := k + 1
      end)
    ids;
  let order = Array.init !ranked Fun.id in
  Array.sort
    (fun a b ->
      match Float.compare (Float.Array.get pc a) (Float.Array.get pc b) with
      | 0 ->
        (match Int.compare pi.(a) pi.(b) with
         | 0 -> Int.compare pj.(a) pj.(b)
         | c -> c)
      | c -> c)
    order;
  let selected = ref [] and taken = ref 0 and k = ref 0 in
  while !taken < limit && !k < !ranked do
    let o = order.(!k) in
    let i = pi.(o) and j = pj.(o) in
    if Bytes.get used i = '\000' && Bytes.get used j = '\000' then begin
      Bytes.set used i '\001';
      Bytes.set used j '\001';
      selected := (Float.Array.get pc o, i, j) :: !selected;
      incr taken
    end;
    incr k
  done;
  (!ranked, Array.of_list (List.rev !selected))

(* Each domain's k-NN answer buffer.  A probe fills it and reads it back
   before returning, and nothing a probe calls probes again, so one
   buffer per domain is never shared. *)
let knn_key = Domain.DLS.new_key Grid_index.knn_buffer

let run_ranked ?pool ?(run = Obs.Run.null) ?on_round ?leaves
    (inst : Clocktree.Instance.t) config ~(coster : 'note coster)
    ~(merger : 'merge merger) =
  let { Obs.Run.trace; sched; _ } = run in
  (* The initial population: the instance's sink leaves by default, or an
     explicit subtree array (the clustered router's region roots).  The
     arena is indexed by subtree id, so explicit leaves must carry dense
     ids [0 .. n-1] — the same invariant sink leaves satisfy. *)
  let leaves =
    match leaves with
    | None -> Array.map Subtree.leaf inst.Clocktree.Instance.sinks
    | Some [||] -> invalid_arg "Order.run_ranked: leaves must be non-empty"
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
  (* Grid cell for a population of [m] subtrees: the instance's L1
     diameter over [sqrt m].  On a square die the L1 diameter is twice
     the side, so a freshly sized cell holds about 4 entries of a uniform
     population, and about 1 once the population has shrunk to the
     quarter at which [recell] sizes it afresh.  The floor must be
     relative to the extent, not the absolute 1.0 layout unit it used to
     be: a unit-square (or any sub-unit) instance would collapse into a
     single grid cell and degrade every k-NN query to a full scan, making
     ranking cost — and the visit counters — depend on coordinate scale.  [Eps.tol]
     absolutely and [Eps.tol * d] relatively keep the cell positive for
     degenerate (single-point) instances without distorting real ones. *)
  let cell_for m =
    let d = Octagon.diameter (Clocktree.Instance.bbox inst) in
    Float.max
      (Float.max Geometry.Eps.tol (Geometry.Eps.tol *. d))
      (d /. Float.sqrt (float_of_int (Int.max 1 m)))
  in
  (* Arena: every structure the ranking loop reads per candidate is a
     flat array indexed by subtree id.  Ids are dense — [n] leaves plus
     at most [n - 1] merges — so [2 n] slots cover the whole run and
     nothing on the probe path chases a hashtable or boxes a float.
     [slab] mirrors each alive subtree's region bounds (Octslab.dist is
     bit-identical to Octagon.dist); [cx]/[cy] its center; [rad] the L1
     radius of its region about that center; [hull_hi] the upper end of
     its delay hull (the only part delay biasing reads).
     Slots of merged-away ids go stale rather than being cleared — the
     loop only ever indexes ids of currently alive subtrees. *)
  let cap_ids = Int.max 2 (2 * n) in
  let node : Subtree.t option array = Array.make cap_ids None in
  (* Each round's proposals, by proposer id: partner ([-1] for none) and
     biased cost.  [used] marks the ids a round's selection takes; they
     are merged away and never reissued, so it is never reset. *)
  let proposal_partner = Array.make cap_ids (-1) in
  let proposal_cost = Float.Array.make cap_ids Float.nan in
  let used = Bytes.make cap_ids '\000' in
  let n_active = ref 0 in
  let slab = Octslab.create cap_ids in
  let cx = Float.Array.make cap_ids Float.nan in
  let cy = Float.Array.make cap_ids Float.nan in
  let rad = Float.Array.make cap_ids Float.nan in
  let hull_hi = Float.Array.make cap_ids Float.nan in
  (* The grid over alive subtree centers and the population its cell was
     sized for; see [recell]. *)
  let grid : unit Grid_index.t ref = ref (Grid_index.create ~cell:(cell_for n)) in
  let sized_for = ref n in
  let center_of id = Pt.make (Float.Array.get cx id) (Float.Array.get cy id) in
  let insert (s : Subtree.t) =
    let c = Octagon.center s.region in
    node.(s.id) <- Some s;
    incr n_active;
    Octslab.set slab s.id s.region;
    Float.Array.set cx s.id c.Pt.x;
    Float.Array.set cy s.id c.Pt.y;
    (* The farthest any point of the region lies from the center in L1:
       |dx| + |dy| = max |d(x+y)|, |d(x-y)|, bounded by the s/d extents.
       An empty region has no bounds, but Octslab.set rejected it. *)
    (match Octagon.bounds s.region with
     | Some b ->
       let cs = c.Pt.x +. c.Pt.y and cd = c.Pt.x -. c.Pt.y in
       Float.Array.set rad s.id
         (Float.max
            (Float.max (b.sh -. cs) (cs -. b.sl))
            (Float.max (b.dh -. cd) (cd -. b.dl)))
     | None -> ());
    if config.delay_order_weight <> 0. then
      Float.Array.set hull_hi s.id (Subtree.delay_hull s).hi;
    Grid_index.add !grid ~id:s.id c ()
  in
  let delete id =
    if node.(id) <> None then begin
      Grid_index.remove !grid ~id (center_of id);
      node.(id) <- None;
      decr n_active
    end
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
  (* Multi-merge halves the population every few rounds, so a cell sized
     for the leaves leaves late rounds scanning mostly empty rings.  Once
     the active count has fallen to a quarter of the population the cell
     was sized for, rebuild the grid with the cell for the active count.
     The k-NN answer is a function of the stored (id, center) set alone
     ({!Grid_index.knn_into} ranks by (distance, id)), so re-celling
     changes how much a query scans, never what it returns: merge order,
     trees and probe counts are those of a grid that never re-celled.
     The rule reads only the active count, on the calling domain between
     rounds, so it is the same for every jobs count. *)
  let recell count =
    if 4 * count <= !sized_for then begin
      let g = Grid_index.create ~cell:(cell_for count) in
      for id = 0 to !next_id - 1 do
        if node.(id) <> None then Grid_index.add g ~id (center_of id) ()
      done;
      grid := g;
      sized_for := count
    end
  in
  (* One probe: the cheapest merge partner of [s] among its [knn] grid
     candidates (grid ranking is by representative point, so probe
     several candidates and refine with the true merging cost), [-1] at
     [infinity] when the k-NN scan found no candidate.  [settle] asks the
     grid for a quarter of them first and widens only while the region
     bound [rmax] — the largest [rad] of the round's population — leaves
     an unseen candidate able to win, so the answer, and every [price]
     call, is the full-[knn] probe's.  Runs on worker domains during a
     parallel round: the arena, [grid] and [slab] are only read, and the
     (cost, lowest-id) argmin makes the winner independent of candidate
     evaluation order.  One probe = one coster session: the returned note
     carries whatever side results (e.g. freshly run trial merges) the
     cost function produced, to be absorbed on the main domain in
     snapshot order.  A k-NN answer comes back empty only when no other
     entry is eligible at all (the scan covers the whole occupied box
     unless it has found [k] entries), so an empty answer needs no
     fallback scan. *)
  let probe rmax (s : Subtree.t) =
    (* The instant lands in the emitting domain's own trace buffer. *)
    if tracing then
      Obs.Trace.instant trace ~cat:"dme.order"
        ~args:[ ("subtree", Obs.Json.Int s.id) ]
        "probe";
    Obs.Counter.incr c_probes;
    let cost, finish = coster.session () in
    let sid = s.id in
    let partner, bd, queries =
      settle !grid (Domain.DLS.get knn_key)
        ~skip:(fun id -> id = sid)
        (center_of sid) ~knn ~rad:(Float.Array.get rad sid) ~rmax
        ~dist:(fun tid -> Octslab.dist slab sid tid)
        ~price:(fun tid dist -> cost ~dist s (subtree tid))
    in
    (partner, bd, queries, finish ())
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
  let rounds = ref 0 in
  let probed = ref 0 in
  let queried = ref 0 in
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
      (* Rank in three strictly separated phases so the routed tree is
         bit-identical for any jobs count: (1) probe every active subtree
         against the frozen grid state — in parallel chunks when a pool
         is given; (2) absorb the probes' side results on this domain in
         snapshot (ascending-id) order; (3) rank the proposals and select
         a disjoint pair prefix, compute the selected merges — in parallel
         when a pool is given; [merger.compute] must be pure — and
         install them serially in selection order. *)
      let round_body () =
        recell count;
        let snap = snapshot () in
        let rmax =
          Array.fold_left
            (fun m (s : Subtree.t) -> Float.max m (Float.Array.get rad s.id))
            0. snap
        in
        let probe = probe rmax in
        let probes =
          let run_probes () =
            match pool with
            | Some pool ->
              Par.Pool.map_chunked pool ~sched ~label:"engine.rank" probe snap
            | None -> Array.map probe snap
          in
          if tracing then
            Obs.Trace.span trace ~cat:"dme.order"
              ~args:[ ("probes", Obs.Json.Int (Array.length snap)) ]
              "probe_phase" run_probes
          else run_probes ()
        in
        probed := !probed + Array.length snap;
        let round_queries = ref 0 in
        Array.iteri
          (fun k (s : Subtree.t) ->
            let p, d, queries, note = probes.(k) in
            round_queries := !round_queries + queries;
            coster.absorb note;
            proposal_partner.(s.id) <- p;
            if p >= 0 then begin
              Option.iter (fun h -> Obs.Histogram.observe h d) h_cost;
              Float.Array.set proposal_cost s.id (biased s.id p d)
            end)
          snap;
        let limit =
          if config.multi_merge then
            Int.max 1
              (int_of_float (merge_fraction *. float_of_int count /. 2.))
          else 1
        in
        let ranked, picks =
          select_pairs
            ~ids:(Array.map (fun (s : Subtree.t) -> s.id) snap)
            ~partner:proposal_partner ~cost:proposal_cost ~used ~limit
        in
        Obs.Counter.add c_pairs ranked;
        (* Which pairs merge this round depends only on the proposals and
           the round-start population — never on any merge's result — so
           the (potentially parallel) merge computations can all run
           against the frozen round state, and installing them in
           selection order is bit-identical to a compute-one-install-one
           loop.  Ids are drawn in selection order to keep the id
           sequence independent of compute scheduling. *)
        let merged = ref 0 in
        let best_cost = ref Float.infinity in
        let commit_phase () =
          let selected =
            ref
              (Array.fold_left
                 (fun acc (c, i, j) ->
                   best_cost := Float.min !best_cost c;
                   incr merged;
                   (i, j, subtree i, subtree j, fresh_id ()) :: acc)
                 [] picks)
          in
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
              insert s)
            sels
        in
        if tracing then
          Obs.Trace.span trace ~cat:"dme.order"
            ~args:[ ("candidates", Obs.Json.Int ranked) ]
            "commit_phase" commit_phase
        else commit_phase ();
        queried := !queried + !round_queries;
        (Array.length snap, !round_queries, !merged, !best_cost)
      in
      let probes_run, queries_run, merges_done, best_cost =
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
             queries = queries_run;
             merges = merges_done;
             best_cost;
             wall_s = Float.max 0. (Obs.Timer.now () -. t0);
           });
      loop ()
    end
  in
  let root = loop () in
  (root, { rounds = !rounds; nn_probes = !probed; nn_queries = !queried })

let run inst config ~cost ~merge =
  run_ranked inst config ~coster:(of_cost cost) ~merger:(of_merge merge)
