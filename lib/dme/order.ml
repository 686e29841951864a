module Octagon = Geometry.Octagon
module Octslab = Geometry.Octslab
module Grid_index = Geometry.Grid_index
module Pt = Geometry.Pt

type config = { multi_merge : bool; knn : int; delay_order_weight : float }

let default = { multi_merge = true; knn = 16; delay_order_weight = 0. }

(* Fraction of the active subtrees a multi-merge round consumes. *)
let merge_fraction = 0.5

type 'merge merger = {
  compute : id:int -> Subtree.t -> Subtree.t -> 'merge;
  install : 'merge -> Subtree.t;
}

type stats = {
  rounds : int;
  nn_probes : int;
  nn_queries : int;
  nn_cells : int;
  nn_entries : int;
  nn_priced : int;
}

type round_info = {
  round : int;
  active : int;
  probes : int;
  queries : int;
  priced : int;
  merges : int;
  best_cost : float;
  wall_s : float;
}

type proposals = {
  partner : int array;
  cost : floatarray;
  queries : int array;
  cells : int array;
  entries : int array;
  priced : int array;
}

(* The (cost, lowest id) argmin over candidates [ids.(from .. len-1)],
   resumed from the running best — index [bi] into [ids], cost
   [best.(slot)] — over [ids.(0 .. from-1)], and pricing only those that
   can still win, each counted in [priced.(slot)].  Returns the new best
   index and leaves its cost in [best.(slot)], so the running argmin
   never boxes.  Every cost is [>= dist] (the [cost] contract of
   [run_ranked]), so a candidate whose region distance already exceeds
   the best cost — or ties it with a higher id — cannot take the argmin
   whatever it costs, and its price is never asked for.  A NaN distance
   proves nothing, so that candidate is priced.  The winner is the
   exhaustive argmin's, for any candidate order. *)
let scan ids ~from len bi best priced slot ~dist ~price =
  let bi = ref bi in
  for i = from to len - 1 do
    let tid = ids.(i) in
    let d = dist tid in
    let bd = Float.Array.get best slot in
    if !bi < 0 || not (d > bd || (d = bd && tid > ids.(!bi))) then begin
      let c = price tid d in
      priced.(slot) <- priced.(slot) + 1;
      if Float.is_nan c then invalid_arg "Order: a merge cost is NaN";
      if !bi < 0 || c < bd || (c = bd && tid < ids.(!bi)) then begin
        bi := i;
        Float.Array.set best slot c
      end
    end
  done;
  !bi

let cheapest ids len ~dist ~price =
  let best = Float.Array.make 1 Float.infinity in
  let i = scan ids ~from:0 len (-1) best [| 0 |] 0 ~dist ~price in
  (i, Float.Array.get best 0)

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
   which [scan] would skip, by the same bound.  The running best cost
   lives in [props.cost.(id)] and the priced count in
   [props.priced.(id)] from the start; the probe's grid work is the
   difference of the buffer's running totals across it. *)
let settle snap (buf : Grid_index.knn) ~skip (q : Pt.t) ~knn ~rad ~rmax ~dist
    ~price props id =
  let knn = Int.max 1 knn in
  let cells0 = buf.cells_visited and entries0 = buf.entries in
  let reach = rad +. rmax in
  let norm = Float.abs q.x +. Float.abs q.y +. reach in
  let cost = props.cost in
  Float.Array.set cost id Float.infinity;
  props.priced.(id) <- 0;
  let k = ref (Int.max 1 (knn / 4)) and from = ref 0 and queries = ref 0 in
  let bi = ref (-1) and settled = ref false in
  while not !settled do
    Grid_index.query snap buf ~skip q !k;
    incr queries;
    bi := scan buf.kids ~from:!from buf.klen !bi cost props.priced id ~dist ~price;
    if
      !k >= knn || buf.exhaustive
      || buf.kth -. reach -. (settle_tol *. (buf.kth +. norm))
         > Float.Array.get cost id
    then settled := true
    else begin
      from := buf.klen;
      k := Int.min knn (2 * !k)
    end
  done;
  props.partner.(id) <- (if !bi < 0 then -1 else buf.kids.(!bi));
  props.queries.(id) <- !queries;
  props.cells.(id) <- buf.cells_visited - cells0;
  props.entries.(id) <- buf.entries - entries0

(* [select_pairs]' scratch: ranked pairs [(pc, pi, pj)] and the index
   permutation [order] that [tmp] helps merge-sort.  One per domain,
   grown to the largest round it has seen, so a round allocates only its
   result. *)
type pair_scratch = {
  mutable pi : int array;
  mutable pj : int array;
  mutable pc : floatarray;
  mutable order : int array;
  mutable tmp : int array;
}

let pair_key =
  Domain.DLS.new_key (fun () ->
      { pi = [||]; pj = [||]; pc = Float.Array.create 0; order = [||]; tmp = [||] })

(* Does ranked pair [a] come before [b] in (cost, i, j) order? *)
let[@inline] before pc pi pj a b =
  match
    Float.compare (Float.Array.unsafe_get pc a) (Float.Array.unsafe_get pc b)
  with
  | 0 ->
    let ia = Array.unsafe_get pi a and ib = Array.unsafe_get pi b in
    ia < ib || (ia = ib && Array.unsafe_get pj a < Array.unsafe_get pj b)
  | c -> c < 0

(* Bottom-up merge sort of the first [n] entries of [sc.order] by
   [before], ping-ponging with [sc.tmp]; returns the array holding the
   sorted permutation.  Comparisons are inline, with no closure. *)
let sort_pairs sc n =
  let pc = sc.pc and pi = sc.pi and pj = sc.pj in
  let src = ref sc.order and dst = ref sc.tmp and width = ref 1 in
  while !width < n do
    let a = !src and b = !dst in
    let lo = ref 0 in
    while !lo < n do
      let mid = Int.min n (!lo + !width) and hi = Int.min n (!lo + (2 * !width)) in
      let i = ref !lo and j = ref mid in
      for k = !lo to hi - 1 do
        if !i < mid && (!j >= hi || not (before pc pi pj a.(!j) a.(!i))) then begin
          b.(k) <- a.(!i);
          incr i
        end
        else begin
          b.(k) <- a.(!j);
          incr j
        end
      done;
      lo := hi
    done;
    src := b;
    dst := a;
    width := 2 * !width
  done;
  !src

(* One round's selection.  Probes propose at most one partner each, so
   an unordered pair is proposed at most twice — once by each endpoint,
   possibly at different costs, since a cost need not be symmetric —
   and is ranked once, from its lower id, at the smaller cost under
   [Float.compare] (the higher id's on a tie).  Ranked pairs sort by
   (cost, i, j), a total order on distinct pairs, and a greedy pass takes
   the first [limit] that touch no id taken before them.  Flat arrays and
   one index sort: no list but the result's, no hashtable, nothing deep
   enough to recurse. *)
let select_pairs ~ids ~partner ~cost ~used ~limit =
  let m = Array.length ids in
  let sc = Domain.DLS.get pair_key in
  if Array.length sc.pi < m then begin
    sc.pi <- Array.make m 0;
    sc.pj <- Array.make m 0;
    sc.pc <- Float.Array.create m;
    sc.order <- Array.make m 0;
    sc.tmp <- Array.make m 0
  end;
  let pi = sc.pi and pj = sc.pj and pc = sc.pc in
  let ranked = ref 0 in
  for k = 0 to m - 1 do
    let i = ids.(k) in
    let j = partner.(i) in
    if j >= 0 then begin
      let mutual = partner.(j) = i in
      if i < j || not mutual then begin
        let c = Float.Array.get cost i in
        let c =
          if not mutual then c
          else
            let cj = Float.Array.get cost j in
            if Float.compare c cj < 0 then c else cj
        in
        let r = !ranked in
        pi.(r) <- Int.min i j;
        pj.(r) <- Int.max i j;
        Float.Array.set pc r c;
        ranked := r + 1
      end
    end
  done;
  let ranked = !ranked in
  for r = 0 to ranked - 1 do
    sc.order.(r) <- r
  done;
  let order = sort_pairs sc ranked in
  let selected = ref [] and taken = ref 0 and k = ref 0 in
  while !taken < limit && !k < ranked do
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
  (ranked, Array.of_list (List.rev !selected))

(* Each domain's k-NN answer buffer.  A probe fills it and reads it back
   before returning, and nothing a probe calls probes again, so one
   buffer per domain is never shared. *)
let knn_key = Domain.DLS.new_key Grid_index.knn_buffer

let run_ranked ?pool ?(run = Obs.Run.null) ?on_round ?leaves
    (inst : Clocktree.Instance.t) config ~cost ~(merger : 'merge merger) =
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
  (* The plan: each committed merge is recorded at install, in selection
     order, which is id order. *)
  let store = Subtree.store leaves in
  let tracing = Obs.Trace.enabled trace in
  (* Probe costs observed after each probe phase (main domain): the
     chosen best cost of every executed probe. *)
  let h_cost =
    if tracing then Some (Obs.Trace.histogram trace "order.probe_cost")
    else None
  in
  (* A non-positive knn would make every k-NN query return [] and stall
     the pairing loop below; clamp rather than crash. *)
  let knn = Int.max 1 config.knn in
  (* Grid cell for a round of [m] subtrees: the instance's L1 diameter
     over [sqrt m].  On a square die the L1 diameter is twice the side,
     so the cell holds about 4 entries of a uniform population.  The
     floor must be relative to the extent, not the absolute 1.0 layout
     unit it used to be: a unit-square (or any sub-unit) instance would
     collapse into a single grid cell and degrade every k-NN query to a
     full scan, making ranking cost — and the grid work in [stats] —
     depend on coordinate scale.  [Eps.tol] absolutely and [Eps.tol * d] relatively
     keep the cell positive for degenerate (single-point) instances
     without distorting real ones.  The diameter is an O(n) fold over the
     instance's sinks, so it is read once per run, not per round. *)
  let diameter = Clocktree.Instance.diameter inst in
  let cell_floor = Float.max Geometry.Eps.tol (Geometry.Eps.tol *. diameter) in
  let cell_for m =
    Float.max cell_floor (diameter /. Float.sqrt (float_of_int (Int.max 1 m)))
  in
  (* Arena: every structure the ranking loop reads per candidate is a
     flat array indexed by subtree id.  Ids are dense — [n] leaves plus
     at most [n - 1] merges — so [2 n] slots cover the whole run and
     nothing on the probe path chases a hashtable or boxes a float.
     [slab] mirrors each alive subtree's region bounds (Octslab.dist is
     Octagon.dist's kernel); [center] its center; [rad] the L1
     radius of its region about that center; [hull_hi] the upper end of
     its delay hull (the only part delay biasing reads).
     Slots of merged-away ids go stale rather than being cleared — the
     loop only ever indexes ids of currently alive subtrees. *)
  let cap_ids = Int.max 2 (2 * n) in
  let node : Subtree.t option array = Array.make cap_ids None in
  (* Each round's proposals, by proposer id: partner ([-1] for none),
     cost (biased once the probe phase is over), the probe's k-NN
     queries, cells visited and entries scanned, and the candidates it
     priced.
     [used] marks the ids a round's selection takes; they are merged
     away and never reissued, so it is never reset. *)
  let props =
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
  let slab = Octslab.create cap_ids in
  let center = Array.make cap_ids Pt.zero in
  let rad = Float.Array.make cap_ids Float.nan in
  let hull_hi = Float.Array.make cap_ids Float.nan in
  let insert (s : Subtree.t) =
    let c = Octagon.center s.region in
    node.(s.id) <- Some s;
    Octslab.set slab s.id s.region;
    center.(s.id) <- c;
    Float.Array.set rad s.id (Octagon.radius s.region c);
    if config.delay_order_weight <> 0. then
      Float.Array.set hull_hi s.id (Subtree.delay_hull s).hi
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
  (* The round's k-NN snapshot and the positional center columns it is
     packed from; no round has more than [n] subtrees. *)
  let snap = Grid_index.snapshot () in
  let xs = Float.Array.create n and ys = Float.Array.create n in
  (* Probe the round's subtrees [ids.(lo .. hi)]: each one's cheapest
     merge partner among its [knn] grid candidates (grid ranking is by
     representative point, so probe several candidates and refine with
     the true merging cost), written to [props] — [-1] at [infinity]
     when the k-NN scan found no candidate.  [settle] asks the snapshot
     for a quarter of them first and widens only while the region bound
     [rmax] — the largest [rad] of the round's population — leaves an
     unseen candidate able to win, so the answer, and every [price]
     call, is the full-[knn] probe's.  Runs on worker domains during a
     parallel round: the arena, [snap] and [slab] are only read, each
     probe writes only its own [props] slots, and the (cost, lowest-id)
     argmin makes the winner independent of candidate evaluation order.
     The range shares one pair of [dist]/[price] closures over the probed
     id in [self]; the k-NN scan skips the probed id itself: a probe
     allocates no closure and no result.  A k-NN answer
     comes back empty only when no other entry is eligible at all (the
     scan covers the whole window unless it has found [k] entries), so
     an empty answer needs no fallback scan. *)
  let probe_range ids rmax lo hi =
    let buf = Domain.DLS.get knn_key in
    let self = ref (-1) in
    let dist tid = Octslab.dist slab !self tid in
    let price tid d = cost ~dist:d (subtree !self) (subtree tid) in
    for k = lo to hi do
      let sid = ids.(k) in
      self := sid;
      (* The instant lands in the emitting domain's own trace buffer. *)
      if tracing then
        Obs.Trace.instant trace ~cat:"dme.order"
          ~args:[ ("subtree", Obs.Json.Int sid) ]
          "probe";
      settle snap buf ~skip:sid center.(sid) ~knn ~rad:(Float.Array.get rad sid)
        ~rmax ~dist ~price props sid
    done
  in
  (* Deep subtrees have small delay targets; merging shallow pairs first
     (Chaturvedi-Hu) keeps depths homogeneous and avoids late merges that
     must snake to match a buried group's delay.  [hull_hi] caches each
     node's [Subtree.delay_hull] high end from insertion. *)
  let weight = config.delay_order_weight in
  let rounds = ref 0 in
  let probed = ref 0 in
  let queried = ref 0 in
  let cells = ref 0 and entries = ref 0 and priced = ref 0 in
  (* [ids] is the round's active population in ascending-id order: the
     leaves' dense ids to start, then each round's survivors followed by
     its merges, whose fresh ids exceed every earlier one. *)
  let rec loop ids =
    let count = Array.length ids in
    if count = 1 then subtree ids.(0)
    else begin
      incr rounds;
      (* Wall time is read only when a round observer is installed, so
         the untraced run does not even touch the clock per round. *)
      let t0 = if on_round <> None then Obs.Timer.now () else 0. in
      (* Rank in two strictly separated phases so the routed tree is
         bit-identical for any jobs count: (1) pack the round's centers
         and probe every active subtree against that frozen snapshot — in
         parallel chunks when a pool is given; (2) sum the probes'
         counts on this domain, rank the proposals and select a disjoint
         pair prefix, compute the selected merges — in parallel when a
         pool is given; [merger.compute] must be pure — and install them
         serially in selection order. *)
      let round_body () =
        let rmax = ref 0. in
        for k = 0 to count - 1 do
          let id = ids.(k) in
          let c = center.(id) in
          Float.Array.set xs k c.Pt.x;
          Float.Array.set ys k c.Pt.y;
          rmax := Float.max !rmax (Float.Array.get rad id)
        done;
        let rmax = !rmax in
        Grid_index.pack snap ~cell:(cell_for count) ids xs ys count;
        let run_probes () =
          match pool with
          | Some pool ->
            (* Enough chunks to balance [4 * jobs] ways, as
               [Par.Pool.map_chunked] would cut the probes themselves. *)
            let ways = 4 * Par.Pool.jobs pool in
            let size = (count + ways - 1) / ways in
            let chunks = Array.init ((count + size - 1) / size) Fun.id in
            ignore
              (Par.Pool.map_chunked pool ~sched ~label:"engine.rank" ~chunk:1
                 (fun c ->
                   probe_range ids rmax (c * size)
                     (Int.min count ((c + 1) * size) - 1))
                 chunks)
          | None -> probe_range ids rmax 0 (count - 1)
        in
        if tracing then
          Obs.Trace.span trace ~cat:"dme.order"
            ~args:[ ("probes", Obs.Json.Int count) ]
            "probe_phase" run_probes
        else run_probes ();
        probed := !probed + count;
        let round_queries = ref 0 and round_priced = ref 0 in
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
            Int.max 1
              (int_of_float (merge_fraction *. float_of_int count /. 2.))
          else 1
        in
        let ranked, picks =
          select_pairs ~ids ~partner:props.partner ~cost:props.cost ~used ~limit
        in
        (* Which pairs merge this round depends only on the proposals and
           the round-start population — never on any merge's result — so
           the (potentially parallel) merge computations can all run
           against the frozen round state, and installing them in
           selection order is bit-identical to a compute-one-install-one
           loop.  Ids are drawn in selection order to keep the id
           sequence independent of compute scheduling. *)
        let best_cost = ref Float.infinity in
        let commit_phase () =
          let sels =
            Array.map
              (fun (c, i, j) ->
                best_cost := Float.min !best_cost c;
                (i, j, fresh_id ()))
              picks
          in
          (* Degenerate safeguard: grid candidates always yield at least one
             pair when two or more subtrees are active.  Should that ever
             fail, merge the two lowest-id survivors directly rather than
             spinning forever. *)
          let sels =
            if Array.length sels > 0 then sels
            else [| (ids.(0), ids.(1), fresh_id ()) |]
          in
          let computed =
            let compute (i, j, id) = merger.compute ~id (subtree i) (subtree j) in
            match pool with
            | Some pool when Array.length sels > 1 ->
              Par.Pool.map_chunked pool ~sched ~label:"engine.commit" compute
                sels
            | _ -> Array.map compute sels
          in
          (* The next round's population: this round's survivors, then the
             merges in selection order — ascending, as fresh ids are. *)
          let merged = Array.length sels in
          let next = Array.make (count - merged) 0 in
          Array.iteri
            (fun k (i, j, _) ->
              let s = merger.install computed.(k) in
              Subtree.record store s ~left:i ~right:j;
              node.(i) <- None;
              node.(j) <- None;
              insert s;
              next.(count - (2 * merged) + k) <- s.id)
            sels;
          let at = ref 0 in
          Array.iter
            (fun id ->
              if node.(id) <> None then begin
                next.(!at) <- id;
                incr at
              end)
            ids;
          next
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
        (next, !round_queries, !round_priced, !best_cost)
      in
      let next, queries_run, priced_run, best_cost =
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
             probes = count;
             queries = queries_run;
             priced = priced_run;
             merges = count - Array.length next;
             best_cost;
             wall_s = Float.max 0. (Obs.Timer.now () -. t0);
           });
      loop next
    end
  in
  let root = loop (Array.init n Fun.id) in
  ( Subtree.stored store root,
    {
      rounds = !rounds;
      nn_probes = !probed;
      nn_queries = !queried;
      nn_cells = !cells;
      nn_entries = !entries;
      nn_priced = !priced;
    } )
