module Octslab = Geometry.Octslab
module Grid_index = Geometry.Grid_index

type config = { multi_merge : bool; knn : int; delay_order_weight : float }


(* Fraction of the active subtrees a multi-merge round consumes. *)
let merge_fraction = 0.5

type merger = { compute : id:int -> int -> int -> unit; install : int -> unit }

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
   the bound is computed from (DESIGN.md section 6.3): 2^13 ulps of them,
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
let settle snap (buf : Grid_index.knn) ~skip xs ys i ~knn ~rad ~rmax ~dist ~price
    props id =
  let knn = Int.max 1 knn in
  let cells0 = buf.cells_visited and entries0 = buf.entries in
  let reach = rad +. rmax in
  let norm =
    Float.abs (Float.Array.get xs i) +. Float.abs (Float.Array.get ys i) +. reach
  in
  let cost = props.cost in
  Float.Array.set cost id Float.infinity;
  props.priced.(id) <- 0;
  let k = ref (Int.max 1 (knn / 4)) and from = ref 0 and queries = ref 0 in
  let bi = ref (-1) and settled = ref false in
  while not !settled do
    Grid_index.query snap buf ~skip xs ys i !k;
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

type selection = {
  left : int array;
  right : int array;
  costs : floatarray;
  mutable len : int;
}

(* One round's selection.  Probes propose at most one partner each, so
   an unordered pair is proposed at most twice — once by each endpoint,
   possibly at different costs, since a cost need not be symmetric —
   and is ranked once, from its lower id, at the smaller cost under
   [Float.compare] (the higher id's on a tie).  Ranked pairs sort by
   (cost, i, j), a total order on distinct pairs, and a greedy pass takes
   the first [limit] that touch no id taken before them.  Flat arrays and
   one index sort: no list, no hashtable, nothing deep enough to
   recurse. *)
let select_pairs ~ids ~count ~partner ~cost ~used ~limit sel =
  let sc = Domain.DLS.get pair_key in
  if Array.length sc.pi < count then begin
    sc.pi <- Array.make count 0;
    sc.pj <- Array.make count 0;
    sc.pc <- Float.Array.create count;
    sc.order <- Array.make count 0;
    sc.tmp <- Array.make count 0
  end;
  let pi = sc.pi and pj = sc.pj and pc = sc.pc in
  let ranked = ref 0 in
  for k = 0 to count - 1 do
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
  let taken = ref 0 and k = ref 0 in
  while !taken < limit && !k < ranked do
    let o = order.(!k) in
    let i = pi.(o) and j = pj.(o) in
    if Bytes.get used i = '\000' && Bytes.get used j = '\000' then begin
      Bytes.set used i '\001';
      Bytes.set used j '\001';
      sel.left.(!taken) <- i;
      sel.right.(!taken) <- j;
      Float.Array.set sel.costs !taken (Float.Array.get pc o);
      incr taken
    end;
    incr k
  done;
  sel.len <- !taken;
  ranked

(* Each domain's k-NN answer buffer.  A probe fills it and reads it back
   before returning, and nothing a probe calls probes again, so one
   buffer per domain is never shared. *)
let knn_key = Domain.DLS.new_key Grid_index.knn_buffer

let run_ranked ?pool ?(run = Obs.Run.null) ?on_round (c : Subtree.cols) config
    ~diameter ~cost ~merger =
  let { Obs.Run.trace; sched; _ } = run in
  let n = Subtree.leaves c.plan in
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
     without distorting real ones. *)
  let cell_floor = Float.max Geometry.Eps.tol (Geometry.Eps.tol *. diameter) in
  let cell_for m =
    Float.max cell_floor (diameter /. Float.sqrt (float_of_int (Int.max 1 m)))
  in
  (* Arena: every structure the ranking loop reads per candidate is a
     flat array indexed by subtree id — the run's columns [c] and the
     ranking's own below.  Ids are dense — [n] leaves plus [n - 1]
     merges — so nothing on the probe path chases a hashtable or boxes
     a float.  [c.regions] holds each subtree's region bounds
     (Octslab.dist is Octagon.dist's kernel); [cx], [cy] its center;
     [rad] the L1 radius of its region about that center; [hull_hi] the
     upper end of its delay hull (the only part delay biasing reads).
     Slots of merged-away ids go stale rather than being cleared — the
     loop only ever indexes ids of currently alive subtrees. *)
  let cap_ids = Int.max 2 (2 * n) in
  (* Each round's proposals, by proposer id: partner ([-1] for none),
     cost (biased once the probe phase is over), the probe's k-NN
     queries, cells visited and entries scanned, and the candidates it
     priced.
     [used] marks the ids a round's selection takes; they are merged
     away and never reissued, so it is never reset, and the ids it
     leaves unmarked are the alive ones. *)
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
  let slab = c.regions in
  let cx = Float.Array.make cap_ids Float.nan in
  let cy = Float.Array.make cap_ids Float.nan in
  let rad = Float.Array.make cap_ids Float.nan in
  let hull_hi = Float.Array.make cap_ids Float.nan in
  let insert id =
    Octslab.center slab id cx cy;
    Float.Array.set rad id (Octslab.radius slab id cx cy);
    if config.delay_order_weight <> 0. then
      Float.Array.set hull_hi id (Subtree.hull_hi c id)
  in
  for id = 0 to n - 1 do
    insert id
  done;
  (* A round's selected pairs, at most half its subtrees. *)
  let sel =
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
  let ways = match pool with Some p -> 4 * Par.Pool.jobs p | None -> 1 in
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
  (* Probe the round's subtrees [ids.(lo .. hi)]: each one's cheapest
     merge partner among its [knn] grid candidates (grid ranking is by
     representative point, so probe several candidates and refine with
     the true merging cost), written to [props] — [-1] at [infinity]
     when the k-NN scan found no candidate.  [settle] asks the snapshot
     for a quarter of them first and widens only while the region bound
     [rmax] — the largest [rad] of the round's population — leaves an
     unseen candidate able to win, so the answer, and every [price]
     call, is the full-[knn] probe's.  Runs on worker domains during a
     parallel round: the columns, [snap] and [slab] are only read, each
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
    let price tid d = cost ~dist:d !self tid in
    for k = lo to hi do
      let sid = ids.(k) in
      self := sid;
      (* The instant lands in the emitting domain's own trace buffer. *)
      if tracing then
        Obs.Trace.instant trace ~cat:"dme.order"
          ~args:[ ("subtree", Obs.Json.Int sid) ]
          "probe";
      settle snap buf ~skip:sid cx cy sid ~knn ~rad:(Float.Array.get rad sid) ~rmax
        ~dist ~price props sid
    done
  in
  (* Run the selected merges [lo .. hi], whose ids follow [first]. *)
  let compute_range first lo hi =
    for k = lo to hi do
      merger.compute ~id:(first + k) sel.left.(k) sel.right.(k)
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
  (* [ids.(0 .. count-1)] is the round's active population in
     ascending-id order: the leaves' dense ids to start, then each
     round's survivors followed by its merges, whose fresh ids exceed
     every earlier one.  The next round's population is written to
     [spare], and the two buffers swap. *)
  let rec loop ids spare count =
    if count > 1 then begin
      incr rounds;
      (* Wall time is read only when a round observer is installed, so
         the untraced run does not even touch the clock per round. *)
      let t0 = if on_round <> None then Obs.Timer.now () else 0. in
      (* Rank in two strictly separated phases so the routed tree is
         bit-identical for any jobs count: (1) pack the round's centers
         and probe every active subtree against that frozen snapshot — in
         parallel chunks when a pool is given; (2) sum the probes'
         counts on this domain, rank the proposals and select a disjoint
         pair prefix, reserve the selected merges' ids and window space
         in selection order, compute them — in parallel when a pool is
         given: each writes only its own id's slots — and install them
         serially in selection order. *)
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
        let run_probes () = pooled "engine.rank" count (probe_range ids rmax) in
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
        let ranked =
          select_pairs ~ids ~count ~partner:props.partner ~cost:props.cost ~used ~limit
            sel
        in
        (* Which pairs merge this round depends only on the proposals and
           the round-start population — never on any merge's result — so
           the (potentially parallel) merge computations can all run
           against the frozen round state, and installing them in
           selection order is bit-identical to a compute-one-install-one
           loop.  Ids and window space are reserved in selection order to
           keep the id sequence independent of compute scheduling. *)
        let best_cost = ref Float.infinity in
        let commit_phase () =
          for k = 0 to sel.len - 1 do
            best_cost := Float.min !best_cost (Float.Array.get sel.costs k)
          done;
          (* Degenerate safeguard: grid candidates always yield at least one
             pair when two or more subtrees are active.  Should that ever
             fail, merge the two lowest-id survivors directly rather than
             spinning forever. *)
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
          if merged > 1 then pooled "engine.commit" merged (compute_range first)
          else compute_range first 0 0;
          (* The next round's population: this round's survivors, then the
             merges in selection order — ascending, as fresh ids are. *)
          let at = ref 0 in
          for k = 0 to count - 1 do
            let id = ids.(k) in
            if Bytes.get used id = '\000' then begin
              spare.(!at) <- id;
              incr at
            end
          done;
          for k = 0 to merged - 1 do
            merger.install (first + k);
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
             merges = count - next;
             best_cost;
             wall_s = Float.max 0. (Obs.Timer.now () -. t0);
           });
      loop spare ids next
    end
  in
  loop (Array.init n Fun.id) (Array.make n 0) n;
  {
    rounds = !rounds;
    nn_probes = !probed;
    nn_queries = !queried;
    nn_cells = !cells;
    nn_entries = !entries;
    nn_priced = !priced;
  }
