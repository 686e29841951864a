module Octagon = Geometry.Octagon
module Octslab = Geometry.Octslab
module Grid_index = Geometry.Grid_index
module Pt = Geometry.Pt

type config = {
  multi_merge : bool;
  merge_fraction : float;
  knn : int;
  delay_order_weight : float;
}

let default =
  {
    multi_merge = true;
    merge_fraction = 0.5;
    knn = 16;
    delay_order_weight = 0.;
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

type stats = { rounds : int; nn_probes : int }

type round_info = {
  round : int;
  active : int;
  probes : int;
  merges : int;
  best_cost : float;
  wall_s : float;
}

let c_probes = Obs.Counter.make "dme.order.nn_probes"
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
  (* Grid cell for a population of [m] subtrees: about one per cell over
     the instance's extent.  The floor must be relative to the extent,
     not the absolute 1.0 layout unit it used to be: a unit-square (or
     any sub-unit) instance would collapse into a single grid cell and
     degrade every k-NN query to a full scan, making ranking cost — and
     the visit counters — depend on coordinate scale.  [Eps.tol]
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
     [infinity] when the k-NN scan found no candidate.  Runs on worker
     domains during a parallel round: the arena, [grid] and [slab] are
     only read, and the (cost, lowest-id) argmin makes the winner
     independent of candidate evaluation order.  One probe = one coster
     session: the returned note carries whatever side results (e.g.
     freshly run trial merges) the cost function produced, to be
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
    Grid_index.knn_into !grid buf ~skip:(fun id -> id = sid) (center_of sid) knn;
    let bi = ref (-1) and bd = ref Float.infinity in
    for i = 0 to buf.klen - 1 do
      let tid = buf.kids.(i) in
      let d = cost ~dist:(Octslab.dist slab sid tid) s (subtree tid) in
      if !bi < 0 || not (!bd < d || (!bd = d && buf.kids.(!bi) < tid)) then begin
        bi := i;
        bd := d
      end
    done;
    let partner = if !bi < 0 then -1 else buf.kids.(!bi) in
    (partner, !bd, finish ())
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
         snapshot (ascending-id) order; (3) sort, dedupe and select a
         disjoint pair prefix, compute the selected merges — in parallel
         when a pool is given; [merger.compute] must be pure — and
         install them serially in selection order. *)
      let round_body () =
        recell count;
        let snap = snapshot () in
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
        let pairs = ref [] in
        Array.iteri
          (fun k (s : Subtree.t) ->
            let partner, d, note = probes.(k) in
            coster.absorb note;
            if partner >= 0 then begin
              Option.iter (fun h -> Obs.Histogram.observe h d) h_cost;
              let i = Int.min s.id partner and j = Int.max s.id partner in
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
              insert s)
            sels
        in
        if tracing then
          Obs.Trace.span trace ~cat:"dme.order"
            ~args:[ ("candidates", Obs.Json.Int (List.length pairs)) ]
            "commit_phase" commit_phase
        else commit_phase ();
        (Array.length snap, !merged, !best_cost)
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
             merges = merges_done;
             best_cost;
             wall_s = Float.max 0. (Obs.Timer.now () -. t0);
           });
      loop ()
    end
  in
  let root = loop () in
  (root, { rounds = !rounds; nn_probes = !probed })

let run inst config ~cost ~merge =
  run_ranked inst config ~coster:(of_cost cost) ~merger:(of_merge merge)
