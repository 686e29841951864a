type 'a entry = { pt : Pt.t; value : 'a }

(* Query instrumentation: queries = nearest/k_nearest/within calls,
   rings/cells/entries = work done by the ring scans those queries run. *)
let c_queries = Obs.Counter.make "geometry.grid.queries"
let c_rings = Obs.Counter.make "geometry.grid.rings_scanned"
let c_cells = Obs.Counter.make "geometry.grid.cells_visited"
let c_entries = Obs.Counter.make "geometry.grid.entries_scanned"

(* Each cell's bucket is a pair of parallel growable arrays scanned with
   a plain for-loop.  Entries iterate in insertion order (removal shifts,
   preserving it), which fixes distance-tie arrival order in
   [k_nearest_probe]. *)
type 'a bucket = {
  mutable ids : int array;
  mutable ents : 'a entry array;
  mutable blen : int;
}

let bucket_make id e =
  { ids = Array.make 4 id; ents = Array.make 4 e; blen = 1 }

(* Replace semantics on an existing id.  Buckets hold the handful of
   entries sharing one grid cell, so the linear scans here are short. *)
let bucket_add b id e =
  let rec find i = if i >= b.blen then -1 else if b.ids.(i) = id then i else find (i + 1) in
  match find 0 with
  | i when i >= 0 -> b.ents.(i) <- e
  | _ ->
    let cap = Array.length b.ids in
    if b.blen = cap then begin
      let ids = Array.make (2 * cap) id and ents = Array.make (2 * cap) e in
      Array.blit b.ids 0 ids 0 cap;
      Array.blit b.ents 0 ents 0 cap;
      b.ids <- ids;
      b.ents <- ents
    end;
    b.ids.(b.blen) <- id;
    b.ents.(b.blen) <- e;
    b.blen <- b.blen + 1

(* Returns whether [id] was present; keeps insertion order by shifting. *)
let bucket_remove b id =
  let rec find i = if i >= b.blen then -1 else if b.ids.(i) = id then i else find (i + 1) in
  match find 0 with
  | -1 -> false
  | i ->
    for j = i to b.blen - 2 do
      b.ids.(j) <- b.ids.(j + 1);
      b.ents.(j) <- b.ents.(j + 1)
    done;
    b.blen <- b.blen - 1;
    (* Drop the stale tail reference so removed values can be collected
       while the bucket lives on. *)
    if b.blen > 0 then b.ents.(b.blen) <- b.ents.(0);
    true

(* Dense store: cell (gx, gy) — absolute keys [floor (x / cell)] — lives
   at [cells.((gy - gy0) * w + (gx - gx0))], a row-major window that
   grows by doubling to cover every point added.  Unoccupied cells all
   share the index's [empty] sentinel (a bucket with [blen = 0] that is
   never written), so a cell costs one word until its first insert and
   drops back to the sentinel when its bucket empties.  [col_n]/[row_n]
   count occupied buckets per column/row of the window, and
   [min_gx .. max_gx] x [min_gy .. max_gy] is the exact occupied
   bounding box ([max < min] when nothing is stored): ring scans clip to
   it and skip empty rows and columns without touching a bucket. *)
type 'a t = {
  cell : float;
  empty : 'a bucket;
  mutable cells : 'a bucket array;
  mutable gx0 : int;
  mutable gy0 : int;
  mutable w : int;
  mutable h : int;
  mutable col_n : int array;
  mutable row_n : int array;
  mutable min_gx : int;
  mutable max_gx : int;
  mutable min_gy : int;
  mutable max_gy : int;
  mutable count : int;
}

let create ~cell =
  if not (Float.is_finite cell && cell > 0.) then
    invalid_arg "Grid_index.create: cell must be positive and finite";
  {
    cell;
    empty = { ids = [||]; ents = [||]; blen = 0 };
    cells = [||];
    gx0 = 0;
    gy0 = 0;
    w = 0;
    h = 0;
    col_n = [||];
    row_n = [||];
    min_gx = 0;
    max_gx = -1;
    min_gy = 0;
    max_gy = -1;
    count = 0;
  }

(* Cell keys stay far inside the int range so that key differences
   (ring radii, window spans) never overflow.  The negated test also
   rejects NaN and infinities. *)
let max_key = 0x1p52

let[@inline] key t v =
  let q = Float.floor (v /. t.cell) in
  if not (Float.abs q < max_key) then
    invalid_arg "Grid_index: point coordinates must be finite";
  int_of_float q

let cell_of t (p : Pt.t) = (key t p.x, key t p.y)

(* New [(origin, length)] of one window axis so that it covers key [g]:
   unchanged when it already does, otherwise at least doubled, growing
   toward [g]. *)
let extend o len g =
  if len = 0 then (g, 1)
  else if g < o then
    let len' = Int.max (2 * len) (o + len - g) in
    (o + len - len', len')
  else if g >= o + len then (o, Int.max (2 * len) (g - o + 1))
  else (o, len)

let grow t gx gy =
  let x0, w = extend t.gx0 t.w gx and y0, h = extend t.gy0 t.h gy in
  if w > Sys.max_array_length / h then
    invalid_arg "Grid_index.add: points span too many cells";
  let cells = Array.make (w * h) t.empty in
  let dx = t.gx0 - x0 and dy = t.gy0 - y0 in
  for row = 0 to t.h - 1 do
    Array.blit t.cells (row * t.w) cells (((row + dy) * w) + dx) t.w
  done;
  let col_n = Array.make w 0 and row_n = Array.make h 0 in
  (* The first insert grows from an empty window whose origin is
     meaningless, so there is nothing to copy. *)
  if t.w > 0 then begin
    Array.blit t.col_n 0 col_n dx t.w;
    Array.blit t.row_n 0 row_n dy t.h
  end;
  t.cells <- cells;
  t.col_n <- col_n;
  t.row_n <- row_n;
  t.gx0 <- x0;
  t.gy0 <- y0;
  t.w <- w;
  t.h <- h

(* A bucket appeared at (gx, gy): bump its column and row counts and
   widen the occupied box. *)
let occupy t gx gy =
  let c = gx - t.gx0 and r = gy - t.gy0 in
  t.col_n.(c) <- t.col_n.(c) + 1;
  t.row_n.(r) <- t.row_n.(r) + 1;
  if t.max_gx < t.min_gx then begin
    t.min_gx <- gx;
    t.max_gx <- gx;
    t.min_gy <- gy;
    t.max_gy <- gy
  end
  else begin
    t.min_gx <- Int.min t.min_gx gx;
    t.max_gx <- Int.max t.max_gx gx;
    t.min_gy <- Int.min t.min_gy gy;
    t.max_gy <- Int.max t.max_gy gy
  end

(* One axis lost a bucket at key [g]: [counts] is its per-key occupancy
   over a window starting at key [o], and [lo .. hi] its occupied range.
   Returns the exact new range, [hi < lo] once the axis is empty. *)
let shrink counts o g lo hi =
  let i = g - o in
  counts.(i) <- counts.(i) - 1;
  if counts.(i) > 0 then (lo, hi)
  else if g = lo then begin
    let g = ref g in
    while !g <= hi && counts.(!g - o) = 0 do incr g done;
    (!g, hi)
  end
  else if g = hi then begin
    (* [lo] is still occupied, so the walk stops there at the latest. *)
    let g = ref g in
    while counts.(!g - o) = 0 do decr g done;
    (lo, !g)
  end
  else (lo, hi)

let vacate t gx gy =
  let lo, hi = shrink t.col_n t.gx0 gx t.min_gx t.max_gx in
  t.min_gx <- lo;
  t.max_gx <- hi;
  let lo, hi = shrink t.row_n t.gy0 gy t.min_gy t.max_gy in
  t.min_gy <- lo;
  t.max_gy <- hi

let add t ~id (p : Pt.t) v =
  let gx = key t p.x and gy = key t p.y in
  if gx < t.gx0 || gx >= t.gx0 + t.w || gy < t.gy0 || gy >= t.gy0 + t.h then
    grow t gx gy;
  let i = ((gy - t.gy0) * t.w) + (gx - t.gx0) in
  let e = { pt = p; value = v } in
  let b = t.cells.(i) in
  if b.blen = 0 then begin
    t.cells.(i) <- bucket_make id e;
    occupy t gx gy
  end
  else bucket_add b id e;
  t.count <- t.count + 1

let remove t ~id (p : Pt.t) =
  let gx = key t p.x and gy = key t p.y in
  if gx >= t.gx0 && gx < t.gx0 + t.w && gy >= t.gy0 && gy < t.gy0 + t.h then begin
    let i = ((gy - t.gy0) * t.w) + (gx - t.gx0) in
    let b = t.cells.(i) in
    if bucket_remove b id then begin
      t.count <- t.count - 1;
      if b.blen = 0 then begin
        t.cells.(i) <- t.empty;
        vacate t gx gy
      end
    end
  end

let size t = t.count

(* Visit cells in expanding square rings around the query cell.  A hit at
   ring [r] guarantees no closer hit exists beyond ring
   [ceil (best / cell) + 1], which bounds the scan; the bounding box of
   occupied cells bounds it even when the caller's stop condition never
   fires (e.g. fewer entries than requested).  Returns the first ring NOT
   visited.

   Visit order is fixed: the query cell, then per ring the top and
   bottom edges column by column (top before bottom in each column),
   then the left and right edges row by row (left before right), and
   each bucket in insertion order.  Clipping to the occupied box and
   skipping empty rows and columns drops only cells without entries, so
   the order in which entries reach [f] is that of the plain ring walk.
   The visit counters are charged as if every cell of every ring were
   probed — ring 0 is one cell and ring [r >= 1] is [8 r] — and added
   once per query. *)
let fold_rings t (p : Pt.t) ~stop f =
  let cx = key t p.x and cy = key t p.y in
  (* max over occupied cells of max (|dx|, |dy|): each axis maximum is
     attained at an end of the occupied box. *)
  let max_ring =
    if t.max_gx < t.min_gx then 0
    else
      Int.max
        (Int.max (cx - t.min_gx) (t.max_gx - cx))
        (Int.max (cy - t.min_gy) (t.max_gy - cy))
  in
  let cells = t.cells and w = t.w and gx0 = t.gx0 and gy0 = t.gy0 in
  let col_n = t.col_n and row_n = t.row_n in
  let min_gx = t.min_gx and max_gx = t.max_gx in
  let min_gy = t.min_gy and max_gy = t.max_gy in
  let entries = ref 0 in
  (* Callers pass keys inside the occupied box, hence inside the window. *)
  let visit gx gy =
    let b = Array.unsafe_get cells (((gy - gy0) * w) + (gx - gx0)) in
    let n = b.blen in
    if n > 0 then begin
      entries := !entries + n;
      for i = 0 to n - 1 do
        f b.ids.(i) b.ents.(i)
      done
    end
  in
  let row_ok gy = gy >= min_gy && gy <= max_gy && row_n.(gy - gy0) > 0 in
  let col_ok gx = gx >= min_gx && gx <= max_gx && col_n.(gx - gx0) > 0 in
  let r = ref 0 in
  while !r <= max_ring && not (stop !r) do
    let r' = !r in
    if r' = 0 then (if row_ok cy && col_ok cx then visit cx cy)
    else begin
      let top = cy - r' and bot = cy + r' in
      let top_ok = row_ok top and bot_ok = row_ok bot in
      if top_ok || bot_ok then
        for gx = Int.max (cx - r') min_gx to Int.min (cx + r') max_gx do
          if top_ok then visit gx top;
          if bot_ok then visit gx bot
        done;
      let left = cx - r' and right = cx + r' in
      let left_ok = col_ok left and right_ok = col_ok right in
      if left_ok || right_ok then
        for gy = Int.max (cy - r' + 1) min_gy to Int.min (cy + r' - 1) max_gy do
          if left_ok then visit left gy;
          if right_ok then visit right gy
        done
    end;
    incr r
  done;
  let rings = !r in
  Obs.Counter.add c_rings rings;
  Obs.Counter.add c_cells (if rings = 0 then 0 else 1 + (4 * rings * (rings - 1)));
  Obs.Counter.add c_entries !entries;
  rings

let nearest t ?(skip = fun _ -> false) p =
  Obs.Counter.incr c_queries;
  if t.count = 0 then None
  else begin
    let best_id = ref (-1) in
    let best_pt = ref Pt.zero in
    let best_dist = ref Float.infinity in
    let best_value = ref None in
    let stop r =
      (* Cells at ring r are at least (r-1) * cell away in L-infinity,
         hence at least that far in L1. *)
      !best_id >= 0 && float_of_int (r - 1) *. t.cell > !best_dist
    in
    ignore
      (fold_rings t p ~stop (fun id e ->
           if not (skip id) then begin
             (* L1 distance written out: see [k_nearest_probe]. *)
             let q = e.pt in
             let d =
               Float.abs (p.Pt.x -. q.Pt.x) +. Float.abs (p.Pt.y -. q.Pt.y)
             in
             if d < !best_dist then begin
               best_dist := d;
               best_id := id;
               best_pt := e.pt;
               best_value := Some e.value
             end
           end));
    match !best_value with
    | None -> None
    | Some v -> Some (!best_id, !best_pt, v)
  end

(* Per-domain heap scratch for [k_nearest_probe].  The entry array stays
   per-call (it is polymorphic in the index's value type); the numeric
   arrays are monomorphic and reused across queries.  Safe because the
   scan's callbacks ([skip]) never re-enter the query path. *)
type knn_scratch = {
  mutable khd : float array;
  mutable khs : int array;
  mutable khid : int array;
}

let knn_scratch_key =
  Domain.DLS.new_key (fun () -> { khd = [||]; khs = [||]; khid = [||] })

let k_nearest_probe t ?(skip = fun _ -> false) p k =
  Obs.Counter.incr c_queries;
  if t.count = 0 || k <= 0 then ([], None)
  else begin
    (* Bounded selection: a binary max-heap keeps the k best candidates
       seen so far, ordered by (distance, arrival) — O(log k) per
       accepted entry instead of a full re-sort.  The heap root is the
       running k-th distance, which drives the ring-scan stop condition.
       Distance ties prefer the later-visited entry, reproducing the
       (reverse accumulation + stable sort) order of the original
       implementation bit for bit.  The heap lives in parallel scratch
       arrays (distance / arrival / id / entry) so that scanning an entry
       allocates nothing: thousands of entries are offered per query and
       only k survive. *)
    let cap = Int.min k t.count in
    let sc = Domain.DLS.get knn_scratch_key in
    if Array.length sc.khd < cap then begin
      sc.khd <- Array.make cap 0.;
      sc.khs <- Array.make cap 0;
      sc.khid <- Array.make cap 0
    end;
    let hd = sc.khd in
    let hs = sc.khs in
    let hid = sc.khid in
    (* Seeded with the first accepted entry; never read before. *)
    let hent = ref [||] in
    let size = ref 0 in
    let arrival = ref 0 in
    (* The heap order — "candidate 1 ranks strictly after candidate 2"
       iff [d1 > d2 || (d1 = d2 && s1 < s2)] — is written out at every
       comparison site: routing it through a shared helper would box two
       floats per call, and the scan compares thousands of times per
       query. *)
    let swap i j =
      let he = !hent in
      let d = hd.(i) and s = hs.(i) and id = hid.(i) and e = he.(i) in
      hd.(i) <- hd.(j);
      hs.(i) <- hs.(j);
      hid.(i) <- hid.(j);
      he.(i) <- he.(j);
      hd.(j) <- d;
      hs.(j) <- s;
      hid.(j) <- id;
      he.(j) <- e
    in
    let rec sift_up i =
      if i > 0 then begin
        let parent = (i - 1) / 2 in
        if
          hd.(i) > hd.(parent)
          || (hd.(i) = hd.(parent) && hs.(i) < hs.(parent))
        then begin
          swap i parent;
          sift_up parent
        end
      end
    in
    let rec sift_down i =
      let l = (2 * i) + 1 and r = (2 * i) + 2 in
      let m =
        if l < !size && (hd.(l) > hd.(i) || (hd.(l) = hd.(i) && hs.(l) < hs.(i)))
        then l
        else i
      in
      let m =
        if r < !size && (hd.(r) > hd.(m) || (hd.(r) = hd.(m) && hs.(r) < hs.(m)))
        then r
        else m
      in
      if m <> i then begin
        swap i m;
        sift_down m
      end
    in
    (* Distance is computed inside the offer so it never crosses a
       closure boundary boxed; the L1 distance is written out because a
       [Pt.dist] call is not inlined in -opaque (dev-profile) builds and
       would box its result for every scanned entry. *)
    let offer id e =
      let s = !arrival in
      incr arrival;
      let q = e.pt in
      let d = Float.abs (p.Pt.x -. q.Pt.x) +. Float.abs (p.Pt.y -. q.Pt.y) in
      if !size < cap then begin
        if Array.length !hent = 0 then hent := Array.make cap e;
        let i = !size in
        hd.(i) <- d;
        hs.(i) <- s;
        hid.(i) <- id;
        (!hent).(i) <- e;
        incr size;
        sift_up i
      end
      else if hd.(0) > d || (hd.(0) = d && hs.(0) < s) then begin
        hd.(0) <- d;
        hs.(0) <- s;
        hid.(0) <- id;
        (!hent).(0) <- e;
        sift_down 0
      end
    in
    let stop r = !size = k && float_of_int (r - 1) *. t.cell > hd.(0) in
    let ended =
      fold_rings t p ~stop (fun id e -> if not (skip id) then offer id e)
    in
    (* Exclusion bound.  When the heap filled ([size = k]) every eligible
       entry left out of the result was either rejected by the heap —
       only possible at distance >= the running k-th distance, which
       never grows — or never offered because the ring scan stopped, i.e.
       its ring satisfied (r - 1) * cell > kth.  Either way it lies at L1
       distance >= the final k-th distance from [p].  A heap that never
       filled accepted every eligible offer, and [fold_rings] visits the
       whole occupied bounding box unless [stop] fires, so the result is
       exhaustive and no entry was excluded at all. *)
    ignore ended;
    let radius = if !size = k then Some hd.(0) else None in
    (* Pop the heap worst-first, prepending: (distance, arrival) keys are
       unique (arrival stamps are), so the pop order is the unique total
       order by descending (d, earliest-arrival-on-ties) and prepending
       yields exactly the ascending-distance, later-arrival-on-ties list
       the previous sort produced — without materialising an intermediate
       list or a sort. *)
    let entries = ref [] in
    while !size > 0 do
      let he = !hent in
      entries := (hid.(0), he.(0).pt, he.(0).value) :: !entries;
      decr size;
      let last = !size in
      if last > 0 then begin
        hd.(0) <- hd.(last);
        hs.(0) <- hs.(last);
        hid.(0) <- hid.(last);
        he.(0) <- he.(last);
        sift_down 0
      end
    done;
    (!entries, radius)
  end

let k_nearest t ?skip p k = fst (k_nearest_probe t ?skip p k)

let iter_within t p r f =
  Obs.Counter.incr c_queries;
  (* A negative radius can match nothing and an empty index has nothing
     to scan; bail out before fold_rings walks rings for free. *)
  if t.count = 0 || r < 0. then ()
  else begin
    let stop ring = float_of_int (ring - 1) *. t.cell > r in
    ignore
      (fold_rings t p ~stop (fun id e ->
           (* L1 distance written out: see [k_nearest_probe]. *)
           let q = e.pt in
           if Float.abs (p.Pt.x -. q.Pt.x) +. Float.abs (p.Pt.y -. q.Pt.y) <= r
           then f id q e.value))
  end

let within t p r =
  let acc = ref [] in
  iter_within t p r (fun id pt v -> acc := (id, pt, v) :: !acc);
  !acc

let for_all_within t p r f =
  let ok = ref true in
  (* No early abort: the ball scan is already bounded by [r], and keeping
     a single full-scan code path means the visit counters (and thus the
     traced workload) do not depend on which entry fails first. *)
  iter_within t p r (fun id pt v -> if not (f id pt v) then ok := false);
  !ok
