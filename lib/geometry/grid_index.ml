(* Query instrumentation: queries = k-NN kernel calls (every list
   wrapper is one), rings/cells/entries = work done by their ring
   scans. *)
let c_queries = Obs.Counter.make "geometry.grid.queries"
let c_rings = Obs.Counter.make "geometry.grid.rings_scanned"
let c_cells = Obs.Counter.make "geometry.grid.cells_visited"
let c_entries = Obs.Counter.make "geometry.grid.entries_scanned"

(* Each cell's bucket is structure-of-arrays: ids and unboxed
   coordinates in parallel growable arrays, scanned with a plain
   for-loop, so a query reads the entries' points without touching a
   boxed record.  [vals] holds the values only for the list API.
   Removal shifts the tail down; entry order inside a bucket is never
   observable, since {!knn_into} ranks by (distance, id). *)
type 'a bucket = {
  mutable ids : int array;
  mutable xs : floatarray;
  mutable ys : floatarray;
  mutable vals : 'a array;
  mutable blen : int;
}

let bucket_make id (p : Pt.t) v =
  {
    ids = Array.make 4 id;
    xs = Float.Array.make 4 p.x;
    ys = Float.Array.make 4 p.y;
    vals = Array.make 4 v;
    blen = 1;
  }

let grow_floats a cap =
  let a' = Float.Array.create (2 * cap) in
  Float.Array.blit a 0 a' 0 cap;
  a'

(* Replace semantics on an existing id.  Buckets hold the handful of
   entries sharing one grid cell, so the linear scans here are short. *)
let bucket_add b id (p : Pt.t) v =
  let rec find i = if i >= b.blen then -1 else if b.ids.(i) = id then i else find (i + 1) in
  let i =
    match find 0 with
    | i when i >= 0 -> i
    | _ ->
      let cap = Array.length b.ids in
      if b.blen = cap then begin
        let ids = Array.make (2 * cap) id and vals = Array.make (2 * cap) v in
        Array.blit b.ids 0 ids 0 cap;
        Array.blit b.vals 0 vals 0 cap;
        b.ids <- ids;
        b.vals <- vals;
        b.xs <- grow_floats b.xs cap;
        b.ys <- grow_floats b.ys cap
      end;
      b.ids.(b.blen) <- id;
      b.blen <- b.blen + 1;
      b.blen - 1
  in
  Float.Array.set b.xs i p.x;
  Float.Array.set b.ys i p.y;
  b.vals.(i) <- v

(* Returns whether [id] was present; keeps insertion order by shifting. *)
let bucket_remove b id =
  let rec find i = if i >= b.blen then -1 else if b.ids.(i) = id then i else find (i + 1) in
  match find 0 with
  | -1 -> false
  | i ->
    let tail = b.blen - 1 - i in
    Array.blit b.ids (i + 1) b.ids i tail;
    Float.Array.blit b.xs (i + 1) b.xs i tail;
    Float.Array.blit b.ys (i + 1) b.ys i tail;
    Array.blit b.vals (i + 1) b.vals i tail;
    b.blen <- b.blen - 1;
    (* Drop the stale tail reference so removed values can be collected
       while the bucket lives on. *)
    if b.blen > 0 then b.vals.(b.blen) <- b.vals.(0);
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
    empty =
      {
        ids = [||];
        xs = Float.Array.create 0;
        ys = Float.Array.create 0;
        vals = [||];
        blen = 0;
      };
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
  let b = t.cells.(i) in
  if b.blen = 0 then begin
    t.cells.(i) <- bucket_make id p v;
    occupy t gx gy
  end
  else bucket_add b id p v;
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

(* The k-NN kernel's caller-owned buffer: the best [klen] candidates seen
   so far, kept sorted by ascending (distance, id) in four parallel
   arrays. *)
type knn = {
  mutable kids : int array;
  mutable kdist : floatarray;
  mutable kx : floatarray;
  mutable ky : floatarray;
  mutable klen : int;
  mutable kth : float;
  mutable exhaustive : bool;
}

let knn_buffer () =
  {
    kids = [||];
    kdist = Float.Array.create 0;
    kx = Float.Array.create 0;
    ky = Float.Array.create 0;
    klen = 0;
    kth = Float.infinity;
    exhaustive = true;
  }

let knn_reserve b cap =
  if Array.length b.kids < cap then begin
    b.kids <- Array.make cap 0;
    b.kdist <- Float.Array.create cap;
    b.kx <- Float.Array.create cap;
    b.ky <- Float.Array.create cap
  end

(* Offer entry [i] of bucket [bk] to a buffer holding at most [cap]
   candidates: it goes in front of the first buffered candidate ranking
   after it by (distance, id), and when the buffer is full it is kept
   iff it ranks before the last one.  Ids are unique, so no two
   candidates compare equal and the buffer is the [cap] smallest
   offers whatever order they arrive in.  The scan visits cells roughly
   outward, so the insertion point is usually at or near the end.  The
   L1 distance is written out here, next to its use: a [Pt.dist] call
   is not inlined in -opaque (dev-profile) builds and would box its
   result for every scanned entry. *)
let knn_offer b cap (q : Pt.t) (bk : _ bucket) i =
  let x = Float.Array.unsafe_get bk.xs i and y = Float.Array.unsafe_get bk.ys i in
  let d = Float.abs (q.x -. x) +. Float.abs (q.y -. y) in
  let id = Array.unsafe_get bk.ids i in
  let ids = b.kids and ds = b.kdist in
  let len = b.klen in
  (* "Candidate [k] ranks after the offer" is written out twice below
     rather than as a local function, which would allocate a closure
     per offer. *)
  if
    len < cap
    || (let dk = Float.Array.get ds (len - 1) in
        dk > d || (dk = d && ids.(len - 1) > id))
  then begin
    let xs = b.kx and ys = b.ky in
    (* Shift every candidate ranking after the offer one slot right (the
       last one falls off a full buffer), then write the offer into the
       gap. *)
    let j = ref (if len < cap then len else len - 1) in
    while
      !j > 0
      && (let dk = Float.Array.get ds (!j - 1) in
          dk > d || (dk = d && ids.(!j - 1) > id))
    do
      let k = !j in
      ids.(k) <- ids.(k - 1);
      Float.Array.set ds k (Float.Array.get ds (k - 1));
      Float.Array.set xs k (Float.Array.get xs (k - 1));
      Float.Array.set ys k (Float.Array.get ys (k - 1));
      j := k - 1
    done;
    ids.(!j) <- id;
    Float.Array.set ds !j d;
    Float.Array.set xs !j x;
    Float.Array.set ys !j y;
    if len < cap then b.klen <- len + 1
  end

(* Is row [gy] (column [gx]) inside the occupied box and non-empty?
   Keys in the box are inside the window. *)
let row_ok t gy = gy >= t.min_gy && gy <= t.max_gy && t.row_n.(gy - t.gy0) > 0
let col_ok t gx = gx >= t.min_gx && gx <= t.max_gx && t.col_n.(gx - t.gx0) > 0

(* Offer every eligible entry of cell (gx, gy), a key inside the
   occupied box, and return how many entries the cell holds. *)
let scan_cell t b cap q ~skip gx gy =
  let bk = Array.unsafe_get t.cells (((gy - t.gy0) * t.w) + (gx - t.gx0)) in
  for i = 0 to bk.blen - 1 do
    if not (skip (Array.unsafe_get bk.ids i)) then knn_offer b cap q bk i
  done;
  bk.blen

(* The ring scan visits cells in expanding square rings around the query
   cell.  A hit at ring [r] guarantees no closer hit exists beyond ring
   [ceil (best / cell) + 1], which bounds the scan; the bounding box of
   occupied cells bounds it even when the buffer never fills (fewer
   entries than requested).  Clipping to the occupied box and skipping
   empty rows and columns drops only cells without entries.  Visit order
   does not reach the answer (the buffer ranks by (distance, id)), so it
   is left unspecified.  The visit counters are charged as if every cell
   of every ring were probed — ring 0 is one cell and ring [r >= 1] is
   [8 r] — and added once per query.  The scan is written out here, with
   top-level helpers and no local closure, so a query allocates
   nothing. *)
let knn_into t b ~skip (q : Pt.t) k =
  Obs.Counter.incr c_queries;
  b.klen <- 0;
  b.kth <- Float.infinity;
  b.exhaustive <- true;
  if t.count > 0 && k > 0 then begin
    (* Bounded selection: the buffer's last candidate is the running
       k-th distance, which drives the ring-scan stop condition. *)
    let cap = Int.min k t.count in
    knn_reserve b cap;
    let cx = key t q.x and cy = key t q.y in
    (* max over occupied cells of max (|dx|, |dy|): each axis maximum is
       attained at an end of the occupied box. *)
    let max_ring =
      if t.max_gx < t.min_gx then 0
      else
        Int.max
          (Int.max (cx - t.min_gx) (t.max_gx - cx))
          (Int.max (cy - t.min_gy) (t.max_gy - cy))
    in
    let entries = ref 0 and r = ref 0 in
    while
      !r <= max_ring
      && not
           (b.klen = k
           && float_of_int (!r - 1) *. t.cell > Float.Array.get b.kdist (k - 1))
    do
      let r' = !r in
      if r' = 0 then begin
        if row_ok t cy && col_ok t cx then
          entries := !entries + scan_cell t b cap q ~skip cx cy
      end
      else begin
        let top = cy - r' and bot = cy + r' in
        let top_ok = row_ok t top and bot_ok = row_ok t bot in
        if top_ok || bot_ok then
          for gx = Int.max (cx - r') t.min_gx to Int.min (cx + r') t.max_gx do
            if top_ok then
              entries := !entries + scan_cell t b cap q ~skip gx top;
            if bot_ok then
              entries := !entries + scan_cell t b cap q ~skip gx bot
          done;
        let left = cx - r' and right = cx + r' in
        let left_ok = col_ok t left and right_ok = col_ok t right in
        if left_ok || right_ok then
          for gy = Int.max (cy - r' + 1) t.min_gy
                   to Int.min (cy + r' - 1) t.max_gy do
            if left_ok then
              entries := !entries + scan_cell t b cap q ~skip left gy;
            if right_ok then
              entries := !entries + scan_cell t b cap q ~skip right gy
          done
      end;
      incr r
    done;
    let rings = !r in
    Obs.Counter.add c_rings rings;
    Obs.Counter.add c_cells
      (if rings = 0 then 0 else 1 + (4 * rings * (rings - 1)));
    Obs.Counter.add c_entries !entries;
    (* Exclusion bound.  When the buffer filled ([klen = k]) every
       eligible entry left out of the result was either rejected or
       pushed out — only possible at distance >= the running k-th
       distance, which never grows — or never offered because the ring
       scan stopped, i.e. its ring satisfied (r - 1) * cell > kth.
       Either way it lies at L1 distance >= the final k-th distance from
       [q].  A buffer that never filled kept every eligible offer, and
       the scan covers the whole occupied bounding box unless the buffer
       fills, so the result is exhaustive and no entry was excluded at
       all.

       Canonical answer.  An entry the scan never offered lies at
       distance > (r - 1) * cell > kth — strictly beyond every answer,
       so it ranks after all of them whatever its id — and every offered
       entry competed in the (distance, id) buffer.  The answer is
       therefore the [k] smallest eligible entries by (distance, id): a
       function of the stored (id, point) set and the query alone, not
       of the cell size, bucket order or ring visit order. *)
    if b.klen = k then begin
      b.exhaustive <- false;
      b.kth <- Float.Array.get b.kdist (k - 1)
    end
  end

(* The list API over the kernel: each call allocates its own buffer and
   reads values back from the buckets by id. *)
let value_of t (p : Pt.t) id =
  let gx = key t p.x and gy = key t p.y in
  let b = t.cells.(((gy - t.gy0) * t.w) + (gx - t.gx0)) in
  let rec find i = if b.ids.(i) = id then b.vals.(i) else find (i + 1) in
  find 0

let k_nearest_probe t ?(skip = fun _ -> false) q k =
  let b = knn_buffer () in
  knn_into t b ~skip q k;
  let entries = ref [] in
  for i = b.klen - 1 downto 0 do
    let p = Pt.make (Float.Array.get b.kx i) (Float.Array.get b.ky i) in
    entries := (b.kids.(i), p, value_of t p b.kids.(i)) :: !entries
  done;
  (!entries, if b.exhaustive then None else Some b.kth)

let k_nearest t ?skip q k = fst (k_nearest_probe t ?skip q k)

let nearest t ?skip q =
  match k_nearest t ?skip q 1 with [ e ] -> Some e | _ -> None
