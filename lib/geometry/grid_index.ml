(* The packed snapshot: entries sorted by cell into one compressed
   layout.  Cell keys are absolute, [floor (x / cell)]; the directory
   covers the window [gx0, gx0 + w) x [gy0, gy0 + h) of keys spanned by
   the entries, row-major, and cell [c] of it holds the entries at
   positions [start.(c) .. start.(c + 1) - 1] of [ids]/[xs]/[ys].  A
   run of cells along one row is therefore one contiguous range.  Every
   array is storage reused by the next {!pack}; only the first [len]
   entries and [w * h + 1] offsets are live. *)
type snapshot = {
  mutable cell : float;
  mutable gx0 : int;
  mutable gy0 : int;
  mutable w : int;
  mutable h : int;
  mutable start : int array;
  mutable ids : int array;
  mutable xs : floatarray;
  mutable ys : floatarray;
  mutable len : int;
  (* Pack scratch: each input entry's cell. *)
  mutable slot : int array;
}

let snapshot () =
  {
    cell = 1.;
    gx0 = 0;
    gy0 = 0;
    w = 0;
    h = 0;
    start = [| 0 |];
    ids = [||];
    xs = Float.Array.create 0;
    ys = Float.Array.create 0;
    len = 0;
    slot = [||];
  }

let check_cell fn cell =
  if not (Float.is_finite cell && cell > 0.) then
    invalid_arg (fn ^ ": cell must be positive and finite")

(* Cell keys stay far inside the int range so that key differences
   (ring radii, window spans) never overflow.  The negated test also
   rejects NaN and infinities. *)
let max_key = 0x1p52

let[@inline] key cell v =
  let q = Float.floor (v /. cell) in
  if not (Float.abs q < max_key) then
    invalid_arg "Grid_index: point coordinates must be finite";
  int_of_float q

(* A directory of more than [max_cells n] cells for [n] entries would be
   mostly empty: the cell is then doubled until the window fits.  The
   answer does not depend on the cell (see [query]), so this bounds the
   memory of a fine cell over a wide spread and never changes a
   result. *)
let max_cells n = 64 + (4 * n)

let pack s ~cell ids xs ys n =
  check_cell "Grid_index.pack" cell;
  (* One pass for the coordinate extremes, which also rejects a
     non-finite entry before anything is written. *)
  let x0 = ref Float.infinity and x1 = ref Float.neg_infinity in
  let y0 = ref Float.infinity and y1 = ref Float.neg_infinity in
  for i = 0 to n - 1 do
    let x = Float.Array.get xs i and y = Float.Array.get ys i in
    if not (Float.is_finite x && Float.is_finite y) then
      invalid_arg "Grid_index: point coordinates must be finite";
    if x < !x0 then x0 := x;
    if x > !x1 then x1 := x;
    if y < !y0 then y0 := y;
    if y > !y1 then y1 := y
  done;
  let rec fit cell =
    let gx0 = key cell !x0 and gy0 = key cell !y0 in
    let w = key cell !x1 - gx0 + 1 and h = key cell !y1 - gy0 + 1 in
    if w <= max_cells n / h then (cell, gx0, gy0, w, h) else fit (2. *. cell)
  in
  let cell, gx0, gy0, w, h = if n = 0 then (cell, 0, 0, 0, 0) else fit cell in
  let cells = w * h in
  if Array.length s.ids < n then begin
    s.ids <- Array.make n 0;
    s.xs <- Float.Array.create n;
    s.ys <- Float.Array.create n;
    s.slot <- Array.make n 0
  end;
  if Array.length s.start < cells + 1 then s.start <- Array.make (cells + 1) 0
  else Array.fill s.start 0 (cells + 1) 0;
  (* Counting sort by cell: count each cell's entries one slot to the
     right, prefix-sum into start offsets, then scatter in input order
     through a per-cell cursor that ends at the next cell's start; a
     final shift restores the offsets. *)
  let start = s.start and slot = s.slot in
  for i = 0 to n - 1 do
    let c =
      ((key cell (Float.Array.get ys i) - gy0) * w)
      + (key cell (Float.Array.get xs i) - gx0)
    in
    slot.(i) <- c;
    start.(c + 1) <- start.(c + 1) + 1
  done;
  for c = 1 to cells do
    start.(c) <- start.(c) + start.(c - 1)
  done;
  for i = 0 to n - 1 do
    let c = slot.(i) in
    let at = start.(c) in
    start.(c) <- at + 1;
    s.ids.(at) <- ids.(i);
    Float.Array.set s.xs at (Float.Array.get xs i);
    Float.Array.set s.ys at (Float.Array.get ys i)
  done;
  for c = cells downto 1 do
    start.(c) <- start.(c - 1)
  done;
  start.(0) <- 0;
  s.cell <- cell;
  s.gx0 <- gx0;
  s.gy0 <- gy0;
  s.w <- w;
  s.h <- h;
  s.len <- n

(* The k-NN kernel's caller-owned buffer: the best [klen] candidates seen
   so far, kept sorted by ascending (distance, id) in two parallel
   arrays, and the running totals of the ring scans' work. *)
type knn = {
  mutable kids : int array;
  mutable kdist : floatarray;
  mutable klen : int;
  mutable kth : float;
  mutable exhaustive : bool;
  mutable cells_visited : int;
  mutable entries : int;
}

let knn_buffer () =
  {
    kids = [||];
    kdist = Float.Array.create 0;
    klen = 0;
    kth = Float.infinity;
    exhaustive = true;
    cells_visited = 0;
    entries = 0;
  }

let knn_reserve b cap =
  if Array.length b.kids < cap then begin
    b.kids <- Array.make cap 0;
    b.kdist <- Float.Array.create cap
  end

(* Offer every entry of the packed range [lo, hi) but [skip] to a buffer
   holding at most [cap] candidates, and return how many entries the
   range holds.  An offer goes in front of the first buffered candidate
   ranking after it by (distance, id), and when the buffer is full it is
   kept iff it ranks before the last one.  Ids are unique, so no two
   candidates compare equal and the buffer is the [cap] smallest offers
   whatever order they arrive in.  The scan visits cells roughly outward,
   so most entries fail the first test — they rank after a full
   buffer's last candidate — and that test runs before the [skip] one;
   a kept entry's insertion point is usually at or near the end.  The
   offer is written out in the loop, with no local function (a closure
   per range) and no [Pt.dist] call (not inlined in -opaque dev-profile
   builds, where it would box its result for every scanned entry). *)
let scan_range s b cap (q : Pt.t) skip lo hi =
  let sids = s.ids and xs = s.xs and ys = s.ys in
  let ids = b.kids and ds = b.kdist in
  for i = lo to hi - 1 do
    let d =
      Float.abs (q.x -. Float.Array.unsafe_get xs i)
      +. Float.abs (q.y -. Float.Array.unsafe_get ys i)
    in
    let id = Array.unsafe_get sids i in
    let len = b.klen in
    if
      (len < cap
      || (let dk = Float.Array.unsafe_get ds (len - 1) in
          dk > d || (dk = d && Array.unsafe_get ids (len - 1) > id)))
      && id <> skip
    then begin
      (* Shift every candidate ranking after the offer one slot right
         (the last one falls off a full buffer), then write the offer
         into the gap. *)
      let j = ref (if len < cap then len else len - 1) in
      while
        !j > 0
        && (let dk = Float.Array.unsafe_get ds (!j - 1) in
            dk > d || (dk = d && Array.unsafe_get ids (!j - 1) > id))
      do
        let k = !j in
        Array.unsafe_set ids k (Array.unsafe_get ids (k - 1));
        Float.Array.unsafe_set ds k (Float.Array.unsafe_get ds (k - 1));
        j := k - 1
      done;
      Array.unsafe_set ids !j id;
      Float.Array.unsafe_set ds !j d;
      if len < cap then b.klen <- len + 1
    end
  done;
  hi - lo

(* The query's cell on one axis, relative to the window origin [g0] of
   length [len], clamped to [-1, len]: a query outside the window is
   scanned from the cell just outside it, whose rings bound every
   entry's distance from below at least as well as the query's own
   (every entry lies on the window's side of both).  Inlined, so
   neither float argument is boxed. *)
let[@inline] query_key cell g0 len v =
  if not (Float.is_finite v) then
    invalid_arg "Grid_index: point coordinates must be finite";
  let f = Float.floor (v /. cell) -. float_of_int g0 in
  if f < -1. then -1 else if f > float_of_int len then len else int_of_float f

(* The ring scan visits cells in expanding square rings around the query
   cell.  A hit at ring [r] guarantees no closer hit exists beyond ring
   [ceil (best / cell) + 1], which bounds the scan; the window bounds it
   even when the buffer never fills (fewer entries than requested).
   Ring [r]'s top and bottom edges are one packed range each; its left
   and right edges are a range per row.  Visit order does not reach the
   answer (the buffer ranks by (distance, id)), so it is left
   unspecified.  The visited-cell total counts every cell of every
   ring as probed — ring 0 is one cell and ring [r >= 1] is [8 r].
   Written out with top-level helpers and no local closure, so a query
   allocates nothing beyond boxing [kth]. *)
let query s b ~skip (q : Pt.t) k =
  b.klen <- 0;
  b.kth <- Float.infinity;
  b.exhaustive <- true;
  if s.len > 0 && k > 0 then begin
    (* Bounded selection: the buffer's last candidate is the running
       k-th distance, which drives the ring-scan stop condition. *)
    let cap = Int.min k s.len in
    knn_reserve b cap;
    let w = s.w and h = s.h and start = s.start and cell = s.cell in
    let cx = query_key cell s.gx0 w q.x and cy = query_key cell s.gy0 h q.y in
    let max_ring = Int.max (Int.max cx (w - 1 - cx)) (Int.max cy (h - 1 - cy)) in
    let entries = ref 0 and r = ref 0 in
    while
      !r <= max_ring
      && not
           (b.klen = k
           && float_of_int (!r - 1) *. cell > Float.Array.get b.kdist (k - 1))
    do
      let r' = !r in
      if r' = 0 then begin
        if cx >= 0 && cx < w && cy >= 0 && cy < h then begin
          let c = (cy * w) + cx in
          entries := !entries + scan_range s b cap q skip start.(c) start.(c + 1)
        end
      end
      else begin
        let lo = Int.max (cx - r') 0 and hi = Int.min (cx + r') (w - 1) in
        if lo <= hi then begin
          (* [cy] lies in [-1, h], so the top row is below [h] and the
             bottom row above [-1]. *)
          let top = cy - r' and bot = cy + r' in
          if top >= 0 then
            entries :=
              !entries
              + scan_range s b cap q skip start.((top * w) + lo)
                  start.((top * w) + hi + 1);
          if bot < h then
            entries :=
              !entries
              + scan_range s b cap q skip start.((bot * w) + lo)
                  start.((bot * w) + hi + 1)
        end;
        let ylo = Int.max (cy - r' + 1) 0 and yhi = Int.min (cy + r' - 1) (h - 1) in
        let left = cx - r' and right = cx + r' in
        if left >= 0 then
          for gy = ylo to yhi do
            let c = (gy * w) + left in
            entries := !entries + scan_range s b cap q skip start.(c) start.(c + 1)
          done;
        if right < w then
          for gy = ylo to yhi do
            let c = (gy * w) + right in
            entries := !entries + scan_range s b cap q skip start.(c) start.(c + 1)
          done
      end;
      incr r
    done;
    let rings = !r in
    b.cells_visited <-
      (b.cells_visited + if rings = 0 then 0 else 1 + (4 * rings * (rings - 1)));
    b.entries <- b.entries + !entries;
    (* Exclusion bound.  When the buffer filled ([klen = k]) every
       eligible entry left out of the result was either rejected or
       pushed out — only possible at distance >= the running k-th
       distance, which never grows — or never offered because the ring
       scan stopped, i.e. its ring satisfied (r - 1) * cell > kth.
       Either way it lies at L1 distance >= the final k-th distance from
       [q].  A buffer that never filled kept every eligible offer, and
       the scan covers the whole window unless the buffer fills, so the
       result is exhaustive and no entry was excluded at all.

       Canonical answer.  An entry the scan never offered lies at
       distance > (r - 1) * cell > kth — strictly beyond every answer,
       so it ranks after all of them whatever its id — and every offered
       entry competed in the (distance, id) buffer.  The answer is
       therefore the [k] smallest eligible entries by (distance, id): a
       function of the packed (id, point) set and the query alone, not
       of the cell size, the order entries were packed in or the ring
       visit order. *)
    if b.klen = k then begin
      b.exhaustive <- false;
      b.kth <- Float.Array.get b.kdist (k - 1)
    end
  end

(* The builder: entries by id, packed into a private snapshot on the
   first query after a mutation. *)
type 'a t = {
  bcell : float;
  entries : (int, Pt.t * 'a) Hashtbl.t;
  packed : snapshot;
  mutable fresh : bool;
}

let create ~cell =
  check_cell "Grid_index.create" cell;
  { bcell = cell; entries = Hashtbl.create 16; packed = snapshot (); fresh = true }

let add t ~id (p : Pt.t) v =
  if not (Float.is_finite p.x && Float.is_finite p.y) then
    invalid_arg "Grid_index: point coordinates must be finite";
  Hashtbl.replace t.entries id (p, v);
  t.fresh <- false

let packed t =
  if not t.fresh then begin
    let n = Hashtbl.length t.entries in
    let ids = Array.make n 0 in
    let xs = Float.Array.create n and ys = Float.Array.create n in
    let i = ref 0 in
    Hashtbl.iter
      (fun id ((p : Pt.t), _) ->
        ids.(!i) <- id;
        Float.Array.set xs !i p.x;
        Float.Array.set ys !i p.y;
        incr i)
      t.entries;
    pack t.packed ~cell:t.bcell ids xs ys n;
    t.fresh <- true
  end;
  t.packed

(* The list API over the kernel.  The kernel skips at most one id, so a
   predicate filters the canonical answer instead: query with no skip,
   for one entry more than asked (the probing entry itself, the common
   predicate, then costs no second query), and double the query until
   it holds [k] eligible entries or is exhaustive.  A canonical answer's
   prefix is the canonical answer for fewer entries, so its first [k]
   eligible entries are the [k] first eligible ones of the whole set,
   and every eligible entry left out lies at or beyond the [k]-th of
   them: that entry's distance is the exclusion bound.  Each call
   allocates its own buffer and reads points and values back by id. *)
let k_nearest_probe t ?skip q k =
  let eligible id = match skip with None -> true | Some f -> not (f id) in
  let s = packed t and b = knn_buffer () in
  let rec widen want =
    query s b ~skip:(-1) q want;
    let found = ref 0 in
    for i = 0 to b.klen - 1 do
      if eligible b.kids.(i) then incr found
    done;
    if !found < k && not b.exhaustive then widen (2 * want)
  in
  if k <= 0 then ([], None)
  else begin
    widen (if skip = None then k else k + 1);
    let entries = ref [] and taken = ref 0 and bound = ref None in
    for i = 0 to b.klen - 1 do
      let id = b.kids.(i) in
      if !taken < k && eligible id then begin
        incr taken;
        let p, v = Hashtbl.find t.entries id in
        entries := (id, p, v) :: !entries;
        if !taken = k then bound := Some (Float.Array.get b.kdist i)
      end
    done;
    (List.rev !entries, !bound)
  end
