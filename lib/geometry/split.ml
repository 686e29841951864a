type axis = X | Y

let coord axis (p : Pt.t) = match axis with X -> p.Pt.x | Y -> p.Pt.y

let longer_axis ~lo ~hi =
  let w = hi.Pt.x -. lo.Pt.x and h = hi.Pt.y -. lo.Pt.y in
  if h > w then Y else X

let extent point_of ids =
  let x0 = ref Float.infinity and y0 = ref Float.infinity in
  let x1 = ref Float.neg_infinity and y1 = ref Float.neg_infinity in
  for i = 0 to Array.length ids - 1 do
    let p = point_of ids.(i) in
    x0 := Float.min !x0 p.Pt.x;
    y0 := Float.min !y0 p.Pt.y;
    x1 := Float.max !x1 p.Pt.x;
    y1 := Float.max !y1 p.Pt.y
  done;
  (Pt.make !x0 !y0, Pt.make !x1 !y1)

(* The (key, id) order of [Float.compare] then [Int.compare], without a
   C call per comparison: NaN keys rank first and equal to each other. *)
let[@inline] before (ka : float) (ia : int) kb ib =
  if ka < kb then true
  else if kb < ka then false
  else if ka = kb then ia < ib
  else if ka <> ka then kb = kb || ia < ib
  else false

(* Insertion sort of the parallel (keys, ids) run [lo, hi), in place. *)
let insertion dk di lo hi =
  for i = lo + 1 to hi - 1 do
    let k = dk.(i) and id = di.(i) in
    let j = ref (i - 1) in
    while !j >= lo && before k id dk.(!j) di.(!j) do
      dk.(!j + 1) <- dk.(!j);
      di.(!j + 1) <- di.(!j);
      decr j
    done;
    dk.(!j + 1) <- k;
    di.(!j + 1) <- id
  done

(* Top-down merge sort of the parallel (keys, ids) runs [lo, hi):
   sorts [src] into [dst], using [src] as scratch; both must hold the
   same entries on entry. *)
let rec sort_into sk si dk di lo hi =
  if hi - lo <= 16 then insertion dk di lo hi
  else begin
    let mid = (lo + hi) / 2 in
    sort_into dk di sk si lo mid;
    sort_into dk di sk si mid hi;
    let i = ref lo and j = ref mid in
    for o = lo to hi - 1 do
      if !j >= hi || (!i < mid && not (before sk.(!j) si.(!j) sk.(!i) si.(!i)))
      then begin
        dk.(o) <- sk.(!i);
        di.(o) <- si.(!i);
        incr i
      end
      else begin
        dk.(o) <- sk.(!j);
        di.(o) <- si.(!j);
        incr j
      end
    done
  end

let swap keys ids i j =
  let k = keys.(i) and id = ids.(i) in
  keys.(i) <- keys.(j);
  ids.(i) <- ids.(j);
  keys.(j) <- k;
  ids.(j) <- id

(* Quickselect on the parallel run [lo, hi) in place: afterwards every
   entry of [lo, k) comes before every entry of [k, hi) in the (key, id)
   order, a strict total order since ids are unique.  Median-of-three
   pivots; once [depth] partition rounds are spent the range is sorted
   instead, so the worst case stays O(n log n). *)
let rec select_into keys ids lo hi k depth =
  if hi - lo <= 16 then insertion keys ids lo hi
  else if depth = 0 then
    sort_into (Array.copy keys) (Array.copy ids) keys ids lo hi
  else begin
    let lt i j = before keys.(i) ids.(i) keys.(j) ids.(j) in
    let mid = lo + ((hi - lo) / 2) and last = hi - 1 in
    if lt mid lo then swap keys ids mid lo;
    if lt last lo then swap keys ids last lo;
    if lt mid last then swap keys ids mid last;
    (* the median of the three now sits at [last]: Lomuto partition *)
    let pk = keys.(last) and pi = ids.(last) in
    let m = ref lo in
    for i = lo to last - 1 do
      if before keys.(i) ids.(i) pk pi then begin
        swap keys ids i !m;
        incr m
      end
    done;
    swap keys ids !m last;
    let m = !m in
    if k < m then select_into keys ids lo m k (depth - 1)
    else if k > m + 1 then select_into keys ids (m + 1) hi k (depth - 1)
  end

let median ~sorted ~axis point_of ids =
  let n = Array.length ids in
  if n < 2 then invalid_arg "Split.median: need at least two points";
  (* (coordinate, id) keys: ids are unique, so the order — and hence the
     two halves — is a pure function of the input set, independent of the
     input array's order or any earlier sort.  Duplicate coordinates
     (snapped grids, stacked sinks) split deterministically by id.  Each
     coordinate is read once into a float key array. *)
  let keys = Array.map (fun id -> coord axis (point_of id)) ids in
  let ids = Array.copy ids in
  let half = (n + 1) / 2 in
  let rec log2 k = if k <= 1 then 0 else 1 + log2 (k / 2) in
  select_into keys ids 0 n half (2 * log2 n);
  let sort_lo, sort_hi = sorted in
  if sort_lo || sort_hi then begin
    let sk = Array.copy keys and si = Array.copy ids in
    if sort_lo then sort_into sk si keys ids 0 half;
    if sort_hi then sort_into sk si keys ids half n
  end;
  (Array.sub ids 0 half, Array.sub ids half (n - half))

let bipartition ~sorted point_of ids =
  let lo, hi = extent point_of ids in
  median ~sorted ~axis:(longer_axis ~lo ~hi) point_of ids
