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

(* Top-down merge sort of the parallel (keys, ids) runs [lo, hi):
   sorts [src] into [dst], using [src] as scratch; both must hold the
   same entries on entry. *)
let rec sort_into sk si dk di lo hi =
  if hi - lo <= 16 then
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

let median ~axis point_of ids =
  let n = Array.length ids in
  if n < 2 then invalid_arg "Split.median: need at least two points";
  (* (coordinate, id) keys: ids are unique, so the order — and hence the
     two halves — is a pure function of the input set, independent of the
     input array's order or any earlier sort.  Duplicate coordinates
     (snapped grids, stacked sinks) split deterministically by id.  Each
     coordinate is read once into a float key array. *)
  let keys = Array.map (fun id -> coord axis (point_of id)) ids in
  let sorted = Array.copy ids in
  sort_into (Array.copy keys) (Array.copy ids) keys sorted 0 n;
  let half = (n + 1) / 2 in
  (Array.sub sorted 0 half, Array.sub sorted half (n - half))

let bipartition point_of ids =
  let lo, hi = extent point_of ids in
  median ~axis:(longer_axis ~lo ~hi) point_of ids
