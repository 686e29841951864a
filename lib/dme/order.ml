type proposals = {
  partner : int array;
  cost : floatarray;
  queries : int array;
  cells : int array;
  entries : int array;
  priced : int array;
}

(* The (cost, lowest id) argmin over the candidates [ids.(0 .. len-1)],
   pricing only those that can still win.  Every cost is [>= dist] (the
   [price] contract), so a candidate whose region distance already
   exceeds the best cost — or ties it with a higher id — cannot take the
   argmin whatever it costs, and its price is never asked for.  A NaN
   distance proves nothing, so that candidate is priced.  The winner is
   the exhaustive argmin's, for any candidate order. *)
let cheapest ids len ~dist ~price =
  let bi = ref (-1) and best = ref Float.infinity in
  for i = 0 to len - 1 do
    let tid = ids.(i) in
    let d = dist tid in
    if !bi < 0 || not (d > !best || (d = !best && tid > ids.(!bi))) then begin
      let c = price tid d in
      if Float.is_nan c then invalid_arg "Order: a merge cost is NaN";
      if !bi < 0 || c < !best || (c = !best && tid < ids.(!bi)) then begin
        bi := i;
        best := c
      end
    end
  done;
  (!bi, !best)

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
