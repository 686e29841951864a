(* Buckets live in a dense [counts] array: [counts.(k)] is the tally of
   bucket index [base + k].  The array grows (with slack) whenever an
   observation lands outside the covered index range, so in steady state
   — once the value range has been seen — [observe] runs straight-line
   with zero allocation.  That property is load-bearing: the scheduler
   ledger observes a chunk latency per chunk on the parallel hot path.
   Float aggregates (sum/min/max) live in a [floatarray] so updating
   them never boxes. *)

(* Buckets per power of ten: a resolution of 10^(1/8), about 33%. *)
let per_decade = 8

type t = {
  name : string;
  lock : Mutex.t;
  mutable base : int;  (** bucket index of [counts.(0)] *)
  mutable counts : int array;  (** dense tallies; [[||]] until first hit *)
  mutable count : int;
  mutable underflow : int;
  mutable overflow : int;
  fl : floatarray;  (** 0: sum, 1: min, 2: max — unboxed stores *)
}

let create name =
  let fl = Float.Array.create 3 in
  Float.Array.set fl 0 0.;
  Float.Array.set fl 1 Float.infinity;
  Float.Array.set fl 2 Float.neg_infinity;
  {
    name;
    lock = Mutex.create ();
    base = 0;
    counts = [||];
    count = 0;
    underflow = 0;
    overflow = 0;
    fl;
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* floor of per_decade * log10 v.  Float.log10 is exact enough for
   observability bucketing; values landing within one ulp of a bucket
   boundary may fall either side, which only moves them between two
   adjacent buckets of a report. *)
let index v =
  int_of_float (Float.floor (float_of_int per_decade *. Float.log10 v))

(* Grow [counts] to cover bucket index [i].  Called with the lock held;
   allocates only on a range miss (a few times early in a histogram's
   life, then never again). *)
let ensure t i =
  let len = Array.length t.counts in
  if len = 0 then begin
    t.base <- i - 2;
    t.counts <- Array.make 8 0
  end
  else if i < t.base || i >= t.base + len then begin
    let lo = Int.min i t.base - 4 in
    let hi = Int.max i (t.base + len - 1) + 4 in
    let fresh = Array.make (hi - lo + 1) 0 in
    Array.blit t.counts 0 fresh (t.base - lo) len;
    t.base <- lo;
    t.counts <- fresh
  end

(* Straight-line on purpose: no [Fun.protect] closure, no option — the
   body cannot raise (growth aside, which only allocates), so unlock is
   always reached and a steady-state call allocates nothing. *)
let observe t v =
  if not (Float.is_nan v) then begin
    Mutex.lock t.lock;
    t.count <- t.count + 1;
    Float.Array.unsafe_set t.fl 0 (Float.Array.unsafe_get t.fl 0 +. v);
    if v < Float.Array.unsafe_get t.fl 1 then Float.Array.unsafe_set t.fl 1 v;
    if v > Float.Array.unsafe_get t.fl 2 then Float.Array.unsafe_set t.fl 2 v;
    if v <= 0. then t.underflow <- t.underflow + 1
    else if v = Float.infinity then t.overflow <- t.overflow + 1
    else begin
      let i = index v in
      ensure t i;
      let k = i - t.base in
      Array.unsafe_set t.counts k (1 + Array.unsafe_get t.counts k)
    end;
    Mutex.unlock t.lock
  end

let bound i = Float.pow 10. (float_of_int i /. float_of_int per_decade)

let buckets t =
  locked t (fun () ->
      let acc = ref [] in
      for k = Array.length t.counts - 1 downto 0 do
        let n = t.counts.(k) in
        if n > 0 then begin
          let i = t.base + k in
          acc := (bound i, bound (i + 1), n) :: !acc
        end
      done;
      !acc)

let quantile t q =
  locked t (fun () ->
      if t.count = 0 then None
      else begin
        let q = Float.max 0. (Float.min 1. q) in
        let target =
          Int.max 1 (int_of_float (Float.ceil (q *. float_of_int t.count)))
        in
        let vmin = Float.Array.get t.fl 1 in
        let vmax = Float.Array.get t.fl 2 in
        if t.underflow >= target then Some vmin
        else begin
          let acc = ref t.underflow in
          let res = ref None in
          let k = ref 0 in
          let len = Array.length t.counts in
          while !res = None && !k < len do
            let c = t.counts.(!k) in
            if c > 0 then begin
              acc := !acc + c;
              if !acc >= target then
                (* Clamp the bucket's upper bound into the observed
                   range so single-valued histograms answer exactly. *)
                res :=
                  Some
                    (Float.max vmin
                       (Float.min (bound (t.base + !k + 1)) vmax))
            end;
            incr k
          done;
          match !res with None -> Some vmax | some -> some
        end
      end)

let to_json t =
  let bs = buckets t in
  locked t (fun () ->
      let extremum i =
        if t.count = 0 then Json.Null else Json.Float (Float.Array.get t.fl i)
      in
      Json.Obj
        [
          ("name", Json.String t.name);
          ("count", Json.Int t.count);
          ("sum", Json.Float (Float.Array.get t.fl 0));
          ("min", extremum 1);
          ("max", extremum 2);
          ("underflow", Json.Int t.underflow);
          ("overflow", Json.Int t.overflow);
          ( "buckets",
            Json.List
              (List.map
                 (fun (lo, hi, n) ->
                   Json.Obj
                     [
                       ("lo", Json.Float lo);
                       ("hi", Json.Float hi);
                       ("count", Json.Int n);
                     ])
                 bs) );
        ])
