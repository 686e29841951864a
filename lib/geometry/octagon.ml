type bounds = {
  xl : float;
  xh : float;
  yl : float;
  yh : float;
  sl : float;
  sh : float;
  dl : float;
  dh : float;
}

type t = Empty | O of bounds

let empty = Empty
let is_empty = function Empty -> true | O _ -> false
let bounds = function Empty -> None | O b -> Some b

(* [Float.min] and [Float.max] written out.  The two comparisons settle
   every ordered pair; what is left (ties and NaN) runs the stdlib's own
   test, so the result is bit-identical to the stdlib on every input,
   signed zeros and NaN payloads included.  Unlike the stdlib calls,
   these inline in -opaque (dev-profile) builds, where an out-of-line
   call that returns a float boxes it. *)
let[@inline] fmin x y =
  if x < y then x
  else if y < x then y
  else if (not (Float.sign_bit y)) && Float.sign_bit x then
    if y <> y then y else x
  else if x <> x then x
  else y

let[@inline] fmax x y =
  if x < y then y
  else if y < x then x
  else if (not (Float.sign_bit y)) && Float.sign_bit x then
    if x <> x then x else y
  else if y <> y then y
  else x

(* Canonicalization uses the octagon-domain strong closure: encode the 8
   bounds as a 4-node difference-bound matrix over +x, -x, +y, -y
   (entry [mij] bounds [vi - vj]), run Floyd-Warshall, apply the unary
   strengthening step, and read the tight bounds back.

   [close s] closes the raw bounds [xl xh yl yh sl sh dl dh] held in
   [s.(0 .. 7)] in place and returns [false] when they are
   inconsistent (the octagon is empty).  The 16 entries are unboxed
   locals and both loops are unrolled in their [k, i, j] order, so a
   closure allocates nothing and calls nothing.  The order is part of
   the result: relaxing in place, a path of equal length found later
   never replaces one found earlier, which fixes the sign of a zero
   bound, and a slightly negative cycle within the emptiness tolerance
   feeds the entries relaxed after it.  test_geometry checks the
   unrolled closure against the looped one bit for bit.

   Pass [k] runs the seven relaxations with [i = k] or [j = k] only
   when [mkk >= 0] (false for NaN) fails at its start, in their places
   in the loop order.  Otherwise each adds [mkk] to an entry and
   compares the sum with that entry, and adding a non-negative number
   never lowers a float (rounding is monotone; [-0. +. 0.] ties, and
   [tighter] keeps the entry on ties and NaN); [mkk] itself changes
   only through its own relaxation.  [m00] starts at 0, so pass 0 runs
   only the nine others.  Writes that
   nothing reads afterwards are not made: pass 3's and the
   strengthening's [m13], [m21], [m30] and [m31]. *)

(* One relaxation: the tighter of a candidate [v] and the current entry
   [m], keeping [m] on ties and on a NaN candidate. *)
let[@inline] tighter (v : float) m = if v < m then v else m

let close s =
  let xl = Float.Array.unsafe_get s 0 and xh = Float.Array.unsafe_get s 1 in
  let yl = Float.Array.unsafe_get s 2 and yh = Float.Array.unsafe_get s 3 in
  let sl = Float.Array.unsafe_get s 4 and sh = Float.Array.unsafe_get s 5 in
  let dl = Float.Array.unsafe_get s 6 and dh = Float.Array.unsafe_get s 7 in
  let inf = Float.infinity in
  let m00 = ref 0. and m11 = ref 0. and m22 = ref 0. and m33 = ref 0. in
  let m01 = ref (tighter (2. *. xh) inf) and m10 = ref (tighter (-2. *. xl) inf) in
  let m23 = ref (tighter (2. *. yh) inf) and m32 = ref (tighter (-2. *. yl) inf) in
  let m03 = ref (tighter sh inf) and m21 = ref (tighter sh inf) in
  let m12 = ref (tighter (-.sl) inf) and m30 = ref (tighter (-.sl) inf) in
  let m02 = ref (tighter dh inf) and m31 = ref (tighter dh inf) in
  let m20 = ref (tighter (-.dl) inf) and m13 = ref (tighter (-.dl) inf) in
  (* via node 0: [m00] is 0 *)
  m11 := tighter (!m10 +. !m01) !m11;
  m12 := tighter (!m10 +. !m02) !m12;
  m13 := tighter (!m10 +. !m03) !m13;
  m21 := tighter (!m20 +. !m01) !m21;
  m22 := tighter (!m20 +. !m02) !m22;
  m23 := tighter (!m20 +. !m03) !m23;
  m31 := tighter (!m30 +. !m01) !m31;
  m32 := tighter (!m30 +. !m02) !m32;
  m33 := tighter (!m30 +. !m03) !m33;
  (* via node 1; [neg] runs the seven relaxations through [m11] *)
  let neg = not (!m11 >= 0.) in
  m00 := tighter (!m01 +. !m10) !m00;
  if neg then m01 := tighter (!m01 +. !m11) !m01;
  m02 := tighter (!m01 +. !m12) !m02;
  m03 := tighter (!m01 +. !m13) !m03;
  if neg then begin
    m10 := tighter (!m11 +. !m10) !m10;
    m11 := tighter (!m11 +. !m11) !m11;
    m12 := tighter (!m11 +. !m12) !m12;
    m13 := tighter (!m11 +. !m13) !m13
  end;
  m20 := tighter (!m21 +. !m10) !m20;
  if neg then m21 := tighter (!m21 +. !m11) !m21;
  m22 := tighter (!m21 +. !m12) !m22;
  m23 := tighter (!m21 +. !m13) !m23;
  m30 := tighter (!m31 +. !m10) !m30;
  if neg then m31 := tighter (!m31 +. !m11) !m31;
  m32 := tighter (!m31 +. !m12) !m32;
  m33 := tighter (!m31 +. !m13) !m33;
  (* via node 2 *)
  let neg = not (!m22 >= 0.) in
  m00 := tighter (!m02 +. !m20) !m00;
  m01 := tighter (!m02 +. !m21) !m01;
  if neg then m02 := tighter (!m02 +. !m22) !m02;
  m03 := tighter (!m02 +. !m23) !m03;
  m10 := tighter (!m12 +. !m20) !m10;
  m11 := tighter (!m12 +. !m21) !m11;
  if neg then m12 := tighter (!m12 +. !m22) !m12;
  m13 := tighter (!m12 +. !m23) !m13;
  if neg then begin
    m20 := tighter (!m22 +. !m20) !m20;
    m21 := tighter (!m22 +. !m21) !m21;
    m22 := tighter (!m22 +. !m22) !m22;
    m23 := tighter (!m22 +. !m23) !m23
  end;
  m30 := tighter (!m32 +. !m20) !m30;
  m31 := tighter (!m32 +. !m21) !m31;
  if neg then m32 := tighter (!m32 +. !m22) !m32;
  m33 := tighter (!m32 +. !m23) !m33;
  (* via node 3; [m13], [m21], [m30] and [m31] are read no more *)
  let neg = not (!m33 >= 0.) in
  m00 := tighter (!m03 +. !m30) !m00;
  m01 := tighter (!m03 +. !m31) !m01;
  m02 := tighter (!m03 +. !m32) !m02;
  if neg then m03 := tighter (!m03 +. !m33) !m03;
  m10 := tighter (!m13 +. !m30) !m10;
  m11 := tighter (!m13 +. !m31) !m11;
  m12 := tighter (!m13 +. !m32) !m12;
  m20 := tighter (!m23 +. !m30) !m20;
  m22 := tighter (!m23 +. !m32) !m22;
  if neg then begin
    m23 := tighter (!m23 +. !m33) !m23;
    m32 := tighter (!m33 +. !m32) !m32;
    m33 := tighter (!m33 +. !m33) !m33
  end;
  (* strengthening: mij <= (m(i, bar i) + m(bar j, j)) / 2; the
     entries no output reads are left alone *)
  m00 := tighter ((!m01 +. !m10) /. 2.) !m00;
  m01 := tighter ((!m01 +. !m01) /. 2.) !m01;
  m02 := tighter ((!m01 +. !m32) /. 2.) !m02;
  m03 := tighter ((!m01 +. !m23) /. 2.) !m03;
  m10 := tighter ((!m10 +. !m10) /. 2.) !m10;
  m11 := tighter ((!m10 +. !m01) /. 2.) !m11;
  m12 := tighter ((!m10 +. !m32) /. 2.) !m12;
  m20 := tighter ((!m23 +. !m10) /. 2.) !m20;
  m22 := tighter ((!m23 +. !m32) /. 2.) !m22;
  m23 := tighter ((!m23 +. !m23) /. 2.) !m23;
  m32 := tighter ((!m32 +. !m32) /. 2.) !m32;
  m33 := tighter ((!m32 +. !m23) /. 2.) !m33;
  let tol = -.Eps.tol in
  if !m00 < tol || !m11 < tol || !m22 < tol || !m33 < tol then false
  else begin
    Float.Array.unsafe_set s 0 (-. !m10 /. 2.);
    Float.Array.unsafe_set s 1 (!m01 /. 2.);
    Float.Array.unsafe_set s 2 (-. !m32 /. 2.);
    Float.Array.unsafe_set s 3 (!m23 /. 2.);
    Float.Array.unsafe_set s 4 (-. !m12);
    Float.Array.unsafe_set s 5 !m03;
    Float.Array.unsafe_set s 6 (-. !m20);
    Float.Array.unsafe_set s 7 !m02;
    true
  end

(* Per-domain scratch for {!close}: raw bounds in, tight bounds out.
   Every caller fills it and reads it back without running another
   closure in between, so one buffer per domain is never shared. *)
let scratch_key = Domain.DLS.new_key (fun () -> Float.Array.create 8)

let[@inline] fill s xl xh yl yh sl sh dl dh =
  Float.Array.unsafe_set s 0 xl;
  Float.Array.unsafe_set s 1 xh;
  Float.Array.unsafe_set s 2 yl;
  Float.Array.unsafe_set s 3 yh;
  Float.Array.unsafe_set s 4 sl;
  Float.Array.unsafe_set s 5 sh;
  Float.Array.unsafe_set s 6 dl;
  Float.Array.unsafe_set s 7 dh

(* The closure of the raw bounds in [s]. *)
let closed s =
  if close s then
    O
      {
        xl = Float.Array.unsafe_get s 0;
        xh = Float.Array.unsafe_get s 1;
        yl = Float.Array.unsafe_get s 2;
        yh = Float.Array.unsafe_get s 3;
        sl = Float.Array.unsafe_get s 4;
        sh = Float.Array.unsafe_get s 5;
        dl = Float.Array.unsafe_get s 6;
        dh = Float.Array.unsafe_get s 7;
      }
  else Empty

let of_bounds ~xl ~xh ~yl ~yh ~sl ~sh ~dl ~dh =
  let s = Domain.DLS.get scratch_key in
  fill s xl xh yl yh sl sh dl dh;
  closed s

(* Trusted constructor for bounds that are already canonical (read back
   from an octagon slab): skipping the closure keeps the round-trip
   bit-exact. *)
let of_canonical_bounds b = O b

let of_point (p : Pt.t) =
  let s = Pt.s p and d = Pt.d p in
  O { xl = p.x; xh = p.x; yl = p.y; yh = p.y; sl = s; sh = s; dl = d; dh = d }

let box (p : Pt.t) (q : Pt.t) =
  of_bounds
    ~xl:(fmin p.x q.x)
    ~xh:(fmax p.x q.x)
    ~yl:(fmin p.y q.y)
    ~yh:(fmax p.y q.y)
    ~sl:Float.neg_infinity ~sh:Float.infinity ~dl:Float.neg_infinity
    ~dh:Float.infinity

let of_segment (p : Pt.t) (q : Pt.t) =
  let dx = Float.abs (p.x -. q.x) and dy = Float.abs (p.y -. q.y) in
  let octilinear =
    dx <= Eps.tol || dy <= Eps.tol
    || Float.abs (dx -. dy) <= Eps.tol +. (1e-12 *. (dx +. dy))
  in
  if not octilinear then
    invalid_arg
      (Format.asprintf "Octagon.of_segment: %a-%a is not octilinear" Pt.pp p
         Pt.pp q);
  let sp = Pt.s p and sq = Pt.s q and dp = Pt.d p and dq = Pt.d q in
  of_bounds
    ~xl:(fmin p.x q.x)
    ~xh:(fmax p.x q.x)
    ~yl:(fmin p.y q.y)
    ~yh:(fmax p.y q.y)
    ~sl:(fmin sp sq) ~sh:(fmax sp sq) ~dl:(fmin dp dq)
    ~dh:(fmax dp dq)

let ball (p : Pt.t) r =
  let r = fmax 0. r in
  let s = Pt.s p and d = Pt.d p in
  O
    {
      xl = p.x -. r;
      xh = p.x +. r;
      yl = p.y -. r;
      yh = p.y +. r;
      sl = s -. r;
      sh = s +. r;
      dl = d -. r;
      dh = d +. r;
    }

let contains o (p : Pt.t) =
  match o with
  | Empty -> false
  | O b ->
    let s = Pt.s p and d = Pt.d p in
    Eps.leq b.xl p.x && Eps.leq p.x b.xh && Eps.leq b.yl p.y
    && Eps.leq p.y b.yh && Eps.leq b.sl s && Eps.leq s b.sh && Eps.leq b.dl d
    && Eps.leq d b.dh

let inter a b =
  match (a, b) with
  | Empty, _ | _, Empty -> Empty
  | O a, O b ->
    let s = Domain.DLS.get scratch_key in
    fill s (fmax a.xl b.xl) (fmin a.xh b.xh) (fmax a.yl b.yl) (fmin a.yh b.yh)
      (fmax a.sl b.sl) (fmin a.sh b.sh) (fmax a.dl b.dl) (fmin a.dh b.dh);
    closed s

(* Supports of a convex hull are the pointwise maxima of supports, so the
   componentwise envelope of two canonical octagons is already canonical. *)
let hull a b =
  match (a, b) with
  | Empty, o | o, Empty -> o
  | O a, O b ->
    O
      {
        xl = fmin a.xl b.xl;
        xh = fmax a.xh b.xh;
        yl = fmin a.yl b.yl;
        yh = fmax a.yh b.yh;
        sl = fmin a.sl b.sl;
        sh = fmax a.sh b.sh;
        dl = fmin a.dl b.dl;
        dh = fmax a.dh b.dh;
      }

let hull_list os = List.fold_left hull Empty os

let inflate r o =
  let r = fmax 0. r in
  match o with
  | Empty -> Empty
  | O b ->
    O
      {
        xl = b.xl -. r;
        xh = b.xh +. r;
        yl = b.yl -. r;
        yh = b.yh +. r;
        sl = b.sl -. r;
        sh = b.sh +. r;
        dl = b.dl -. r;
        dh = b.dh +. r;
      }

let translate (v : Pt.t) o =
  match o with
  | Empty -> Empty
  | O b ->
    let s = Pt.s v and d = Pt.d v in
    O
      {
        xl = b.xl +. v.x;
        xh = b.xh +. v.x;
        yl = b.yl +. v.y;
        yh = b.yh +. v.y;
        sl = b.sl +. s;
        sh = b.sh +. s;
        dl = b.dl +. d;
        dh = b.dh +. d;
      }

(* L1 distance between canonical octagons: the largest support gap over the
   8 constraint directions.  Each violated half-plane costs exactly its gap
   in L1 motion (all 8 normals have unit dual norm), and canonical
   tightness guarantees the maximum gap is simultaneously achievable. *)
let[@inline] dist a b =
  match (a, b) with
  | Empty, _ | _, Empty -> invalid_arg "Octagon.dist: empty octagon"
  | O a, O b ->
    let g = b.xl -. a.xh in
    let g = fmax g (a.xl -. b.xh) in
    let g = fmax g (b.yl -. a.yh) in
    let g = fmax g (a.yl -. b.yh) in
    let g = fmax g (b.sl -. a.sh) in
    let g = fmax g (a.sl -. b.sh) in
    let g = fmax g (b.dl -. a.dh) in
    let g = fmax g (a.dl -. b.dh) in
    fmax 0. g

let dist_pt o p = dist o (of_point p)

let pick_point o =
  match o with
  | Empty -> invalid_arg "Octagon.pick_point: empty octagon"
  | O b ->
    let x = (b.xl +. b.xh) /. 2. in
    let ylo = fmax b.yl (fmax (b.sl -. x) (x -. b.dh)) in
    let yhi = fmin b.yh (fmin (b.sh -. x) (x -. b.dl)) in
    Pt.make x ((ylo +. yhi) /. 2.)

let center = pick_point

(* L1 projection by clamping x first, then y within the slice at that x.
   For canonical octagons this realizes the max-violation distance: every
   violated constraint has unit dual norm, and the x/y clamps discharge
   the x/y violations while the slice bounds discharge the s/d ones.
   Exactness is property-tested against dist_pt. *)
let nearest_point o (p : Pt.t) =
  match o with
  | Empty -> invalid_arg "Octagon.nearest_point: empty octagon"
  | O b ->
    if contains o p then p
    else
      let x = Eps.clamp b.xl b.xh p.x in
      let ylo = fmax b.yl (fmax (b.sl -. x) (x -. b.dh)) in
      let yhi = fmin b.yh (fmin (b.sh -. x) (x -. b.dl)) in
      let y =
        if ylo > yhi then (ylo +. yhi) /. 2. else Eps.clamp ylo yhi p.y
      in
      Pt.make x y

let closest_pair a b =
  let r = dist a b in
  (* The inflation margin absorbs closure tolerance (x/y violations are
     doubled in the DBM encoding), at the cost of ~margin slack in the
     returned pair distance. *)
  let qa = inter a (inflate (r +. (50. *. Eps.tol)) b) in
  let qa = if is_empty qa then a else qa in
  let pa = pick_point qa in
  let pb = nearest_point b pa in
  (pa, pb)

(* The SDR is the union over t in [0, r] of (a ⊕ t) ∩ (b ⊕ (r - t)), which
   is convex, so it equals the hull of its slices.  The support of the
   slice in each of the 8 octagon directions is bounded by
   min (h_a n + t, h_b n + r - t), maximized where the two lines cross;
   slicing at those 8 critical t values (plus a uniform fallback) makes
   the hull exact for generic inputs and an inner approximation otherwise,
   which is the safe direction: every returned point is on a true
   shortest path.

   The kernel builds each slice's raw bounds in the closure scratch,
   closes them in place and folds the hull into unboxed locals, so one
   call allocates only its result.  Slices are taken in a fixed order —
   the critical t of xh, xl, yh, yl, sh, sl, dh, dl, then the uniform
   ones from 0 to r — and every float operation keeps the operands and
   order of inflating, intersecting and hulling octagon values.  A
   slice is a function of its clamped t alone, and hulling a slice in
   again cannot move the hull ([fmin]/[fmax] are idempotent, bit for
   bit), so a slice whose t equals an earlier one's is skipped: the
   critical t of opposite sides often coincide, and for two points all
   eight do. *)

(* Uniform slices of {!sdr}, both ends included; with the 8 critical
   ones, 17 slices per SDR. *)
let sdr_uniform = 9

(* Per-domain scratch for {!sdr}: the clamped t of the slices taken so
   far at [0 .. 16], and the hull's bounds at [hull_at ..]. *)
let hull_at = 8 + sdr_uniform
let sdr_key = Domain.DLS.new_key (fun () -> Float.Array.create (hull_at + 8))

let[@inline] critical r ha hb = (hb -. ha +. r) /. 2.

(* The hull of the slices of [ba] and [bb] at distance [r > 0], written
   to [h.(hull_at ..)]; [false] when every slice is empty.  [s] is the
   closure scratch.  Inlined, so [r] is not boxed; the running hull is
   kept in unboxed locals, which measured faster than folding it into
   [h] in a loop. *)
let[@inline] sdr_slices s h ba bb r =
  let xl = ref 0. and xh = ref 0. and yl = ref 0. and yh = ref 0. in
  let sl = ref 0. and sh = ref 0. and dl = ref 0. and dh = ref 0. in
  let hulled = ref false in
  for k = 0 to 8 + sdr_uniform - 1 do
    let t =
      match k with
      | 0 -> critical r ba.xh bb.xh
      | 1 -> critical r (-.ba.xl) (-.bb.xl)
      | 2 -> critical r ba.yh bb.yh
      | 3 -> critical r (-.ba.yl) (-.bb.yl)
      | 4 -> critical r ba.sh bb.sh
      | 5 -> critical r (-.ba.sl) (-.bb.sl)
      | 6 -> critical r ba.dh bb.dh
      | 7 -> critical r (-.ba.dl) (-.bb.dl)
      | i -> r *. float_of_int (i - 8) /. float_of_int (sdr_uniform - 1)
    in
    let t = if t < 0. then 0. else if t > r then r else t in
    Float.Array.unsafe_set h k t;
    let j = ref 0 in
    while !j < k && Float.Array.unsafe_get h !j <> t do
      incr j
    done;
    if !j = k then begin
      let ta = fmax 0. t and tb = fmax 0. (r -. t) in
      fill s
        (fmax (ba.xl -. ta) (bb.xl -. tb))
        (fmin (ba.xh +. ta) (bb.xh +. tb))
        (fmax (ba.yl -. ta) (bb.yl -. tb))
        (fmin (ba.yh +. ta) (bb.yh +. tb))
        (fmax (ba.sl -. ta) (bb.sl -. tb))
        (fmin (ba.sh +. ta) (bb.sh +. tb))
        (fmax (ba.dl -. ta) (bb.dl -. tb))
        (fmin (ba.dh +. ta) (bb.dh +. tb));
      if close s then begin
        if !hulled then begin
          xl := fmin !xl (Float.Array.unsafe_get s 0);
          xh := fmax !xh (Float.Array.unsafe_get s 1);
          yl := fmin !yl (Float.Array.unsafe_get s 2);
          yh := fmax !yh (Float.Array.unsafe_get s 3);
          sl := fmin !sl (Float.Array.unsafe_get s 4);
          sh := fmax !sh (Float.Array.unsafe_get s 5);
          dl := fmin !dl (Float.Array.unsafe_get s 6);
          dh := fmax !dh (Float.Array.unsafe_get s 7)
        end
        else begin
          hulled := true;
          xl := Float.Array.unsafe_get s 0;
          xh := Float.Array.unsafe_get s 1;
          yl := Float.Array.unsafe_get s 2;
          yh := Float.Array.unsafe_get s 3;
          sl := Float.Array.unsafe_get s 4;
          sh := Float.Array.unsafe_get s 5;
          dl := Float.Array.unsafe_get s 6;
          dh := Float.Array.unsafe_get s 7
        end
      end
    end
  done;
  if !hulled then begin
    Float.Array.unsafe_set h hull_at !xl;
    Float.Array.unsafe_set h (hull_at + 1) !xh;
    Float.Array.unsafe_set h (hull_at + 2) !yl;
    Float.Array.unsafe_set h (hull_at + 3) !yh;
    Float.Array.unsafe_set h (hull_at + 4) !sl;
    Float.Array.unsafe_set h (hull_at + 5) !sh;
    Float.Array.unsafe_set h (hull_at + 6) !dl;
    Float.Array.unsafe_set h (hull_at + 7) !dh
  end;
  !hulled

let sdr a b =
  let r = dist a b in
  if r <= Eps.tol then inter a b
  else
    match (a, b) with
    | Empty, _ | _, Empty -> Empty
    | O ba, O bb ->
      let h = Domain.DLS.get sdr_key in
      if sdr_slices (Domain.DLS.get scratch_key) h ba bb r then
        O
          {
            xl = Float.Array.unsafe_get h hull_at;
            xh = Float.Array.unsafe_get h (hull_at + 1);
            yl = Float.Array.unsafe_get h (hull_at + 2);
            yh = Float.Array.unsafe_get h (hull_at + 3);
            sl = Float.Array.unsafe_get h (hull_at + 4);
            sh = Float.Array.unsafe_get h (hull_at + 5);
            dl = Float.Array.unsafe_get h (hull_at + 6);
            dh = Float.Array.unsafe_get h (hull_at + 7);
          }
      else Empty

(* [inter (inflate ra a) (inflate rb b)]'s raw bounds, with the same
   float operations. *)
let[@inline] fill_within s ra a rb b =
  let ra = fmax 0. ra and rb = fmax 0. rb in
  fill s
    (fmax (a.xl -. ra) (b.xl -. rb))
    (fmin (a.xh +. ra) (b.xh +. rb))
    (fmax (a.yl -. ra) (b.yl -. rb))
    (fmin (a.yh +. ra) (b.yh +. rb))
    (fmax (a.sl -. ra) (b.sl -. rb))
    (fmin (a.sh +. ra) (b.sh +. rb))
    (fmax (a.dl -. ra) (b.dl -. rb))
    (fmin (a.dh +. ra) (b.dh +. rb))

(* Bound [i] of [inter] of the hull in [h] and the closed bounds in
   [s], in that operand order. *)
let[@inline] meet_lo h s i =
  fmax (Float.Array.unsafe_get h (hull_at + i)) (Float.Array.unsafe_get s i)

let[@inline] meet_hi h s i =
  fmin (Float.Array.unsafe_get h (hull_at + i)) (Float.Array.unsafe_get s i)

let within ~ra a ~rb b =
  match (a, b) with
  | Empty, _ | _, Empty -> Empty
  | O ba, O bb ->
    let s = Domain.DLS.get scratch_key in
    fill_within s ra ba rb bb;
    closed s

let sdr_within a b ~ra ~rb =
  let r = dist a b in
  if r <= Eps.tol then inter (inter a b) (within ~ra a ~rb b)
  else
    match (a, b) with
    | Empty, _ | _, Empty -> Empty
    | O ba, O bb ->
      let s = Domain.DLS.get scratch_key and h = Domain.DLS.get sdr_key in
      if not (sdr_slices s h ba bb r) then Empty
      else begin
        fill_within s ra ba rb bb;
        if not (close s) then Empty
        else begin
          (* [inter] of the hull and the closed inflations, in that
             operand order. *)
          fill s (meet_lo h s 0) (meet_hi h s 1) (meet_lo h s 2) (meet_hi h s 3)
            (meet_lo h s 4) (meet_hi h s 5) (meet_lo h s 6) (meet_hi h s 7);
          closed s
        end
      end

let is_point = function
  | Empty -> false
  | O b -> b.xh -. b.xl <= Eps.tol && b.yh -. b.yl <= Eps.tol

let x_range = function
  | Empty -> invalid_arg "Octagon.x_range: empty octagon"
  | O b -> Interval.make b.xl b.xh

let y_range = function
  | Empty -> invalid_arg "Octagon.y_range: empty octagon"
  | O b -> Interval.make b.yl b.yh

(* In rotated coordinates (s, d) the L1 metric is Chebyshev, so the L1
   diameter is the larger of the two rotated extents. *)
let[@inline] diameter = function
  | Empty -> 0.
  | O b -> fmax (b.sh -. b.sl) (b.dh -. b.dl)

let vertices o =
  match o with
  | Empty -> []
  | O b ->
    let candidates =
      [
        Pt.make b.xh (b.sh -. b.xh);
        Pt.make (b.sh -. b.yh) b.yh;
        Pt.make (b.dl +. b.yh) b.yh;
        Pt.make b.xl (b.xl -. b.dl);
        Pt.make b.xl (b.sl -. b.xl);
        Pt.make (b.sl -. b.yl) b.yl;
        Pt.make (b.dh +. b.yl) b.yl;
        Pt.make b.xh (b.xh -. b.dh);
      ]
    in
    let inside = List.filter (contains o) candidates in
    let rec dedupe = function
      | p :: (q :: _ as rest) -> if Pt.equal p q then dedupe rest else p :: dedupe rest
      | rest -> rest
    in
    let vs = dedupe inside in
    (match vs with
     | first :: (_ :: _ as rest) ->
       let last = List.nth rest (List.length rest - 1) in
       if Pt.equal first last then first :: List.filteri (fun i _ -> i < List.length rest - 1) rest
       else vs
     | vs -> vs)

let area o =
  match vertices o with
  | [] | [ _ ] | [ _; _ ] -> 0.
  | vs ->
    let arr = Array.of_list vs in
    let n = Array.length arr in
    let acc = ref 0. in
    for i = 0 to n - 1 do
      let p = arr.(i) and q = arr.((i + 1) mod n) in
      acc := !acc +. ((p.Pt.x *. q.Pt.y) -. (q.Pt.x *. p.Pt.y))
    done;
    Float.abs !acc /. 2.

let equal a b =
  match (a, b) with
  | Empty, Empty -> true
  | Empty, O _ | O _, Empty -> false
  | O a, O b ->
    Eps.equal a.xl b.xl && Eps.equal a.xh b.xh && Eps.equal a.yl b.yl
    && Eps.equal a.yh b.yh && Eps.equal a.sl b.sl && Eps.equal a.sh b.sh
    && Eps.equal a.dl b.dl && Eps.equal a.dh b.dh

let pp ppf = function
  | Empty -> Format.fprintf ppf "<empty>"
  | O b ->
    Format.fprintf ppf "{x:[%g,%g] y:[%g,%g] s:[%g,%g] d:[%g,%g]}" b.xl b.xh
      b.yl b.yh b.sl b.sh b.dl b.dh
