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

(* One layout serves every octagon: the 8 canonical bounds
   [xl xh yl yh sl sh dl dh], in that order, at an offset in a flat
   [float array] (OCaml stores float arrays unboxed, as a [floatarray]).
   A region is an 8-float array at offset 0, the empty octagon the empty
   array; a {!Slab} holds slot [i] at offset [8 i].  Each formula below
   is one [@inline] kernel over (array, offset), and both forms call it.
   A region is built with an array literal, which allocates inline;
   [Float.Array.create] is a C call. *)
type t = float array

let empty : t = [||]
let[@inline] is_empty (o : t) = Array.length o = 0

(* Bound accessors: the bounds of the octagon at offset [i] of [a]. *)
let[@inline] xl (a : float array) i = Array.unsafe_get a i
let[@inline] xh (a : float array) i = Array.unsafe_get a (i + 1)
let[@inline] yl (a : float array) i = Array.unsafe_get a (i + 2)
let[@inline] yh (a : float array) i = Array.unsafe_get a (i + 3)
let[@inline] sl (a : float array) i = Array.unsafe_get a (i + 4)
let[@inline] sh (a : float array) i = Array.unsafe_get a (i + 5)
let[@inline] dl (a : float array) i = Array.unsafe_get a (i + 6)
let[@inline] dh (a : float array) i = Array.unsafe_get a (i + 7)

(* The octagon at offset [i] of [a] as a region: the read-back of a
   closure and of a slab slot. *)
let[@inline] load (a : float array) i : t =
  [| xl a i; xh a i; yl a i; yh a i; sl a i; sh a i; dl a i; dh a i |]

(* Write bounds at offset [i] of [a]. *)
let[@inline] fill (a : float array) i xl xh yl yh sl sh dl dh =
  Array.unsafe_set a i xl;
  Array.unsafe_set a (i + 1) xh;
  Array.unsafe_set a (i + 2) yl;
  Array.unsafe_set a (i + 3) yh;
  Array.unsafe_set a (i + 4) sl;
  Array.unsafe_set a (i + 5) sh;
  Array.unsafe_set a (i + 6) dl;
  Array.unsafe_set a (i + 7) dh

let bounds o =
  if is_empty o then None
  else
    Some
      { xl = xl o 0; xh = xh o 0; yl = yl o 0; yh = yh o 0; sl = sl o 0; sh = sh o 0;
        dl = dl o 0; dh = dh o 0 }

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

let close (s : float array) =
  let xl = Array.unsafe_get s 0 and xh = Array.unsafe_get s 1 in
  let yl = Array.unsafe_get s 2 and yh = Array.unsafe_get s 3 in
  let sl = Array.unsafe_get s 4 and sh = Array.unsafe_get s 5 in
  let dl = Array.unsafe_get s 6 and dh = Array.unsafe_get s 7 in
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
    Array.unsafe_set s 0 (-. !m10 /. 2.);
    Array.unsafe_set s 1 (!m01 /. 2.);
    Array.unsafe_set s 2 (-. !m32 /. 2.);
    Array.unsafe_set s 3 (!m23 /. 2.);
    Array.unsafe_set s 4 (-. !m12);
    Array.unsafe_set s 5 !m03;
    Array.unsafe_set s 6 (-. !m20);
    Array.unsafe_set s 7 !m02;
    true
  end

(* Per-domain scratch for {!close}: raw bounds in, tight bounds out.
   Every caller fills it and reads it back without running another
   closure in between, so one buffer per domain is never shared. *)
let scratch_key = Domain.DLS.new_key (fun () -> Array.make 8 0.)

(* The closure of the raw bounds in [s]. *)
let closed s = if close s then load s 0 else empty

let of_bounds ~xl ~xh ~yl ~yh ~sl ~sh ~dl ~dh =
  let s = Domain.DLS.get scratch_key in
  fill s 0 xl xh yl yh sl sh dl dh;
  closed s

let of_point (p : Pt.t) : t =
  let s = Pt.s p and d = Pt.d p in
  [| p.x; p.x; p.y; p.y; s; s; d; d |]

let ball (p : Pt.t) r : t =
  let r = Eps.fmax 0. r in
  let s = Pt.s p and d = Pt.d p in
  [| p.x -. r; p.x +. r; p.y -. r; p.y +. r; s -. r; s +. r; d -. r; d +. r |]

(* Containment of [(x, y)] in the bounds, within the tolerance. *)
let[@inline] inside xl xh yl yh sl sh dl dh x y =
  let s = x +. y and d = x -. y in
  Eps.leq xl x && Eps.leq x xh && Eps.leq yl y && Eps.leq y yh
  && Eps.leq sl s && Eps.leq s sh && Eps.leq dl d && Eps.leq d dh

let[@inline] contains_at a i x y =
  inside (xl a i) (xh a i) (yl a i) (yh a i) (sl a i) (sh a i) (dl a i) (dh a i) x y

let contains o (p : Pt.t) = (not (is_empty o)) && contains_at o 0 p.x p.y

(* The intersection of the octagons at offsets [ao] of [a] and [bo] of
   [b], closed in [s]; [false] when it is empty. *)
let[@inline] inter_into s a ao b bo =
  fill s 0
    (Eps.fmax (xl a ao) (xl b bo)) (Eps.fmin (xh a ao) (xh b bo))
    (Eps.fmax (yl a ao) (yl b bo)) (Eps.fmin (yh a ao) (yh b bo))
    (Eps.fmax (sl a ao) (sl b bo)) (Eps.fmin (sh a ao) (sh b bo))
    (Eps.fmax (dl a ao) (dl b bo)) (Eps.fmin (dh a ao) (dh b bo));
  close s

let inter a b =
  if is_empty a || is_empty b then empty
  else begin
    let s = Domain.DLS.get scratch_key in
    if inter_into s a 0 b 0 then load s 0 else empty
  end

(* Supports of a convex hull are the pointwise maxima of supports, so the
   componentwise envelope of two canonical octagons is already canonical. *)
let hull a b : t =
  if is_empty a then b
  else if is_empty b then a
  else
    [| Eps.fmin (xl a 0) (xl b 0); Eps.fmax (xh a 0) (xh b 0);
       Eps.fmin (yl a 0) (yl b 0); Eps.fmax (yh a 0) (yh b 0);
       Eps.fmin (sl a 0) (sl b 0); Eps.fmax (sh a 0) (sh b 0);
       Eps.fmin (dl a 0) (dl b 0); Eps.fmax (dh a 0) (dh b 0) |]

let inflate r o : t =
  let r = Eps.fmax 0. r in
  if is_empty o then empty
  else
    [| xl o 0 -. r; xh o 0 +. r; yl o 0 -. r; yh o 0 +. r;
       sl o 0 -. r; sh o 0 +. r; dl o 0 -. r; dh o 0 +. r |]

(* L1 distance between canonical octagons: the largest support gap over the
   8 constraint directions.  Each violated half-plane costs exactly its gap
   in L1 motion (all 8 normals have unit dual norm), and canonical
   tightness guarantees the maximum gap is simultaneously achievable. *)
let[@inline] dist_at a i b j =
  let g = xl b j -. xh a i in
  let g = Eps.fmax g (xl a i -. xh b j) in
  let g = Eps.fmax g (yl b j -. yh a i) in
  let g = Eps.fmax g (yl a i -. yh b j) in
  let g = Eps.fmax g (sl b j -. sh a i) in
  let g = Eps.fmax g (sl a i -. sh b j) in
  let g = Eps.fmax g (dl b j -. dh a i) in
  let g = Eps.fmax g (dl a i -. dh b j) in
  Eps.fmax 0. g

let[@inline] dist a b =
  if is_empty a || is_empty b then invalid_arg "Octagon.dist: empty octagon";
  dist_at a 0 b 0

(* The bounds of the slice at [x]: the y range the y, s and d bounds
   leave there. *)
let[@inline] slice_lo yl sl dh x = Eps.fmax yl (Eps.fmax (sl -. x) (x -. dh))
let[@inline] slice_hi yh sh dl x = Eps.fmin yh (Eps.fmin (sh -. x) (x -. dl))

(* The center of the octagon at offset [i] of [a]: the midpoint [x] of
   its x range, then the midpoint of its slice there. *)
let[@inline] center_x a i = (xl a i +. xh a i) /. 2.

let[@inline] center_y a i x =
  (slice_lo (yl a i) (sl a i) (dh a i) x +. slice_hi (yh a i) (sh a i) (dl a i) x) /. 2.

let center o =
  if is_empty o then invalid_arg "Octagon.center: empty octagon";
  let x = center_x o 0 in
  Pt.make x (center_y o 0 x)

(* |dx| + |dy| = max (|ds|, |dd|) for s = x + y and d = x - y, so the
   farthest point lies at the larger reach of the s and d extents. *)
let[@inline] radius_at a i x y =
  let cs = x +. y and cd = x -. y in
  Eps.fmax
    (Eps.fmax (sh a i -. cs) (cs -. sl a i))
    (Eps.fmax (dh a i -. cd) (cd -. dl a i))

let radius o (c : Pt.t) =
  if is_empty o then invalid_arg "Octagon.radius: empty octagon";
  radius_at o 0 c.x c.y

(* L1 projection by clamping x first, then y within the slice at that x,
   written to [xy]; [true] when that point is [p] itself, inside the
   bounds within the tolerance.  For canonical octagons this realizes
   the max-violation distance: every violated constraint has unit dual
   norm, and the x/y clamps discharge the x/y violations while the
   slice bounds discharge the s/d ones.  Exactness is property-tested
   against [dist] to the point's octagon. *)
let[@inline] nearest xl xh yl yh sl sh dl dh (p : Pt.t) xy =
  let kept = inside xl xh yl yh sl sh dl dh p.x p.y in
  if kept then begin
    Float.Array.set xy 0 p.x;
    Float.Array.set xy 1 p.y
  end
  else begin
    let x = Eps.clamp xl xh p.x in
    let ylo = slice_lo yl sl dh x and yhi = slice_hi yh sh dl x in
    Float.Array.set xy 0 x;
    Float.Array.set xy 1 (if ylo > yhi then (ylo +. yhi) /. 2. else Eps.clamp ylo yhi p.y)
  end;
  kept

let[@inline] nearest_at a i p xy =
  nearest (xl a i) (xh a i) (yl a i) (yh a i) (sl a i) (sh a i) (dl a i) (dh a i) p xy

let nearest_into o p xy =
  if is_empty o then invalid_arg "Octagon.nearest_point: empty octagon";
  nearest_at o 0 p xy

let point_nearest (c : Pt.t) p xy =
  let s = c.x +. c.y and d = c.x -. c.y in
  nearest c.x c.x c.y c.y s s d d p xy

let nearest_point o p =
  let xy = Float.Array.create 2 in
  if nearest_into o p xy then p
  else Pt.make (Float.Array.get xy 0) (Float.Array.get xy 1)

let closest_pair a b =
  let r = dist a b in
  (* The inflation margin absorbs closure tolerance (x/y violations are
     doubled in the DBM encoding), at the cost of ~margin slack in the
     returned pair distance. *)
  let qa = inter a (inflate (r +. (50. *. Eps.tol)) b) in
  let qa = if is_empty qa then a else qa in
  let pa = center qa in
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
   again cannot move the hull ([Eps.fmin]/[Eps.fmax] are idempotent, bit for
   bit), so a slice whose t equals an earlier one's is skipped: the
   critical t of opposite sides often coincide, and for two points all
   eight do. *)

(* Uniform slices of {!sdr}, both ends included; with the 8 critical
   ones, 17 slices per SDR. *)
let sdr_uniform = 9

(* Per-domain scratch for {!sdr}: the clamped t of the slices taken so
   far at [0 .. 16], and the hull's bounds at [hull_at ..]. *)
let hull_at = 8 + sdr_uniform
let sdr_key = Domain.DLS.new_key (fun () -> Array.make (hull_at + 8) 0.)

let[@inline] critical r ha hb = (hb -. ha +. r) /. 2.

(* The hull of the slices of [a] and [b] at distance [r > 0], written
   to [h.(hull_at ..)]; [false] when every slice is empty.  [s] is the
   closure scratch.  Inlined, so [r] is not boxed; the running hull is
   kept in unboxed locals, which measured faster than folding it into
   [h] in a loop. *)
let[@inline] sdr_slices s (h : float array) a ao b bo r =
  let hxl = ref 0. and hxh = ref 0. and hyl = ref 0. and hyh = ref 0. in
  let hsl = ref 0. and hsh = ref 0. and hdl = ref 0. and hdh = ref 0. in
  let hulled = ref false in
  for k = 0 to 8 + sdr_uniform - 1 do
    let t =
      match k with
      | 0 -> critical r (xh a ao) (xh b bo)
      | 1 -> critical r (-.xl a ao) (-.xl b bo)
      | 2 -> critical r (yh a ao) (yh b bo)
      | 3 -> critical r (-.yl a ao) (-.yl b bo)
      | 4 -> critical r (sh a ao) (sh b bo)
      | 5 -> critical r (-.sl a ao) (-.sl b bo)
      | 6 -> critical r (dh a ao) (dh b bo)
      | 7 -> critical r (-.dl a ao) (-.dl b bo)
      | i -> r *. float_of_int (i - 8) /. float_of_int (sdr_uniform - 1)
    in
    let t = if t < 0. then 0. else if t > r then r else t in
    Array.unsafe_set h k t;
    let j = ref 0 in
    while !j < k && Array.unsafe_get h !j <> t do
      incr j
    done;
    if !j = k then begin
      let ta = Eps.fmax 0. t and tb = Eps.fmax 0. (r -. t) in
      fill s 0
        (Eps.fmax (xl a ao -. ta) (xl b bo -. tb))
        (Eps.fmin (xh a ao +. ta) (xh b bo +. tb))
        (Eps.fmax (yl a ao -. ta) (yl b bo -. tb))
        (Eps.fmin (yh a ao +. ta) (yh b bo +. tb))
        (Eps.fmax (sl a ao -. ta) (sl b bo -. tb))
        (Eps.fmin (sh a ao +. ta) (sh b bo +. tb))
        (Eps.fmax (dl a ao -. ta) (dl b bo -. tb))
        (Eps.fmin (dh a ao +. ta) (dh b bo +. tb));
      if close s then begin
        if !hulled then begin
          hxl := Eps.fmin !hxl (xl s 0);
          hxh := Eps.fmax !hxh (xh s 0);
          hyl := Eps.fmin !hyl (yl s 0);
          hyh := Eps.fmax !hyh (yh s 0);
          hsl := Eps.fmin !hsl (sl s 0);
          hsh := Eps.fmax !hsh (sh s 0);
          hdl := Eps.fmin !hdl (dl s 0);
          hdh := Eps.fmax !hdh (dh s 0)
        end
        else begin
          hulled := true;
          hxl := xl s 0;
          hxh := xh s 0;
          hyl := yl s 0;
          hyh := yh s 0;
          hsl := sl s 0;
          hsh := sh s 0;
          hdl := dl s 0;
          hdh := dh s 0
        end
      end
    end
  done;
  if !hulled then fill h hull_at !hxl !hxh !hyl !hyh !hsl !hsh !hdl !hdh;
  !hulled

let sdr a b =
  let r = dist a b in
  if r <= Eps.tol then inter a b
  else
    let h = Domain.DLS.get sdr_key in
    if sdr_slices (Domain.DLS.get scratch_key) h a 0 b 0 r then load h hull_at else empty

(* [inter (inflate ra a) (inflate rb b)]'s raw bounds, with the same
   float operations. *)
let[@inline] fill_within s ra a ao rb b bo =
  let ra = Eps.fmax 0. ra and rb = Eps.fmax 0. rb in
  fill s 0
    (Eps.fmax (xl a ao -. ra) (xl b bo -. rb))
    (Eps.fmin (xh a ao +. ra) (xh b bo +. rb))
    (Eps.fmax (yl a ao -. ra) (yl b bo -. rb))
    (Eps.fmin (yh a ao +. ra) (yh b bo +. rb))
    (Eps.fmax (sl a ao -. ra) (sl b bo -. rb))
    (Eps.fmin (sh a ao +. ra) (sh b bo +. rb))
    (Eps.fmax (dl a ao -. ra) (dl b bo -. rb))
    (Eps.fmin (dh a ao +. ra) (dh b bo +. rb))

(* [sdr_within]'s bounds for octagons [r > Eps.tol] apart, closed in
   [s]; [false] when the result is empty.  [h] is the SDR scratch. *)
let[@inline] sdr_within_into s h a ao b bo r ra rb =
  sdr_slices s h a ao b bo r
  && begin
    fill_within s ra a ao rb b bo;
    close s
    && begin
      (* [inter] of the hull and the closed inflations, in that operand
         order. *)
      inter_into s h hull_at s 0
    end
  end

let x_range o =
  if is_empty o then invalid_arg "Octagon.x_range: empty octagon";
  Interval.make (xl o 0) (xh o 0)

let y_range o =
  if is_empty o then invalid_arg "Octagon.y_range: empty octagon";
  Interval.make (yl o 0) (yh o 0)

(* In rotated coordinates (s, d) the L1 metric is Chebyshev, so the L1
   diameter is the larger of the two rotated extents. *)
let[@inline] diameter_at a i = Eps.fmax (sh a i -. sl a i) (dh a i -. dl a i)
let diameter o = if is_empty o then 0. else diameter_at o 0

let vertices o =
  if is_empty o then []
  else begin
    let xl = xl o 0 and xh = xh o 0 and yl = yl o 0 and yh = yh o 0 in
    let sl = sl o 0 and sh = sh o 0 and dl = dl o 0 and dh = dh o 0 in
    let candidates =
      [
        Pt.make xh (sh -. xh);
        Pt.make (sh -. yh) yh;
        Pt.make (dl +. yh) yh;
        Pt.make xl (xl -. dl);
        Pt.make xl (sl -. xl);
        Pt.make (sl -. yl) yl;
        Pt.make (dh +. yl) yl;
        Pt.make xh (xh -. dh);
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
  end

let pp ppf o =
  if is_empty o then Format.fprintf ppf "<empty>"
  else
    Format.fprintf ppf "{x:[%g,%g] y:[%g,%g] s:[%g,%g] d:[%g,%g]}" (xl o 0) (xh o 0)
      (yl o 0) (yh o 0) (sl o 0) (sh o 0) (dl o 0) (dh o 0)

(* The slab form (re-exported as {!Octslab}): growable storage of many
   octagons at offsets [8 i] of one array, read by the kernels above. *)
module Slab = struct
  type nonrec t = { mutable data : float array; mutable slots : int }

  let create slots =
    let slots = Int.max 1 slots in
    { data = Array.make (8 * slots) Float.nan; slots }

  let ensure t slot =
    if slot >= t.slots then begin
      let slots = Int.max (slot + 1) (2 * t.slots) in
      let data = Array.make (8 * slots) Float.nan in
      Array.blit t.data 0 data 0 (8 * t.slots);
      t.data <- data;
      t.slots <- slots
    end

  let set t slot (o : float array) =
    if is_empty o then invalid_arg "Octslab.set: empty octagon";
    ensure t slot;
    fill t.data (8 * slot) (xl o 0) (xh o 0) (yl o 0) (yh o 0) (sl o 0) (sh o 0) (dl o 0)
      (dh o 0)

  let get t slot =
    if slot < 0 || slot >= t.slots then invalid_arg "Octslab.get: slot out of range";
    load t.data (8 * slot)

  let[@inline] dist t i j = dist_at t.data (8 * i) t.data (8 * j)
  let nearest t slot p xy = nearest_at t.data (8 * slot) p xy

  let[@inline] center t slot xs ys =
    let d = t.data and o = 8 * slot in
    let x = center_x d o in
    Float.Array.set xs slot x;
    Float.Array.set ys slot (center_y d o x)

  let[@inline] radius t slot xs ys =
    radius_at t.data (8 * slot) (Float.Array.get xs slot) (Float.Array.get ys slot)

  (* Write the closed bounds in [s] to slot [dst] when [ok]. *)
  let[@inline] keep t dst s ok =
    if ok then begin
      ensure t dst;
      fill t.data (8 * dst) (xl s 0) (xh s 0) (yl s 0) (yh s 0) (sl s 0) (sh s 0) (dl s 0)
        (dh s 0)
    end;
    ok

  let[@inline] within t dst ~ra a ~rb b =
    let s = Domain.DLS.get scratch_key and d = t.data in
    fill_within s ra d (8 * a) rb d (8 * b);
    keep t dst s (close s)

  let[@inline] sdr_within t dst a b ~ra ~rb =
    let d = t.data and ao = 8 * a and bo = 8 * b in
    let r = dist_at d ao d bo in
    if r <= Eps.tol then begin
      let a = load d ao and b = load d bo in
      let o = inter (inter a b) (inter (inflate ra a) (inflate rb b)) in
      if not (is_empty o) then set t dst o;
      not (is_empty o)
    end
    else begin
      let s = Domain.DLS.get scratch_key and h = Domain.DLS.get sdr_key in
      keep t dst s (sdr_within_into s h d ao d bo r ra rb)
    end

  let[@inline] inter t dst a b =
    let s = Domain.DLS.get scratch_key and d = t.data in
    keep t dst s (inter_into s d (8 * a) d (8 * b))

  let closest_point t dst a b =
    set t dst (of_point (fst (closest_pair (get t a) (get t b))))

  let copy src i dst j =
    ensure dst j;
    let d = src.data and o = 8 * i in
    fill dst.data (8 * j) (xl d o) (xh d o) (yl d o) (yh d o) (sl d o) (sh d o) (dl d o)
      (dh d o)
end
