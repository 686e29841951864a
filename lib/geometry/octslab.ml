(* Flat structure-of-arrays storage for canonical octagons: 8 float
   bounds per slot in one [floatarray], indexed by an integer id.  The
   merge-ranking hot loops read region distances and diameters millions
   of times per run; keeping the bounds unboxed and contiguous makes
   those kernels allocation-free and cache-friendly, where the boxed
   [Octagon.t] representation costs a pointer chase and a variant test
   per access. *)

type t = { mutable data : floatarray; mutable slots : int }

(* Slot layout mirrors Octagon.bounds field order. *)
let o_xl = 0
let o_xh = 1
let o_yl = 2
let o_yh = 3
let o_sl = 4
let o_sh = 5
let o_dl = 6
let o_dh = 7

let create slots =
  let slots = Int.max 1 slots in
  { data = Float.Array.make (8 * slots) Float.nan; slots }

let slots t = t.slots

let ensure t slot =
  if slot >= t.slots then begin
    let slots = Int.max (slot + 1) (2 * t.slots) in
    let data = Float.Array.make (8 * slots) Float.nan in
    Float.Array.blit t.data 0 data 0 (8 * t.slots);
    t.data <- data;
    t.slots <- slots
  end

let set t slot (o : Octagon.t) =
  match Octagon.bounds o with
  | None -> invalid_arg "Octslab.set: empty octagon"
  | Some b ->
    ensure t slot;
    let d = t.data in
    let base = 8 * slot in
    Float.Array.unsafe_set d (base + o_xl) b.xl;
    Float.Array.unsafe_set d (base + o_xh) b.xh;
    Float.Array.unsafe_set d (base + o_yl) b.yl;
    Float.Array.unsafe_set d (base + o_yh) b.yh;
    Float.Array.unsafe_set d (base + o_sl) b.sl;
    Float.Array.unsafe_set d (base + o_sh) b.sh;
    Float.Array.unsafe_set d (base + o_dl) b.dl;
    Float.Array.unsafe_set d (base + o_dh) b.dh

let get t slot =
  if slot < 0 || slot >= t.slots then invalid_arg "Octslab.get: slot out of range";
  let d = t.data in
  let base = 8 * slot in
  Octagon.of_canonical_bounds
    {
      xl = Float.Array.get d (base + o_xl);
      xh = Float.Array.get d (base + o_xh);
      yl = Float.Array.get d (base + o_yl);
      yh = Float.Array.get d (base + o_yh);
      sl = Float.Array.get d (base + o_sl);
      sh = Float.Array.get d (base + o_sh);
      dl = Float.Array.get d (base + o_dl);
      dh = Float.Array.get d (base + o_dh);
    }

(* Float.max is an out-of-line call that boxes its arguments; this
   inlined form is not, and the gap chain below runs on every ranking
   candidate.  It differs from Float.max only in the sign of a zero
   result ([fmax (-0.) 0.] is [-0.], Float.max gives [+0.]); NaN
   propagates in both. *)
let[@inline] fmax (a : float) b = if a >= b || a <> a then a else b

(* Same max-of-support-gaps chain as Octagon.dist, in the same
   operation order, so slab distances are bit-identical to boxed ones.
   The chain's maximum equals Float.max's up to the sign of a zero, and
   that sign only reaches the final [fmax 0. g], which returns [+0.]
   for either zero, as [Float.max 0. g] does. *)
let[@inline] dist t i j =
  let d = t.data in
  let a = 8 * i and b = 8 * j in
  let g =
    Float.Array.unsafe_get d (b + o_xl) -. Float.Array.unsafe_get d (a + o_xh)
  in
  let g =
    fmax g
      (Float.Array.unsafe_get d (a + o_xl) -. Float.Array.unsafe_get d (b + o_xh))
  in
  let g =
    fmax g
      (Float.Array.unsafe_get d (b + o_yl) -. Float.Array.unsafe_get d (a + o_yh))
  in
  let g =
    fmax g
      (Float.Array.unsafe_get d (a + o_yl) -. Float.Array.unsafe_get d (b + o_yh))
  in
  let g =
    fmax g
      (Float.Array.unsafe_get d (b + o_sl) -. Float.Array.unsafe_get d (a + o_sh))
  in
  let g =
    fmax g
      (Float.Array.unsafe_get d (a + o_sl) -. Float.Array.unsafe_get d (b + o_sh))
  in
  let g =
    fmax g
      (Float.Array.unsafe_get d (b + o_dl) -. Float.Array.unsafe_get d (a + o_dh))
  in
  let g =
    fmax g
      (Float.Array.unsafe_get d (a + o_dl) -. Float.Array.unsafe_get d (b + o_dh))
  in
  fmax 0. g

(* Mirrors Octagon.diameter: larger of the two rotated extents. *)
let[@inline] diameter t i =
  let d = t.data in
  let base = 8 * i in
  Float.max
    (Float.Array.unsafe_get d (base + o_sh) -. Float.Array.unsafe_get d (base + o_sl))
    (Float.Array.unsafe_get d (base + o_dh) -. Float.Array.unsafe_get d (base + o_dl))

(* [Octagon.of_point]'s bounds. *)
let set_point t slot (p : Pt.t) =
  ensure t slot;
  let d = t.data and base = 8 * slot in
  let s = p.x +. p.y and dd = p.x -. p.y in
  Float.Array.unsafe_set d (base + o_xl) p.x;
  Float.Array.unsafe_set d (base + o_xh) p.x;
  Float.Array.unsafe_set d (base + o_yl) p.y;
  Float.Array.unsafe_set d (base + o_yh) p.y;
  Float.Array.unsafe_set d (base + o_sl) s;
  Float.Array.unsafe_set d (base + o_sh) s;
  Float.Array.unsafe_set d (base + o_dl) dd;
  Float.Array.unsafe_set d (base + o_dh) dd

(* [Float.min]/[Float.max] bit for bit, signed zeros included (as
   Octagon's), and [Eps.clamp]/[Eps.leq], written out so no float
   boxes. *)
let[@inline] fmin_exact x y =
  if x < y then x
  else if y < x then y
  else if (not (Float.sign_bit y)) && Float.sign_bit x then if y <> y then y else x
  else if x <> x then x
  else y

let[@inline] fmax_exact x y =
  if x < y then y
  else if y < x then x
  else if (not (Float.sign_bit y)) && Float.sign_bit x then if x <> x then x else y
  else if y <> y then y
  else x

let[@inline] clamp (lo : float) hi x = if x < lo then lo else if x > hi then hi else x
let[@inline] leq a b = a <= b +. Eps.tol

(* Octagon.nearest_point: its containment test, then x clamped and y
   clamped within the slice at x, in its operation order. *)
let nearest t slot (p : Pt.t) xy =
  let d = t.data and base = 8 * slot in
  let xl = Float.Array.unsafe_get d (base + o_xl) in
  let xh = Float.Array.unsafe_get d (base + o_xh) in
  let yl = Float.Array.unsafe_get d (base + o_yl) in
  let yh = Float.Array.unsafe_get d (base + o_yh) in
  let sl = Float.Array.unsafe_get d (base + o_sl) in
  let sh = Float.Array.unsafe_get d (base + o_sh) in
  let dl = Float.Array.unsafe_get d (base + o_dl) in
  let dh = Float.Array.unsafe_get d (base + o_dh) in
  let s = p.x +. p.y and dd = p.x -. p.y in
  let inside =
    leq xl p.x && leq p.x xh && leq yl p.y && leq p.y yh && leq sl s && leq s sh
    && leq dl dd && leq dd dh
  in
  if inside then begin
    Float.Array.set xy 0 p.x;
    Float.Array.set xy 1 p.y
  end
  else begin
    let x = clamp xl xh p.x in
    let ylo = fmax_exact yl (fmax_exact (sl -. x) (x -. dh)) in
    let yhi = fmin_exact yh (fmin_exact (sh -. x) (x -. dl)) in
    Float.Array.set xy 0 x;
    Float.Array.set xy 1 (if ylo > yhi then (ylo +. yhi) /. 2. else clamp ylo yhi p.y)
  end;
  inside
