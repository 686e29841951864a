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
