(** Flat structure-of-arrays storage for canonical octagons.

    A slab holds 8 float bounds per slot (the {!Octagon.bounds} fields,
    in declaration order) in one flat float array, slot [i] at offset
    [8 i]: the layout of an {!Octagon.t}, many to an array.  It backs the
    DME merge-ranking arena: the hot kernels ({!dist} and
    {!nearest}) read the bounds unboxed, allocate nothing but a returned
    float, and are the same kernels as their {!Octagon} counterparts —
    the slab is a storage change, never a semantic one.

    Writers are single-domain; concurrent {e reads} (parallel ranking
    probes against a frozen slab) are safe. *)

type t

(** [create slots] allocates a slab with capacity for [slots] octagons
    (at least 1).  Slots hold NaN bounds until {!set}. *)
val create : int -> t

(** [set t slot o] stores the bounds of non-empty [o] at [slot], growing
    the slab as needed.  Raises [Invalid_argument] on the empty
    octagon. *)
val set : t -> int -> Octagon.t -> unit

(** A copy of the octagon stored at [slot], bit for bit.  Slots never
    written hold NaN bounds.  Raises [Invalid_argument] when [slot] is
    out of range. *)
val get : t -> int -> Octagon.t

(** [dist t i j] is [Octagon.dist (get t i) (get t j)]: the same
    kernel, without building the octagons. *)
val dist : t -> int -> int -> float

(** [nearest t slot p xy] is [Octagon.nearest_into (get t slot) p xy]:
    the same kernel, without building the octagon. *)
val nearest : t -> int -> Pt.t -> floatarray -> bool
