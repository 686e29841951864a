(** Flat structure-of-arrays storage for canonical octagons.

    A slab holds 8 float bounds per slot (the {!Octagon.bounds} fields,
    in declaration order) in one contiguous [floatarray], indexed by an
    integer id.  It backs the DME merge-ranking arena: the hot kernels
    ({!dist}, {!diameter}) read the bounds unboxed and allocate nothing,
    and are bit-identical to their {!Octagon} counterparts — the slab is
    a storage change, never a semantic one.

    Writers are single-domain; concurrent {e reads} (parallel ranking
    probes against a frozen slab) are safe. *)

type t

(** [create slots] allocates a slab with capacity for [slots] octagons
    (at least 1).  Slots hold NaN bounds until {!set}. *)
val create : int -> t

(** Current slot capacity. *)
val slots : t -> int

(** Grow (amortized doubling) so [slot] is addressable.  Existing slots
    are preserved. *)
val ensure : t -> int -> unit

(** [set t slot o] stores the bounds of non-empty [o] at [slot], growing
    the slab as needed.  Raises [Invalid_argument] on the empty
    octagon. *)
val set : t -> int -> Octagon.t -> unit

(** Rebuild the boxed octagon stored at [slot] — bit-exact round-trip
    via {!Octagon.of_canonical_bounds}.  Slots never written hold NaN
    bounds.  Raises [Invalid_argument] when [slot] is out of range. *)
val get : t -> int -> Octagon.t

(** [dist t i j] is [Octagon.dist (get t i) (get t j)], bit for bit,
    without allocating. *)
val dist : t -> int -> int -> float

(** [diameter t i] is [Octagon.diameter (get t i)], bit for bit, without
    allocating. *)
val diameter : t -> int -> float

(** [set_point t slot p] stores the bounds of [Octagon.of_point p] at
    [slot], growing the slab as needed, without building the octagon. *)
val set_point : t -> int -> Pt.t -> unit

(** [nearest t slot p xy] writes [Octagon.nearest_point (get t slot) p]
    to [xy.(0)] (x) and [xy.(1)] (y), bit for bit, without allocating,
    and returns whether that point is [p] itself ([p] lies in the
    region, within the containment tolerance). *)
val nearest : t -> int -> Pt.t -> floatarray -> bool
