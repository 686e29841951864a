(** Flat structure-of-arrays storage for canonical octagons.

    A slab holds 8 float bounds per slot (the {!Octagon.bounds} fields,
    in declaration order) in one flat float array, slot [i] at offset
    [8 i]: the layout of an {!Octagon.t}, many to an array.  It backs the
    DME planning run's regions, by subtree id: the hot kernels read the
    bounds unboxed, a merge writes its region straight into its slot,
    and each is the same kernel as its {!Octagon} counterpart — the slab
    is a storage change, never a semantic one.

    A slot is written by one domain; concurrent {e reads} (parallel
    ranking probes against a frozen slab) are safe, and so are writes
    to distinct slots below the capacity while nothing grows the
    slab. *)

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

(** [center t slot xs ys] writes [Octagon.center (get t slot)] to
    [xs.(slot)] (x) and [ys.(slot)] (y). *)
val center : t -> int -> floatarray -> floatarray -> unit

(** [radius t slot xs ys] is [Octagon.radius (get t slot) c] for the
    point [c] at [xs.(slot)], [ys.(slot)]. *)
val radius : t -> int -> floatarray -> floatarray -> float

(** [inter t dst a b] writes [Octagon.inter (get t a) (get t b)] to
    slot [dst] and returns [true], or writes nothing and returns [false]
    when it is empty.  Like {!set}, the writes below grow the slab when
    [dst] is past its capacity. *)
val inter : t -> int -> int -> int -> bool

(** [within t dst ~ra a ~rb b] is {!inter} for [Octagon.inter
    (Octagon.inflate ra (get t a)) (Octagon.inflate rb (get t b))], a
    negative radius taken as 0: the points within [ra] of [a] and
    [rb] of [b]. *)
val within : t -> int -> ra:float -> int -> rb:float -> int -> bool

(** [sdr_within t dst a b ~ra ~rb] is {!inter} for [Octagon.inter
    (Octagon.sdr (get t a) (get t b)) w], where [w] is the region
    {!within} writes: the shortest-path points between [a] and [b]
    within [ra] of [a] and [rb] of [b].  It allocates nothing when the
    two lie more than the tolerance apart. *)
val sdr_within : t -> int -> int -> int -> ra:float -> rb:float -> bool

(** [closest_point t dst a b] writes the point of [get t a] that
    [Octagon.closest_pair] pairs with [get t b]. *)
val closest_point : t -> int -> int -> int -> unit

(** [copy src i dst j] writes slot [i] of [src] to slot [j] of [dst]. *)
val copy : t -> int -> t -> int -> unit
