(** Octilinear convex regions of the Manhattan plane.

    An octagon is the set [{ p : xl <= x <= xh, yl <= y <= yh,
    sl <= x+y <= sh, dl <= x-y <= dh }] kept in canonical (tight) form.
    The class contains points, Manhattan arcs (the ±45° merging segments of
    DME), axis-aligned rectangles and tilted rectangles (TRRs), and is
    closed under intersection, convex hull of unions, and Minkowski
    inflation by an L1 ball — every operation deferred-merge embedding
    needs.  Canonical form is computed exactly with the octagon-domain
    closure (Floyd–Warshall on the 4-node potential graph followed by the
    unary strengthening step), which makes L1 set distance a closed-form
    maximum of support gaps.

    An octagon is stored as its 8 canonical bounds in a flat float
    array, the layout {!Octslab} keeps many of to one array; each
    formula (distance, diameter, containment, nearest point, closure) is
    one kernel that both forms run. *)

type t

(** Tight bounds of a non-empty octagon; [s] is [x+y] and [d] is [x-y]. *)
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

val empty : t
val is_empty : t -> bool

(** [bounds o] is [None] on the empty octagon. *)
val bounds : t -> bounds option

(** Build from raw (possibly loose or inconsistent) bounds; the result is
    canonicalized and may be empty.  Use [Float.infinity] /
    [Float.neg_infinity] for absent upper / lower bounds.  The closure's
    entry for the oracle that compares it with a looped closure; routes
    build octagons from points, hulls and intersections. *)
val of_bounds :
  xl:float ->
  xh:float ->
  yl:float ->
  yh:float ->
  sl:float ->
  sh:float ->
  dl:float ->
  dh:float ->
  t
[@@reference]

val of_point : Pt.t -> t

(** L1 ball (diamond) of radius [r] centred at a point; [r >= 0]. *)
val ball : Pt.t -> float -> t

val contains : t -> Pt.t -> bool
val inter : t -> t -> t

(** Convex hull of the union. *)
val hull : t -> t -> t

(** Minkowski sum with the L1 ball of radius [r] — the tilted rectangular
    region (TRR) of DME when applied to a Manhattan arc.  [r >= 0]. *)
val inflate : float -> t -> t

(** Minimum L1 distance between two non-empty octagons (0 when they
    intersect).  Raises [Invalid_argument] on empty input. *)
val dist : t -> t -> float

(** A point of the region nearest (in L1) to the given point.  On the
    empty octagon raises [Invalid_argument]. *)
val nearest_point : t -> Pt.t -> Pt.t

(** [nearest_into o p xy] writes [nearest_point o p] to [xy.(0)] (x)
    and [xy.(1)] (y) without allocating, and returns whether that point
    is [p] itself ([p] lies in the region, within the containment
    tolerance).  On the empty octagon raises [Invalid_argument]. *)
val nearest_into : t -> Pt.t -> floatarray -> bool

(** [point_nearest c p xy] is [nearest_into (of_point c) p xy] without
    building the octagon. *)
val point_nearest : Pt.t -> Pt.t -> floatarray -> bool

(** [closest_pair a b] is a pair [(pa, pb)] with [pa] in [a], [pb] in [b]
    and [Pt.dist pa pb = dist a b]. *)
val closest_pair : t -> t -> Pt.t * Pt.t

(** Shortest-distance region between two octagons: the set of points lying
    on some L1-shortest path between them, i.e.
    [{ p : dist a (of_point p) + dist b (of_point p) = dist a b }].
    Computed as the hull
    of 17 exact slices [(a ⊕ t) ∩ (b ⊕ (D-t))] — the 8 critical [t] at
    which a support of the slice peaks, and 9 uniform ones from 0 to
    [D] — an inner approximation that is exact for generic inputs.  A
    slice at the same [t] as an earlier one is taken once.  Allocates
    only its result. *)
val sdr : t -> t -> t

val x_range : t -> Interval.t
val y_range : t -> Interval.t

(** L1 diameter: max L1 distance between two points of the region. *)
val diameter : t -> float

(** Midpoint-based representative, cheap; equals the point for point
    regions.  The value form of [Octslab.center], kept for the tests
    that check it. *)
val center : t -> Pt.t
[@@reference]

(** [radius o c] is the largest L1 distance from [c] to a point of [o]:
    the larger of the rotated extents' reaches from [c].  Raises
    [Invalid_argument] on the empty octagon.  The value form of
    [Octslab.radius], kept for the tests that check it. *)
val radius : t -> Pt.t -> float
[@@reference]

(** Boundary vertices in counter-clockwise order (at most 8), for
    display.  Empty list on the empty octagon. *)
val vertices : t -> Pt.t list

val pp : Format.formatter -> t -> unit

(** The slab form, re-exported and documented as {!Octslab}: kept here so
    that its kernels are this module's own. *)
module Slab : sig
  type octagon := t
  type t

  val create : int -> t
  val set : t -> int -> octagon -> unit
  val get : t -> int -> octagon
  val dist : t -> int -> int -> float
  val nearest : t -> int -> Pt.t -> floatarray -> bool
  val center : t -> int -> floatarray -> floatarray -> unit
  val radius : t -> int -> floatarray -> floatarray -> float
  val inter : t -> int -> int -> int -> bool
  val within : t -> int -> ra:float -> int -> rb:float -> int -> bool
  val sdr_within : t -> int -> int -> int -> ra:float -> rb:float -> bool
  val closest_point : t -> int -> int -> int -> unit
  val copy : t -> int -> t -> int -> unit
end
