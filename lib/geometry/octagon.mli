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
    maximum of support gaps. *)

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

(** Rebuild an octagon from bounds that are {e already canonical} (e.g.
    read back from an {!Octslab} slot).  No closure is run, so the
    round-trip [bounds] → [of_canonical_bounds] is bit-exact; feeding
    loose bounds breaks every canonical-form invariant — use
    {!of_bounds} for those. *)
val of_canonical_bounds : bounds -> t

(** Build from raw (possibly loose or inconsistent) bounds; the result is
    canonicalized and may be empty.  Use [Float.infinity] /
    [Float.neg_infinity] for absent upper / lower bounds. *)
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

val of_point : Pt.t -> t

(** Axis-aligned bounding box of two points. *)
val box : Pt.t -> Pt.t -> t

(** Octilinear segment between two points.  The segment must be horizontal,
    vertical or of slope ±1 (a Manhattan arc); otherwise
    [Invalid_argument] is raised. *)
val of_segment : Pt.t -> Pt.t -> t

(** L1 ball (diamond) of radius [r] centred at a point; [r >= 0]. *)
val ball : Pt.t -> float -> t

val contains : t -> Pt.t -> bool
val inter : t -> t -> t

(** Convex hull of the union. *)
val hull : t -> t -> t

val hull_list : t list -> t

(** Minkowski sum with the L1 ball of radius [r] — the tilted rectangular
    region (TRR) of DME when applied to a Manhattan arc.  [r >= 0]. *)
val inflate : float -> t -> t

val translate : Pt.t -> t -> t

(** Minimum L1 distance between two non-empty octagons (0 when they
    intersect).  Raises [Invalid_argument] on empty input. *)
val dist : t -> t -> float

(** Minimum L1 distance from a point. *)
val dist_pt : t -> Pt.t -> float

(** A point of the region nearest (in L1) to the given point.  On the
    empty octagon raises [Invalid_argument]. *)
val nearest_point : t -> Pt.t -> Pt.t

(** A representative interior point (midpoint-based). *)
val pick_point : t -> Pt.t

(** [closest_pair a b] is a pair [(pa, pb)] with [pa] in [a], [pb] in [b]
    and [Pt.dist pa pb = dist a b]. *)
val closest_pair : t -> t -> Pt.t * Pt.t

(** Shortest-distance region between two octagons: the set of points lying
    on some L1-shortest path between them, i.e.
    [{ p : dist_pt a p + dist_pt b p = dist a b }].  Computed as the hull
    of 17 exact slices [(a ⊕ t) ∩ (b ⊕ (D-t))] — the 8 critical [t] at
    which a support of the slice peaks, and 9 uniform ones from 0 to
    [D] — an inner approximation that is exact for generic inputs.  A
    slice at the same [t] as an earlier one is taken once.  Allocates
    only its result. *)
val sdr : t -> t -> t

(** [within ~ra a ~rb b] is [inter (inflate ra a) (inflate rb b)], bit
    for bit — the points within L1 distance [ra] of [a] and [rb] of [b]
    — allocating only its result. *)
val within : ra:float -> t -> rb:float -> t -> t

(** [sdr_within a b ~ra ~rb] is [inter (sdr a b) (within ~ra a ~rb b)],
    bit for bit: the shortest-distance region's points within [ra] of
    [a] and [rb] of [b].  When [a] and [b] lie more than the tolerance
    apart it allocates only its result. *)
val sdr_within : t -> t -> ra:float -> rb:float -> t

(** Is the region a single point (within tolerance)? *)
val is_point : t -> bool

val x_range : t -> Interval.t
val y_range : t -> Interval.t

(** L1 diameter: max L1 distance between two points of the region. *)
val diameter : t -> float

(** Midpoint-based representative, cheap; equals the point for point
    regions. *)
val center : t -> Pt.t

(** Boundary vertices in counter-clockwise order (at most 8); for display
    and area computations.  Empty list on the empty octagon. *)
val vertices : t -> Pt.t list

val area : t -> float
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
