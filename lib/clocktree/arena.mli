(** Flat int-indexed post-order arena over a routed tree.

    The repair/evaluate loop walks the same tree hundreds of times; the
    pointer representation ({!Tree.t}) costs an allocation-heavy rebuild
    per walk and its recursive visitors overflow the stack on degenerate
    deep trees (a 10^6-sink comb is ~2·10^6 nodes deep).  The arena
    flattens the tree once into parallel arrays in {e post order} —
    children before parents, the left subtree entirely before the right,
    the root at index [n - 1] — so every bottom-up pass is an ascending
    [for] loop, every top-down pass a descending one, and every subtree
    is the contiguous index range [[v - size v + 1, v]].

    [len.(v)] is the length of the edge {e above} node [v] (from its
    parent), with [len.(root) = source_len]; this matches the RC-tree
    orientation, where each edge is a pi segment owned by its lower
    node.  Repair mutates only [len]; {!to_routed} rebuilds a
    [Tree.routed] that is bit-identical to the input when no length
    changed (see the flatten→rebuild round-trip property in the tests).

    The Elmore kernels replicate {!Tree.to_rctree} + {!Rc.Rctree.elmore}
    operation for operation — same expressions, same association order,
    same traversal order — so their results are bit-identical to the
    list-based RC path.  This is what lets {!Evaluate} and {!Repair} run
    on the arena without perturbing any routed tree or delay by an
    ulp. *)

type t = {
  n : int;  (** node count, [2 * n_sinks - 1] *)
  n_sinks : int;
  source : Geometry.Pt.t;
  source_len : float;
  rd : float;
  params : Rc.Wire.params;
  left : int array;  (** left child index, [-1] for leaves *)
  right : int array;  (** right child index, [-1] for leaves *)
  parent : int array;  (** parent index, [-1] for the root *)
  size : int array;  (** subtree node count *)
  sink : int array;  (** sink id at leaves, [-1] at internal nodes *)
  group : int array;  (** sink group at leaves, [-1] at internal nodes *)
  scap : float array;  (** sink load cap at leaves, [0.] at internal nodes *)
  pos : Geometry.Pt.t array;  (** embedded position *)
  len : float array;  (** edge length above the node; mutated by repair *)
}

(** Iterative (explicit-stack) post-order flatten.  [params]/[rd] are
    stored for the Elmore kernels. *)
val of_routed : Rc.Wire.params -> rd:float -> Tree.routed -> t

(** Iterative rebuild of the pointer tree from the arena.  Positions,
    sink records and [source]/[source_len] round-trip exactly; edge
    lengths come from the (possibly mutated) [len] column. *)
val to_routed : t -> Tree.routed

(** [downstream_rc ~into a] fills [into.(v)] with the RC downstream
    capacitance of node [v] — bit-identical to
    {!Rc.Rctree.downstream_cap} on {!Tree.to_rctree}'s output
    (right-child contribution accumulated before left).  [into] has
    length [n].  Returns the source-node value [down0]
    ([half source_len + into.(root)], the full tree load seen by the
    driver). *)
val downstream_rc : into:float array -> t -> float

(** The per-node step of {!downstream_rc}: recomputes [into.(v)] from
    the lengths at and below [v] and the children's current [into]
    values.  Recomputing exactly the nodes whose inputs changed, children
    before parents, keeps [into] equal to a full {!downstream_rc}. *)
val downstream_rc_node : into:float array -> t -> int -> unit

(** {!downstream_rc} restricted to the contiguous subtree range
    [lo, hi] (a node and its descendants).  Fills only that window of
    [into]; no source term. *)
val downstream_rc_range : into:float array -> lo:int -> hi:int -> t -> unit

(** [elmore ~down ~down0 ~into a] fills [into.(v)] with the Elmore delay
    at node [v] given the downstream caps of {!downstream_rc} —
    bit-identical to {!Rc.Rctree.elmore}. *)
val elmore : down:float array -> down0:float -> into:float array -> t -> unit

(** The root's Elmore delay given the downstream caps of
    {!downstream_rc}: the value {!elmore} writes at [n - 1]. *)
val root_delay : down:float array -> t -> float

(** The one descending Elmore fill: [into.(v)] for [v] from [hi] down
    to [lo], each from its parent's delay, which lies above the range or
    is already filled — {!elmore}'s per-node expression.  {!elmore_range}
    and repair's windowed sweep both run it. *)
val elmore_fill :
  down:float array -> into:float array -> lo:int -> hi:int -> t -> unit

(** {!elmore} restricted to the subtree range [lo, hi]:
    [into.(hi) <- root_delay] and descendants accumulate from it.
    With [root_delay = 0.] the window holds delays measured from the
    subtree root — exact for intra-subtree skews, which are invariant
    under the dropped constant offset. *)
val elmore_range :
  down:float array ->
  root_delay:float ->
  into:float array ->
  lo:int ->
  hi:int ->
  t ->
  unit

(** [delays_by_sink ~delay ~into a] scatters per-node delays to per-sink
    ids: [into.(sink.(v)) <- delay.(v)] for every leaf [v].  [into] has
    length [n_sinks]. *)
val delays_by_sink : delay:float array -> into:float array -> t -> unit

(** Repair windows: the disjoint maximal subtrees of at most
    [ceil (n / count)] nodes (at least 3 nodes each), as ascending
    contiguous [(lo, hi)] index ranges.  A pure function of the tree
    shape and [count] — never of a jobs count — so work split along
    these windows is bit-reproducible for any parallelism.  The root is
    always outside every window.  [count] defaults to
    {!Instance.auto_regions} of the sink count, capped at 64
    ([clamp 1 64 (ceil (n_sinks / 1000))]); below 2 the result is
    empty.  Only {!Repair} splits work along them: its regional
    fixpoints and the window steps of its global cycle. *)
val windows : ?count:int -> t -> (int * int) array

(** Total wirelength including the source wire; bit-identical to
    {!Tree.wirelength} of {!to_routed}. *)
val wirelength : t -> float

(** Total snaking wire; bit-identical to {!Tree.total_snaking} of
    {!to_routed}. *)
val total_snaking : t -> float
