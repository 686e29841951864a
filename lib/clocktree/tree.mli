(** Embedded clock routing trees.

    Edge lengths are stored explicitly and may exceed the L1 distance
    between the endpoints: the excess is wire snaking, which is physical
    wire and counts toward both wirelength and delay. *)

type t =
  | Leaf of Sink.t
  | Node of { pos : Geometry.Pt.t; left : t; right : t; llen : float; rlen : float }

(** A complete routed tree: the merge tree plus the connection from the
    clock source to the tree root. *)
type routed = {
  tree : t;
  source : Geometry.Pt.t;
  source_len : float;  (** wire length from source to the root *)
}

(** Position of a subtree root (sink location for leaves). *)
val pos : t -> Geometry.Pt.t

(** Edge-length tolerance (layout units): an edge shorter than the L1
    distance it spans by more than this is malformed, and one longer by
    more is snaked. *)
val edge_tol : float

(** [node pos left right ~llen ~rlen] builds an internal node, checking
    that each edge length covers the L1 distance to the child, within
    {!edge_tol}. *)
val node : Geometry.Pt.t -> t -> t -> llen:float -> rlen:float -> t

(** [route source tree] connects [tree] to [source] with a direct wire. *)
val route : Geometry.Pt.t -> t -> routed

(** Total wirelength of the merge tree (without the source wire). *)
val tree_wirelength : t -> float

(** Total wirelength including the source connection. *)
val wirelength : routed -> float

(** Total snaking wire: sum over edges of (length - L1 endpoint distance). *)
val total_snaking : routed -> float

(** Convert to an electrical RC tree.  Returns the RC tree together with
    the RC node index of each sink (indexed by sink id, which must be
    dense).  Wire segments are modelled as single pi-segments per edge. *)
val to_rctree : Rc.Wire.params -> rd:float -> n_sinks:int -> routed -> Rc.Rctree.t * int array
