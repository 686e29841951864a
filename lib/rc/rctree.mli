(** Generic RC trees: the electrical view of an embedded clock tree.

    Node 0 is the root, driven from an ideal step source through a driver
    resistance.  Every other node connects to its parent through a
    resistance and carries a grounded capacitance. *)

type t

(** [build ~rd nodes] builds a tree from per-node [(parent, res, cap)]
    triples: [parent] is the parent index ([-1] for node 0 and only node
    0), [res] the resistance to the parent (ohm, ignored for the root)
    and [cap] the node capacitance (fF).  Parents must appear before
    children.  [rd] is the driver resistance (ohm). *)
val build : rd:float -> (int * float * float) array -> t

val size : t -> int
val driver_resistance : t -> float
val cap : t -> int -> float
val res : t -> int -> float
val parent : t -> int -> int
val children : t -> int -> int array

(** Electrical sanity faults of the tree: negative or non-finite
    resistances / capacitances / driver resistance.  Empty on a healthy
    tree.  (The structural invariants — dense parents, parents before
    children — are enforced by {!build} and cannot be violated here.) *)
val audit : t -> string list

(** Exact Elmore delay (ps) from the step source to every node, driver
    resistance included. *)
val elmore : t -> float array
