(** Synthetic stand-ins for the r1–r5 clock benchmark circuits.

    The published r1–r5 suite (used by the thesis and by the BST paper it
    extends) is not redistributable, so this module generates
    deterministic circuits with the same sink counts, uniform sink
    placement over a square die, and load capacitances in a realistic
    range.  Relative algorithm comparisons — the only quantities the
    thesis reports — are preserved because all routers run on identical
    instances.  See DESIGN.md, "Substitutions". *)

type spec = {
  name : string;
  n_sinks : int;
  die : float;  (** side of the square die, layout units *)
}

(** The five benchmark circuits: r1 (267 sinks) … r5 (3101 sinks). *)
val specs : spec list

val find : string -> spec option

(** [instance spec ~n_groups ~scheme ~bound ?seed ()] builds a routing
    instance: sinks placed uniformly at random (fixed [seed], default
    derived from the circuit name), groups assigned by [scheme], clock
    source at the die centre, and {!Clocktree.Instance.make}'s default
    wire and driver. *)
val instance :
  ?seed:int64 ->
  spec ->
  n_groups:int ->
  scheme:Partition.scheme ->
  bound:float ->
  unit ->
  Clocktree.Instance.t
