(** Method-of-Means-and-Medians topology generation with DME embedding —
    the classic top-down alternative to greedy nearest-neighbour merging.

    The sink set is recursively bisected at the median of the bounding
    box's longer dimension; the resulting fixed binary topology is
    merged bottom-up with the same machinery (and therefore the same
    skew guarantees) as the greedy engine, each merge recorded in the
    plan store the embedding reads as soon as it is made (both children
    first, so ids ascend to the root).  Useful as a second
    baseline and for studying how much the merge *order* contributes to
    AST-DME's wins. *)

(** Plan the MMM topology; the root carries the plan store.  Accepts the
    same configuration as {!Engine} (ordering fields are ignored);
    [stats.gc] is left zero.  The plan the embedding oracle hands to
    {!Embed.run_reference}. *)
val plan : ?config:Engine.config -> Clocktree.Instance.t -> Subtree.t * Engine.stats
[@@reference]

(** Plan, then {!Embed.run_arena}: the tree straight in the flat
    post-order arena, with [stats.gc] sampled around both.  With
    [run.trace] enabled, the plan merges the config into the manifest
    and wraps topology construction in an ["mmm.build"] span. *)
val run_arena :
  ?config:Engine.config -> ?run:Obs.Run.t -> Clocktree.Instance.t ->
  Clocktree.Arena.t * Engine.stats
