(** Method-of-Means-and-Medians topology generation with DME embedding —
    the classic top-down alternative to greedy nearest-neighbour merging.

    The sink set is recursively bisected at the median of the bounding
    box's longer dimension; the resulting fixed binary topology is then
    embedded bottom-up with the same merge machinery (and therefore the
    same skew guarantees) as the greedy engine.  Useful as a second
    baseline and for studying how much the merge *order* contributes to
    AST-DME's wins. *)

(** Plan and embed a clock tree on the MMM topology, straight into the
    flat post-order arena.  Accepts the same configuration as {!Engine}
    (ordering fields are ignored).  With [run.trace] enabled, merges
    the config into the manifest and wraps topology construction in an
    ["mmm.build"] span. *)
val run_arena :
  ?config:Engine.config -> ?run:Obs.Run.t -> Clocktree.Instance.t ->
  Clocktree.Arena.t * Engine.stats
