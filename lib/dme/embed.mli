(** Top-down embedding: turn the bottom-up merge plan into a concrete
    embedded tree (the second phase of DME/BST).  It reads only the root
    subtree's plan store ({!Subtree.store}): each merge's children,
    sink count, edge-length rule and region bounds.

    The root lands on the point of the final merging region nearest to
    the clock source; every child lands on the point of its region
    nearest to its parent's placement.  Committed wire lengths are
    honoured exactly (shortfall is snaked), shortest-path merges consume
    exactly the planned total.

    {!run_arena} writes the tree straight into a pre-sized flat
    post-order {!Clocktree.Arena} — index for index what
    [Arena.of_routed] would assign flattening the boxed tree — in one
    descending loop over the store's merge ids: a merge's id exceeds its
    children's, so its placement and arena slot are known when it is
    visited, and a subtree of [s] sinks owns the [2 s - 1] slots below
    its root's.  No stack, so 10^5-deep plans embed like balanced ones.

    A leaf that stands for a finished sub-plan (a stitch's region or
    lower stitch) is a task that embeds that store into its own window;
    with [pool], the tasks of each level run on it, one per chunk.
    Every element is computed by the same expressions from the same
    operands, so the arena is bit-identical for any jobs count
    ([Check.Oracle.embed] enforces this).  A flat plan embeds on the
    calling domain.

    With [run.trace] enabled the whole embedding is wrapped in one
    ["embed"] span; an enabled [run.sched] recorder ledgers each level's
    tasks under ["engine.embed"]. *)

val run_arena :
  ?pool:Par.Pool.t ->
  ?run:Obs.Run.t ->
  Clocktree.Instance.t ->
  Subtree.t ->
  Clocktree.Arena.t

(** Executable specification: the recursive boxed-tree embedder over
    the store, placing each child with [Octagon.nearest_point] on its
    region; the reference the arena-direct identity oracle and property
    tests compare against.  Recursive — oracle/test-sized instances
    only. *)
val run_reference :
  Clocktree.Instance.t -> Subtree.t -> Clocktree.Tree.routed
[@@reference]
