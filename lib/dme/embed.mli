(** Top-down embedding: turn the bottom-up merge plan into a concrete
    embedded tree (the second phase of DME/BST).  Every walk reads only
    the root subtree's {!Subtree.plan}: each node's region, sink count,
    children and edge-length rule.

    The root lands on the point of the final merging region nearest to
    the clock source; every child lands on the point of its region
    nearest to its parent's placement.  Committed wire lengths are
    honoured exactly (shortfall is snaked), shortest-path merges consume
    exactly the planned total.

    The embedding is {e arena-native}: {!run_arena} writes the tree
    straight into a pre-sized flat post-order {!Clocktree.Arena} —
    index for index what [Arena.of_routed] would assign flattening the
    boxed tree — so the router's embed → evaluate → repair hot path
    never builds pointer nodes.  The walk is iterative (explicit frame
    stack, like [Arena.of_routed]), so degenerate 10^5-deep merge plans
    embed without stack overflow.

    With [pool] (and more than one job) the top of the plan is expanded
    on the calling domain until roughly [4 * jobs] pending subtrees
    exist.  A subtree with [s] sinks occupies exactly [2 s - 1]
    contiguous arena slots, so every pending subtree's window is known
    at expansion time: prefix nodes are written immediately and the
    windows fill on pool domains, disjoint index ranges of the shared
    arrays.  Every element is computed by the serial expressions from
    the same operands, so the arena is bit-identical to the serial walk
    for any jobs count ([Check.Oracle.embed] enforces this).

    With [run.trace] enabled the whole embedding is wrapped in one
    ["embed"] span; an enabled [run.sched] recorder ledgers the pooled
    window fill under ["engine.embed"]. *)

val run_arena :
  ?pool:Par.Pool.t ->
  ?run:Obs.Run.t ->
  Clocktree.Instance.t ->
  Subtree.t ->
  Clocktree.Arena.t

(** Executable specification: the original recursive boxed-tree
    embedder, kept as the independent reference that the arena-direct
    identity oracle and property tests compare against.  Recursive —
    oracle/test-sized instances only. *)
val run_reference :
  Clocktree.Instance.t -> Subtree.t -> Clocktree.Tree.routed
