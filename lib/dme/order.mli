(** The ranking kernels of {!Engine.plan}'s merge rounds: nearest-
    neighbour selection with Edahiro-style multi-merge rounds (§V.F
    enhancement 1).

    Each round the engine probes every active subtree ({!Engine.probe}):
    the probe's cheapest merge partner among its [knn] nearest
    candidates in the round's {!Geometry.Grid_index.snapshot}, by
    (cost, lowest id) — {!cheapest}'s argmin over them — written into
    id-indexed {!proposals}.  {!select_pairs} then ranks the proposed
    pairs by cost (the two proposals of an unordered pair count once,
    at the cheaper one) and greedily takes a disjoint prefix into a
    {!selection}.  A probe reads only frozen round state and its argmin
    tie-breaks on the lowest subtree id, so the selected merges are
    bit-identical for any jobs count.  A selection allocates no array
    or record per pair. *)

(** One round's proposals, indexed by proposer id: the proposed
    [partner] ([-1] for none), its [cost], the grid passes the probe
    ran ([queries]: its ring scan plus any fallback k-NN query), the
    grid [cells] and [entries] they scanned and the candidates it
    [priced].  {!Engine.probe} writes a probe's six slots. *)
type proposals = {
  partner : int array;
  cost : floatarray;
  queries : int array;
  cells : int array;
  entries : int array;
  priced : int array;
}

(** One round's selected pairs, in selection order: pair [k < len] is
    [(left.(k), right.(k))], [left.(k) < right.(k)], ranked at
    [costs.(k)]. *)
type selection = {
  left : int array;
  right : int array;
  costs : floatarray;
  mutable len : int;
}

(** [select_pairs ~ids ~count ~partner ~cost ~used ~limit sel] is one
    round's pair selection.  The probed subtree ids are [ids.(0 ..
    count-1)]; [partner.(i)] is the partner [i] proposes ([-1] for
    none), itself one of them, and [cost.(i)] the proposal's cost.  A
    pair proposed by both endpoints is ranked once, at the smaller cost
    under [Float.compare] (the higher id's on a tie); the result is the
    number of distinct proposed pairs ranked.  [sel] receives, in
    (cost, i, j) order, the greedy disjoint prefix of at most [limit]
    ranked pairs that touch no id marked in [used]; its arrays must
    have room for them.  Selected ids are marked in [used], which
    covers every id.  Sorts in per-domain scratch, so it allocates
    nothing, and never recurses. *)
val select_pairs :
  ids:int array ->
  count:int ->
  partner:int array ->
  cost:floatarray ->
  used:Bytes.t ->
  limit:int ->
  selection ->
  int

(** [cheapest ids len ~dist ~price] is the index [i] in [0 .. len-1]
    of the (cost, lowest id) argmin over the distinct candidate ids
    [ids.(0 .. len-1)], with its cost, or [(-1, infinity)] when [len =
    0].  [dist id] is the candidate's region distance and [price id d]
    its cost given that distance; [price] must return at least [d].
    [price] is called only for candidates that can still win: one whose
    distance exceeds the best cost so far, or equals it with a higher
    id, is skipped, which cannot change the answer.  Raises
    [Invalid_argument] when a priced cost is NaN.  The specification of
    a probe ({!Engine.probe} answers as this argmin over the [knn]
    nearest candidates does, and runs it itself when its scan cannot
    prove its own answer). *)
val cheapest :
  int array ->
  int ->
  dist:(int -> float) ->
  price:(int -> float -> float) ->
  int * float
