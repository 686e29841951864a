(** The ranking kernels of {!Engine.plan}'s merge rounds: nearest-
    neighbour selection with Edahiro-style multi-merge rounds (§V.F
    enhancement 1).

    Each round the engine probes every active subtree ({!settle}): the
    probe's cheapest merge partner among its [knn] candidates in the
    round's {!Geometry.Grid_index.snapshot}, written into id-indexed
    {!proposals}.  {!select_pairs} then ranks the proposed pairs by
    cost (the two proposals of an unordered pair count once, at the
    cheaper one) and greedily takes a disjoint prefix into a
    {!selection}.  A probe reads only frozen round state and its argmin
    tie-breaks on the lowest subtree id, so the selected merges are
    bit-identical for any jobs count.

    A probe asks the snapshot for [max 1 (knn / 4)] candidates first
    and doubles the query, up to [knn], only while an exact bound
    leaves an unseen candidate able to win: every subtree's region lies
    within its L1 radius of its center, so a candidate beyond the k-NN
    exclusion bound [kth] has region distance — and, by the [price]
    contract of {!cheapest}, cost — at least [kth] minus the two radii.
    The partner, every priced candidate and hence the tree are the
    full-[knn] probe's (DESIGN.md section 6.3).  A probe writes its
    proposal into the id-indexed arrays and allocates no closure or
    result of its own, and a selection allocates no array or record
    per pair. *)

(** One round's proposals, indexed by proposer id: the proposed
    [partner] ([-1] for none), its [cost], the k-NN [queries] the probe
    ran, the grid [cells] and [entries] those queries scanned and the
    candidates it [priced].  {!settle} writes a probe's six slots. *)
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
    [Invalid_argument] when a priced cost is NaN.  The argmin {!settle}
    runs over each widening of its answer; exposed for testing. *)
val cheapest :
  int array ->
  int ->
  dist:(int -> float) ->
  price:(int -> float -> float) ->
  int * float
[@@reference]

(** [settle snap buf ~skip xs ys i ~knn ~rad ~rmax ~dist ~price props
    id] is one probe's widening search from the point [q] at [xs.(i)],
    [ys.(i)]: it writes to [props]' slots [id] the
    partner and cost that {!cheapest} finds over the [knn] entries of
    [snap] nearest to [q] (ignoring the entry with id [skip], see
    {!Geometry.Grid_index.query}) — [-1] at
    [infinity] when none is eligible — the number of
    {!Geometry.Grid_index.query} calls it ran into [buf], the cells
    and entries those calls added to [buf]'s running totals and the
    number of [price] calls.  It queries
    [max 1 (knn / 4)] entries first, prices them, and doubles the query
    up to [knn] until the answer is exhaustive or its exclusion bound
    [kth] satisfies [kth - rad - rmax - margin > best], the margin
    absorbing floating-point rounding.  Sound when [dist] is the
    support-gap distance of the two regions
    ({!Geometry.Octslab.dist}), every eligible entry's region lies
    within [rmax] of its point and the probed subtree's within [rad] of
    [q] (L1), and [price] meets the {!cheapest} contract: an unseen
    candidate then costs more than the best.  A wider answer starts
    with the previous one, so pricing resumes where it stopped and no
    candidate is priced twice.  The running best lives in
    [props.cost.(id)], so the search allocates nothing of its own. *)
val settle :
  Geometry.Grid_index.snapshot ->
  Geometry.Grid_index.knn ->
  skip:int ->
  floatarray ->
  floatarray ->
  int ->
  knn:int ->
  rad:float ->
  rmax:float ->
  dist:(int -> float) ->
  price:(int -> float -> float) ->
  proposals ->
  int ->
  unit
