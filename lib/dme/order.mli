(** Merge ordering: nearest-neighbour selection with Edahiro-style
    multi-merge rounds (§V.F enhancement 1) and optional delay-target
    biasing (§V.F enhancement 2).

    Each round takes the active subtrees in ascending id order, packs
    their centers into one read-only {!Geometry.Grid_index.snapshot}
    with the cell sized for that population, computes every subtree's
    cheapest merge partner among its [knn] grid candidates — in parallel
    chunks when a {!Par.Pool} is supplied — then ranks the proposed
    pairs by cost (the two proposals of an unordered pair count once, at
    the cheaper one) and greedily merges a disjoint prefix
    ({!select_pairs}).  Probing is read-only with respect to every
    shared structure and the partner choice tie-breaks on the lowest
    subtree id, so the selected merges — and hence the routed tree — are
    bit-identical for any jobs count.  Each merge is reserved in the
    run's columns and plan store in selection (= id) order before the
    round's merges are computed ({!Subtree.reserve}), so a pooled merge
    writes only its own slots.

    Every round probes every active subtree from scratch.  The
    snapshot's k-NN answer is ordered by (distance, id) and so depends
    only on the alive population, never on the cell the round sized
    (DESIGN.md sections 3.3 and 6.3).

    A probe ({!settle}) asks the snapshot for [max 1 (knn / 4)]
    candidates first and doubles the query, up to [knn], only while an
    exact bound leaves an unseen candidate able to win: every subtree's
    region lies within its L1 radius of its center, so a candidate
    beyond the k-NN exclusion bound [kth] has region distance — and, by
    the [cost] contract of {!run_ranked}, cost — at least [kth] minus
    the two radii.  The partner, every priced candidate and hence the
    tree are the full-[knn] probe's (DESIGN.md section 6.3).  A probe
    writes its proposal into id-indexed arrays and allocates no closure
    or result of its own, and a round allocates no array or record per
    pair. *)

type config = {
  multi_merge : bool;
      (** merge a batch of up to [active / 4] disjoint pairs per round
          (half the active subtrees) instead of a single pair *)
  knn : int;  (** grid candidates examined per nearest-neighbour query *)
  delay_order_weight : float;
      (** layout units per ps: sorts deeper (slower) subtrees earlier;
          0 disables the delay-target enhancement *)
}

(** How selected merges are executed.  [compute ~id a b] merges the
    run's subtrees [a] and [b] into [id], which {!Subtree.reserve} has
    opened; it may run on a worker domain during parallel rounds, so it
    must write nothing but [id]'s own slots (reading state that is
    frozen for the duration of the round's commit phase is fine).
    [install id] runs on the calling domain, in selection order, after
    the round's merges are computed; side effects (statistics, tracing)
    belong here. *)
type merger = { compute : id:int -> int -> int -> unit; install : int -> unit }

(** Ranking-loop statistics.  [nn_probes] counts nearest-neighbour
    probes (each prices up to [knn] candidates): the active count summed
    over rounds.  [nn_queries] counts the k-NN queries those probes ran
    — one, plus one per widening — so it is never below [nn_probes].
    [nn_cells] and [nn_entries] are those queries' grid work: cells
    their ring scans walked and entries those cells held
    ({!Geometry.Grid_index.query}), so [nn_cells] is never below
    [nn_queries].  [nn_priced] counts the candidates the probes priced:
    the [cost] calls, which {!cheapest}'s prune keeps well below [knn]
    per probe.  All six are sums of per-probe counts, so they are
    identical for any pool. *)
type stats = {
  rounds : int;
  nn_probes : int;
  nn_queries : int;
  nn_cells : int;
  nn_entries : int;
  nn_priced : int;
}

(** One completed merge round, as reported to the [?on_round] observer
    of {!run_ranked}: 1-based [round] index, [active] subtree count at
    the round's start, probe count ([probes], equal to [active]), the
    k-NN queries those probes ran ([queries]) and the candidates they
    [priced], merges committed, the
    cheapest committed pair's biased cost ([infinity] when only the
    degenerate fallback merge ran) and the round's wall time in seconds
    (clamped non-negative). *)
type round_info = {
  round : int;
  active : int;
  probes : int;
  queries : int;
  priced : int;
  merges : int;
  best_cost : float;
  wall_s : float;
}

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
    nothing, and never recurses; exposed for testing. *)
val select_pairs :
  ids:int array ->
  count:int ->
  partner:int array ->
  cost:floatarray ->
  used:Bytes.t ->
  limit:int ->
  selection ->
  int
[@@reference]

(** [cheapest ids len ~dist ~price] is the index [i] in [0 .. len-1]
    of the (cost, lowest id) argmin over the distinct candidate ids
    [ids.(0 .. len-1)], with its cost, or [(-1, infinity)] when [len =
    0].  [dist id] is the candidate's region distance and [price id d]
    its cost given that distance; [price] must return at least [d].
    [price] is called only for candidates that can still win: one whose
    distance exceeds the best cost so far, or equals it with a higher
    id, is skipped, which cannot change the answer.  Raises
    [Invalid_argument] when a priced cost is NaN.  The ranking probe's
    argmin; exposed for testing. *)
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
    [props.cost.(id)], so the search allocates nothing of its own.  The
    ranking probe; exposed for testing. *)
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
[@@reference]

(** [run_ranked ?pool ?run ?on_round c config ~diameter ~cost ~merger]
    reduces the run's leaves ([c], ids [0 .. n-1]) to one subtree,
    pricing candidate pairs with [cost], reserving every selected merge
    ({!Subtree.reserve}), running [merger.compute] for it and
    [merger.install] on the calling domain in selection order.  The
    merges take ids [n] upward; the root is [Subtree.finish c].
    [diameter] is the L1 extent that sizes the rounds' grid cells (the
    instance's).

    [cost ~dist a b] ranks the pair of ids [(a, b)] whose regions are
    [dist] apart ([Octslab.dist], the kernel of [Octagon.dist]).  It may
    run on a worker domain, so it must not mutate shared state.
    Contract: it is never below [dist] and never NaN.  A probe relies on
    it to price only the candidates that can still win (see
    {!cheapest}) and to stop widening its k-NN query once no unseen
    candidate can win (see {!settle}); a NaN cost raises
    [Invalid_argument].

    With [pool], candidate probing
    and the selected merges' computations run on the pool's domains;
    results are deterministic and identical to the serial run.  With
    [run.trace] enabled, each round emits a span (with probe/commit
    phase sub-spans and per-probe instants) and probe costs feed the
    ["order.probe_cost"] histogram; a disabled trace skips every
    emission, keeping the untraced run allocation-free on that path.
    An enabled [run.sched] recorder ledgers the pooled probe and commit
    maps under ["engine.rank"] / ["engine.commit"].  [on_round] is
    invoked after each round's commits with that round's
    {!round_info}.  Returns the ranking statistics. *)
val run_ranked :
  ?pool:Par.Pool.t ->
  ?run:Obs.Run.t ->
  ?on_round:(round_info -> unit) ->
  Subtree.cols ->
  config ->
  diameter:float ->
  cost:(dist:float -> int -> int -> float) ->
  merger:merger ->
  stats
