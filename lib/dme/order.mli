(** Merge ordering: nearest-neighbour selection with Edahiro-style
    multi-merge rounds (§V.F enhancement 1) and optional delay-target
    biasing (§V.F enhancement 2).

    Each round snapshots the active subtrees sorted by id, computes every
    subtree's cheapest merge partner among its [knn] grid candidates —
    in parallel chunks when a {!Par.Pool} is supplied — then sorts the
    candidate pairs by cost (deduplicating the two proposals of an
    unordered pair down to the cheaper one) and greedily merges a
    disjoint prefix.  Probing is read-only with respect to every shared
    structure and the partner choice tie-breaks on the lowest subtree id,
    so the selected merges — and hence the routed tree — are bit-identical
    for any jobs count.

    Every round probes every active subtree from scratch.  Candidates
    come from a {!Geometry.Grid_index} over subtree centers, whose k-NN
    answer is ordered by (distance, id) and so depends only on the alive
    population; the grid is rebuilt with a larger cell whenever the
    population has shrunk to a quarter of the one its cell was sized
    for, which changes how many cells a query scans but never its
    answer (DESIGN.md section 22). *)

type config = {
  multi_merge : bool;
      (** merge a batch of pairs per round instead of a single pair *)
  merge_fraction : float;
      (** fraction of active subtrees consumed per multi-merge round *)
  knn : int;  (** grid candidates examined per nearest-neighbour query *)
  delay_order_weight : float;
      (** layout units per ps: sorts deeper (slower) subtrees earlier;
          0 disables the delay-target enhancement *)
}

val default : config

(** How ranking evaluates merge costs.  [session] is called once per
    nearest-neighbour probe — on a worker domain during parallel rounds —
    and returns the cost function for that probe plus a finisher whose
    ['note] carries any side results the probe produced (for the DME
    engine: freshly executed trial merges and cache-counter deltas).
    The cost function must not mutate shared state; [absorb] is called
    for every probe's note on the calling domain, in ascending
    subtree-id order, before any merge of the round is committed. *)
type 'note coster = {
  session :
    unit -> (dist:float -> Subtree.t -> Subtree.t -> float) * (unit -> 'note);
  absorb : 'note -> unit;
}

(** How selected merges are executed.  [compute ~id a b] builds the
    merge result; it may run on a worker domain during parallel rounds,
    so it must not mutate shared state (reading state that is frozen for
    the duration of the round's commit phase is fine).  [install] runs
    on the calling domain, in selection order, and returns the merged
    subtree the ranking loop inserts; side effects (statistics, cache
    eviction, tracing) belong here. *)
type 'merge merger = {
  compute : id:int -> Subtree.t -> Subtree.t -> 'merge;
  install : 'merge -> Subtree.t;
}

(** Wrap a pure, self-contained cost function (no side results).  The
    ranking loop's precomputed region distance is dropped on the
    floor — [cost] sees only the subtree pair. *)
val of_cost : (Subtree.t -> Subtree.t -> float) -> unit coster

(** Wrap a plain merge callback: computation is deferred to [install],
    so the whole merge runs on the calling domain in selection order —
    the safe default for costers with effectful merges. *)
val of_merge :
  (id:int -> Subtree.t -> Subtree.t -> Subtree.t) -> (int * Subtree.t * Subtree.t) merger

(** Ranking-loop statistics.  [nn_probes] counts nearest-neighbour
    probes (each runs one coster session over up to [knn] candidates):
    the active count summed over rounds. *)
type stats = { rounds : int; nn_probes : int }

(** One completed merge round, as reported to the [?on_round] observer
    of {!run_ranked}: 1-based [round] index, [active] subtree count at
    the round's start, probe count ([probes], equal to [active]),
    merges committed, the cheapest committed pair's biased cost
    ([infinity] when only the degenerate fallback merge ran) and the
    round's wall time in seconds (clamped non-negative). *)
type round_info = {
  round : int;
  active : int;
  probes : int;
  merges : int;
  best_cost : float;
  wall_s : float;
}

(** [dedupe_pairs pairs] collapses adjacent entries with equal subtree-id
    pairs to the first (cheapest, given the (i, j, cost) pre-sort) one.
    Tail-recursive: safe for rounds ranking hundreds of thousands of
    pairs.  Exposed for testing. *)
val dedupe_pairs : (float * int * int) list -> (float * int * int) list

(** [run_ranked ?pool ?run ?on_round ?leaves inst config ~coster
    ~merger] reduces the sink set to one subtree, running
    [merger.compute] for every selected pair and [merger.install] on the
    calling domain in selection order.  With [pool], candidate probing
    and the selected merges' computations run on the pool's domains;
    results are deterministic and identical to the serial run.  With
    [run.trace] enabled, each round emits a span (with probe/commit
    phase sub-spans and per-probe instants) and probe costs feed the
    ["order.probe_cost"] histogram; a disabled trace skips every
    emission, keeping the untraced run allocation-free on that path.
    An enabled [run.sched] recorder ledgers the pooled probe and commit
    maps under ["engine.rank"] / ["engine.commit"].  [on_round] is
    invoked after each round's commits with that round's
    {!round_info}.  [leaves] overrides the initial population:
    instead of the instance's sink leaves, ranking starts from the given
    subtrees (the clustered router's region roots).  Explicit leaves
    must carry dense ids [0 .. n-1] — the arena is id-indexed — and
    their delay windows must be expressed against [inst]'s groups; merge
    node ids are allocated from [n] upward.  Returns the final subtree
    and the ranking statistics. *)
val run_ranked :
  ?pool:Par.Pool.t ->
  ?run:Obs.Run.t ->
  ?on_round:(round_info -> unit) ->
  ?leaves:Subtree.t array ->
  Clocktree.Instance.t ->
  config ->
  coster:'note coster ->
  merger:'merge merger ->
  Subtree.t * stats

(** [run inst config ~cost ~merge] is {!run_ranked} without a pool over
    {!of_cost}[ cost]: the serial interface used by tests and simple
    callers.  [cost a b] ranks candidate pairs — typically the planned
    wire of a trial merge, so partners that merge without snaking (e.g.
    cross-group neighbours) are preferred over equally close partners
    that would require balancing wire. *)
val run :
  Clocktree.Instance.t ->
  config ->
  cost:(Subtree.t -> Subtree.t -> float) ->
  merge:(id:int -> Subtree.t -> Subtree.t -> Subtree.t) ->
  Subtree.t * stats
