(** Differential oracles: run the library's routers and delay models
    against each other on one instance and audit every output against its
    own contract.

    - {!routers}: AST-DME, EXT-BST, greedy-DME and MMM-DME each produce a
      structurally/semantically valid tree satisfying the skew contract
      they were routed under.  Wirelength orderings between routers are
      deliberately {e not} asserted.
    - {!clustered}: a genuinely clustered run yields a covering partition
      and a stitched tree that passes the full audit under the global
      grouped contract.
    - {!delay_models}: Elmore and transient 50%-crossing delays agree
      wherever an exact relation exists (every sink crosses, Elmore bounds
      each crossing from above, crossings never decrease downstream), and
      intra-group skews agree for realistic interconnect (thesis ch. III).
    - {!invariants}: the invariance table.  Each row runs a {e reference}
      once and a {e variant} at each jobs count [j], observes both
      ({!obs}) and reports every field {!diffs} finds unequal plus the
      variant's own extra findings.  Each reference path stays in the
      library only because its row compares against it.

    {v
 row (finding name)      reference                     variant at j          default j
 par-identity            serial plan + embed           plan + embed          2, 4
 trace-identity          serial plan + embed           traced plan + embed   1, 2
 sched-identity          serial route                  recorded route        1, 2, 4
 cluster-identity        serial route                  clusters = 1 route    1, 2
 cluster-depth-identity  depth-2 route, jobs 1         depth-2 route         2, 4
 repair-identity (x2)    Repair, incremental = false   incremental Repair    1, 2, 4
 evaluate-identity       serial sweep, jobs-1 route    the route's report    1, 2, 4
 embed-identity          Embed.run_reference           Embed.run_arena       1, 2, 4
    v}

    A plan at [j] runs on a pool of [j] domains of its own: the router
    plans instances of 1000 sinks or fewer serially at any jobs count.
    Extra findings: a pooled plan booked a ranking ledger; the trace
    journal and Chrome export ({!Audit.journal}); the sched report
    ({!Audit.sched_report}), absent from every unrecorded route; the
    one-region detail ({!Audit.clustering}); and for depth 2 at 4
    clusters its detail, the grouped audit and forced depth 1 =
    default depth.  Repair runs on the serial plan in two families,
    auto regions and forced 4 regions, so the regional fixpoints run
    on every case.  The route's report is repair's last evaluation
    folded by {!Clocktree.Evaluate.of_delays}; [evaluate-identity] also
    checks, as extras, repair at [j] with 4 forced windows, incremental
    and from scratch, against the serial sweep of the tree each left.

    A raised exception anywhere is converted into a finding with oracle
    name ["exception"], so fuzzing surfaces crashes as ordinary
    failures. *)

type finding = {
  oracle : string;  (** "ast-dme", "par-identity", "delay-models", ... *)
  violations : Audit.violation list;
}

val pp_finding : Format.formatter -> finding -> unit

val routers : ?inject:bool -> Clocktree.Instance.t -> finding list

(** Audit the clustered router's output: the spatial partition covers
    every sink exactly once with non-empty regions, and the stitched tree
    passes the full {!Audit.run} under the {e global} [Grouped] contract,
    at [min 4 n_sinks] clusters (at least 2, pre-clamp); [inject] snakes
    one leaf before auditing, as in {!routers}. *)
val clustered : ?inject:bool -> Clocktree.Instance.t -> finding list

val delay_models : ?resolution:int -> Clocktree.Instance.t -> finding list

(** The AST-DME route every oracle runs: {!Astskew.Router.ast_default_config}
    at [jobs] (default: its own), clustered when [clustering] is given. *)
val ast :
  ?jobs:int -> ?clustering:Astskew.Router.Spec.clustering -> ?run:Obs.Run.t ->
  Clocktree.Instance.t -> Astskew.Router.result

(** One run as the table compares it: the arena columns, the evaluation
    report, engine stats with [gc] zeroed (the one field equivalent runs
    legitimately differ in), repair stats, and the findings the run
    produced about itself. *)
type obs = {
  arena : Clocktree.Arena.t;
  report : Clocktree.Evaluate.report option;
  engine : Dme.Engine.stats option;
  repair : Clocktree.Repair.stats option;
  extra : string list;
}

(** The parts of one run that are present, as {!diffs} compares them
    (engine [gc] zeroed, no extras); the arena is observed, not copied. *)
val observe :
  ?report:Clocktree.Evaluate.report ->
  ?engine:Dme.Engine.stats ->
  ?repair:Clocktree.Repair.stats ->
  Clocktree.Arena.t ->
  obs

(** A routed result, all four parts present. *)
val of_result : Astskew.Router.result -> obs

(** [diffs v r]: one line per value of [v] that is not bit-equal to [r]'s
    ([Int64.bits_of_float] differs: [-0.] and [+0.] differ, two NaNs of
    the same bits do not),
    named by field ([arena.left[3]], [report.max_delay],
    [engine.nn_reprobes], [repair.cycles], ...); parts absent from either
    side are not compared, and neither are [extra]s. *)
val diffs : obs -> obs -> string list

type row

val name : row -> string

val par : row
val trace : row
val sched : row
val cluster : row
val cluster_depth : row
val repair : row
val repair_regional : row
val evaluate : row
val embed : row

(** Every row, in the order {!all} runs them. *)
val invariants : row list

(** Run each row at its jobs list, sharing one case's serial plan and
    route between rows. *)
val identities : (row * int list) list -> Clocktree.Instance.t -> finding list

(** One row at [jobs] (default: the row's own list). *)
val identity : ?jobs:int list -> row -> Clocktree.Instance.t -> finding list

(** Every oracle in sequence; the empty list means the case passed.
    [inject] deliberately snakes one leaf edge of the AST tree before
    auditing, to prove violations are caught (used by the fuzz
    self-test). *)
val all : ?inject:bool -> Clocktree.Instance.t -> finding list

(** Re-run the oracles and report whether any finding's name appears in
    [of_run], e.g. to check that a shrunk instance still reproduces the
    original failure. *)
val reproduces : ?inject:bool -> of_run:finding list -> Clocktree.Instance.t -> bool
