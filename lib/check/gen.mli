(** Random-instance generator for the fuzzing subsystem.

    Each {!regime} targets one family of "difficult instances" in the
    thesis' sense: sink-group structures or electrical corners that
    stress a different part of the planner / repair / evaluation stack.
    Everything is driven by {!Workload.Rng}, so a [(seed, index)] pair
    identifies an instance exactly — across runs and platforms. *)

type regime =
  | Uniform  (** uniform sinks, a few groups — the baseline workload *)
  | Intermingled  (** every group spread across the whole die (Table II) *)
  | Clustered  (** spatially clustered groups (Table I) *)
  | Collinear  (** all sinks on one horizontal/vertical/±45° line *)
  | Duplicates  (** coincident sink locations, possibly on the source *)
  | Tiny_groups  (** many degenerate groups of 1-3 sinks *)
  | Extreme_rc  (** extreme unit RC, driver resistance and load caps *)
  | Zero_bound  (** zero or mixed per-group skew bounds *)
  | Normalized
      (** unit-square die: every coordinate in [0, 1].  Stresses
          coordinate-scale assumptions — most directly the grid index's
          cell sizing, which must stay relative to the instance's extent
          (an absolute floor collapses the whole die into one cell and
          k-NN into full scans) *)
  | Huge
      (** benchmark-scale instances (200 to ~1500 sinks).  Too slow for
          the full oracle battery, so it is excluded from
          {!all_regimes}; {!Runner.run} samples it separately against
          the par, repair, repair_regional, evaluate and sched rows. *)
  | Banked
      (** clustered-router-scale instances (10^3 to ~4*10^3 sinks) in a
          few dense spatial banks with empty space between — the
          geometry the two-level partitioner must split cleanly, with
          groups spanning banks so the top-level stitch carries real
          cross-region constraints.  Excluded from {!all_regimes} like
          [Huge]; {!Runner.run} samples it separately against the
          clustered-routing oracles. *)

(** The regimes cycled by index in {!case} — everything except [Huge]
    and [Banked]. *)
val all_regimes : regime array [@@reference]
val regime_to_string : regime -> string
val regime_of_string : string -> regime option

(** One fuzz case: the instance plus the coordinates that regenerate it. *)
type case = {
  seed : int64;  (** master fuzz seed *)
  index : int;  (** case number within the run *)
  regime : regime;
  instance : Clocktree.Instance.t;
}

(** Deterministically rebuild case [index] of a run started from [seed].
    The regime cycles through {!all_regimes} by index unless [regime]
    forces one (the generator stream depends only on [(seed, index)], so
    a forced regime is exactly as reproducible). *)
val case : ?regime:regime -> seed:int64 -> index:int -> unit -> case
