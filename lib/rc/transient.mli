(** Backward-Euler transient simulation of RC trees.

    The repository's stand-in for SPICE: it integrates the exact circuit
    equations of an [Rctree.t] under a unit voltage step and reports
    threshold-crossing times, so Elmore-based skew estimates can be
    validated against "simulated" delays (Chapter III of the thesis). *)

type result = {
  crossing : float array;
      (** time (ps) at which each node first reaches the threshold;
          [nan] if it never did within the simulated horizon *)
  steps : int;
}

(** [step_response_auto ?resolution tree] simulates a 0→1 V step at the
    source and reports the 50% (0.5 V) crossing times.  The time step is
    max Elmore / [resolution] (default 2000) and the horizon 20× max
    Elmore; each step solves the tree-structured linear system in
    O(n). *)
val step_response_auto : ?resolution:int -> Rctree.t -> result
