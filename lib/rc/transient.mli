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

(** [step_response tree ~dt ~t_end ~threshold] simulates a 0→1 V step at
    the source.  [dt] and [t_end] are in ps; [threshold] in volts
    (e.g. 0.5).  Each step solves the tree-structured linear system in
    O(n). *)
val step_response :
  Rctree.t -> dt:float -> t_end:float -> threshold:float -> result

(** Convenience wrapper choosing [dt] and [t_end] from the tree's Elmore
    delays: [dt] = max Elmore / [resolution], horizon = 20× max Elmore. *)
val step_response_auto :
  ?resolution:int -> ?threshold:float -> Rctree.t -> result
