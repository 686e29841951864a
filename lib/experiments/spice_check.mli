(** Chapter III validation: Elmore skew versus "SPICE" (the backward-Euler
    transient simulator) skew on routed trees.

    The thesis argues Elmore delay is inaccurate in absolute terms but the
    error largely cancels in skew; this experiment quantifies both on a
    routed benchmark circuit. *)

type result = {
  circuit : string;
  n_sinks : int;
  mean_delay_elmore : float;  (** ps *)
  mean_delay_transient : float;  (** ps *)
  delay_error_pct : float;  (** relative error of mean delay *)
  max_group_skew_elmore : float;  (** ps *)
  max_group_skew_transient : float;  (** ps *)
  skew_gap : float;  (** |transient - elmore| max group skew, ps *)
}

(** Route the given circuit (the paper's is r1) with AST-DME, 8
    intermingled groups at a 10 ps bound, and compare delay models. *)
val run : Workload.Circuits.spec -> result

val print : result -> unit
