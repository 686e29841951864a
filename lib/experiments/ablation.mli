(** Ablations of the design choices called out in DESIGN.md and §V.F of
    the thesis: the multi-merge speed-up, the delay-target merge order
    and the SDR split-slack. *)

type row = {
  name : string;
  wirelength : float;
  cpu_s : float;
  snaking : float;
  rounds : int;
  reduction_vs_default_pct : float;
}

(** Run all engine variants on one circuit (the paper's is r3), with 8
    intermingled groups at a 10 ps bound. *)
val run : Workload.Circuits.spec -> row list

val print : row list -> unit
