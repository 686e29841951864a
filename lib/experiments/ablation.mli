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

(** Run all engine variants on one circuit (default r3, 8 intermingled
    groups, 10 ps bound). *)
val run :
  ?spec:Workload.Circuits.spec ->
  ?n_groups:int ->
  ?bound:float ->
  unit ->
  row list

val print : row list -> unit
