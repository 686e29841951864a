(** Regeneration of Tables I and II of the thesis: EXT-BST versus AST-DME
    over the r1–r5 circuits at 4/6/8/10 sink groups, with clustered
    (Table I) or intermingled (Table II) partitions. *)

type row = {
  circuit : string;
  n_sinks : int;
  n_groups : int;
  algorithm : string;  (** "EXT-BST" or "AST-DME" *)
  wirelength : float;
  reduction_pct : float option;  (** vs the circuit's EXT-BST baseline *)
  max_skew_ps : float;  (** maximum skew over all sinks, as in the paper *)
  cpu_s : float;
}

(** [run ~scheme ()] produces the rows of one table: per circuit, the
    EXT-BST baseline (1 group at the instance bound) followed by AST-DME
    at each group count.  Restrict [circuits]/[groups] for quick runs. *)
val run :
  ?circuits:Workload.Circuits.spec list ->
  ?groups:int list ->
  ?bound:float ->
  scheme:Workload.Partition.scheme ->
  unit ->
  row list

(** Print in the thesis' layout. *)
val print : title:string -> row list -> unit
