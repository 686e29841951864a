(** Runnable reconstructions of the thesis' illustrative figures.

    Figures 1–5 are conceptual drawings; each function here builds a
    concrete instance exhibiting the figure's phenomenon and returns the
    measured quantities, so the claims become checkable. *)

(** Fig. 1: zero-skew vs bounded-skew routing of a small instance.
    Bounded skew trades a little skew for less wire. *)
type fig1 = {
  zst_wirelength : float;
  zst_skew : float;
  bst_wirelength : float;
  bst_skew : float;
}

val fig1 : unit -> fig1 [@@reference]

(** Fig. 2: routing each group separately and stitching vs associative
    merging, on interleaved groups. *)
type fig2 = { stitched_wirelength : float; associative_wirelength : float }

val fig2 : unit -> fig2 [@@reference]

(** Fig. 3: merging two subtrees from different groups — the merging
    region is the shortest-distance region between their merging
    segments. *)
type fig3 = {
  region : Geometry.Octagon.t;
  vertices : Geometry.Pt.t list;
  distance : float;
}

val fig3 : unit -> fig3

(** Fig. 4: Instance 1 — subtrees sharing exactly one group; the merge
    satisfies that group's constraint and fuses all involved groups into
    one association. *)
type fig4 = {
  kind : Dme.Merge.kind;
  merged_groups : int list;
  shared_group_width : float;  (** <= bound after the merge *)
}

val fig4 : unit -> fig4 [@@reference]

(** Fig. 5: Instance 2 — the closed-form solution of Eqs. (5.1)–(5.3):
    split of the c–f wire and the snaking length on the e wire, with the
    residuals of both balance equations (≈ 0). *)
type fig5 = {
  alpha : float;
  beta : float;
  gamma : float;
  residual_51 : float;
  residual_52 : float;
}

val fig5 : unit -> fig5 [@@reference]

(** Print all figure reconstructions. *)
val print_all : unit -> unit
