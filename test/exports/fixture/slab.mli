(** An interface's doc comments are checked too: [Shapes.aliased] and
    {!Shapes.Sub.get} name exports and pass, while [Shapes.within] and
    {!val:Slab.sdr_within} name nothing and are reported.  A plain
    comment is not read. *)

(* [Shapes.gone] is not reported. *)
val get : int -> int
