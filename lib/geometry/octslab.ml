(* The slab form of Octagon's layout.  Its kernels are Octagon's own, so
   they live in octagon.ml, where they inline into both forms. *)
include Octagon.Slab
