(* One export of each kind the checker must tell apart. *)

(* No caller anywhere: reported. *)
val dead : int -> int

(* Called, but never with [?scale]: the argument is reported. *)
val scaled : ?scale:int -> int -> int

(* Marked as a reference, but no test calls it: reported. *)
val reference : int -> int [@@reference]

(* Called only through a module alias and [open]: passes. *)
val aliased : int -> int

(* Called only as [Slab.get], which includes this submodule: passes. *)
module Sub : sig
  val get : int -> int
end
