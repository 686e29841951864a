(** Clock sinks: flip-flop clock pins with a location, a load capacitance
    and the sink group they belong to. *)

type t = {
  id : int;  (** dense index, unique within an instance *)
  loc : Geometry.Pt.t;
  cap : float;  (** load capacitance, fF *)
  group : int;  (** group index in [0, n_groups) *)
}

val make : id:int -> loc:Geometry.Pt.t -> cap:float -> group:int -> t

(** A constant sink that no instance holds, to fill a fresh array of
    sinks with before its records are written.  [Array.make] — and so
    [Array.map] and [Array.init] — of more than 256 elements whose first
    element is a block in the minor heap first empties the minor heap,
    on every domain; a constant never is one. *)
val placeholder : t
