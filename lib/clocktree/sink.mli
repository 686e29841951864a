(** Clock sinks: flip-flop clock pins with a location, a load capacitance
    and the sink group they belong to. *)

type t = {
  id : int;  (** dense index, unique within an instance *)
  loc : Geometry.Pt.t;
  cap : float;  (** load capacitance, fF *)
  group : int;  (** group index in [0, n_groups) *)
}

val make : id:int -> loc:Geometry.Pt.t -> cap:float -> group:int -> t
