(** A routing instance: the full input of the associative-skew problem. *)

type t = private {
  sinks : Sink.t array;
  n_groups : int;
  bound : float;  (** default intra-group skew bound, ps (0 = zero skew) *)
  group_bounds : float array option;
      (** optional per-group bounds overriding [bound] (Chapter II's
          "can be extended to non-zero ... bounded skew constraint") *)
  params : Rc.Wire.params;
  source : Geometry.Pt.t;  (** clock source location *)
  rd : float;  (** driver resistance at the source, ohm *)
}

(** Validates that sink ids are dense (equal to their index), group ids
    lie in [0, n_groups), capacitances, bounds and [rd] are non-negative, and
    every number — sink coordinates and capacitances, [source],
    [bound], [group_bounds], [rd] and the wire [r]/[c] — is finite.
    Finite coordinates must also stay routable: the L1 extent of the
    sinks and source ("non-finite extent") and the Elmore delay of one
    wire spanning that extent while driving every sink's capacitance
    ("non-finite wire delay across the extent") must be finite, and
    that wire plus the driver charging it and every sink must stay
    within 1e15 ps ("delay across the extent above 1e15 ps").
    Raises [Invalid_argument "Instance.make: ..."] naming the failed
    check otherwise. *)
val make :
  ?params:Rc.Wire.params ->
  ?rd:float ->
  ?bound:float ->
  ?group_bounds:float array ->
  source:Geometry.Pt.t ->
  n_groups:int ->
  Sink.t array ->
  t

(** Effective skew bound of one group: its entry in [group_bounds], or
    the default [bound]. *)
val bound_for : t -> int -> float

(** The loosest group bound (used to size slack budgets). *)
val max_bound : t -> float

val n_sinks : t -> int

(** [auto_regions n] is the default region count for [n] sinks: one
    region per thousand sinks, [max 1 (ceil (n / 1000))].  This density
    target is shared by every phase that splits work into regions — the
    clustered planner's region count ([Dme.Cluster.auto_clusters]), the
    repair windows ({!Arena.windows}, capped at 64) and
    the engine's parallel gate ([Dme.Engine.run_arena] opens a pool only
    from two regions up, i.e. above 1000 sinks). *)
val auto_regions : int -> int

(** Sinks of one group. *)
val group_sinks : t -> int -> Sink.t list

(** Number of sinks per group. *)
val group_sizes : t -> int array

(** Axis-aligned bounding box of the sink locations. *)
val bbox : t -> Geometry.Octagon.t

(** L1 diameter of the sink locations: [Octagon.diameter (bbox t)], bit
    for bit, in one allocation-free O(n) pass. *)
val diameter : t -> float

val pp : Format.formatter -> t -> unit
