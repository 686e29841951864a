(** Merge-point planning under Elmore delay.

    When two subtrees [a] and [b] at L1 distance [dist] are merged, wires
    of length [ea] and [eb] (with [ea + eb >= dist]; any excess is wire
    snaking) connect the new root to the two subtree roots.  The planner
    works in the space [x = wa - wb] of wire-delay differences: every
    intra-group skew constraint is an interval in [x], the realizable
    detour-free range is [[-wire_delay dist cap_b, wire_delay dist cap_a]],
    and snaking extends the range at the cost of extra wire. *)

(** Delay state of one group on one side of a merge: the range of Elmore
    delays from the subtree root to that group's sinks. *)
type side = { lo : float; hi : float }

(** A skew constraint induced by a group present on both sides. *)
type cons = { a : side; b : side; bound : float }

type plan = {
  ea : float;  (** wire length from merge root to subtree [a] *)
  eb : float;  (** wire length from merge root to subtree [b] *)
  wa : float;  (** Elmore delay of the [ea] wire into subtree [a], ps *)
  wb : float;  (** Elmore delay of the [eb] wire into subtree [b], ps *)
  snake : float;  (** [ea + eb - dist], 0 when no snaking was needed *)
  feasible : bool;
      (** false when the constraint intervals were mutually inconsistent
          and the plan only minimizes the worst violation *)
}

(** [plan params ~dist ~cap_a ~cap_b ~cons ~pref] plans a merge.
    [cap_a]/[cap_b] are the total downstream capacitances (fF) of the two
    subtrees, [cons] the constraints of all shared groups, and [pref] the
    preferred delay difference [x] used when slack remains (pass the
    midpoint difference for balanced trees).  [dist >= 0].
    With [~allow_snake:false] the chosen [x] is clamped into the
    detour-free range instead of snaking — used for unconstrained
    (cross-group) merges, which never justify extra wire. *)
val plan :
  ?allow_snake:bool ->
  Wire.params ->
  dist:float ->
  cap_a:float ->
  cap_b:float ->
  cons:cons list ->
  pref:float ->
  plan

(** Solver for the thesis' Instance 2 system, Eqs. (5.1)–(5.3): merging
    [Tc] and [Tf] whose children pairs (Ta, Td) and (Tb, Te) belong to two
    shared groups.  Given the fixed child wire lengths and subtree
    capacitances, returns [(alpha, beta, gamma)]: the split of the
    [c]–[f] connection and the wire-snaking length added on the [e] wire
    (possibly negative when no snaking is required). *)
val instance2 :
  Wire.params ->
  l_cf:float ->
  l_ac:float ->
  l_bc:float ->
  l_df:float ->
  l_ef:float ->
  cap_a:float ->
  cap_b:float ->
  cap_c:float ->
  cap_d:float ->
  cap_e:float ->
  cap_f:float ->
  float * float * float

