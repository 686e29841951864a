(** Greedy instance minimiser for failing fuzz cases.

    [run ~fails inst] repeatedly tries structure-preserving reductions —
    dropping whole sink groups, ddmin-style chunks of sinks, single
    sinks, snapping coordinates and capacitances to coarse values,
    resetting electrical parameters to defaults — keeping a candidate
    whenever [fails] still holds on it, until no reduction applies.
    [fails] should be true on [inst] itself; the result is a (locally)
    minimal instance that still fails, suitable for freezing as a
    regression test.

    Each candidate re-runs [fails] (typically a full router + audit), so
    shrinking is worth its cost only on the small instances the fuzz
    generator produces. *)

val run :
  fails:(Clocktree.Instance.t -> bool) ->
  Clocktree.Instance.t ->
  Clocktree.Instance.t

(** Rebuild a valid instance from a subset of the sinks: ids are
    renumbered densely, groups compressed, per-group bounds filtered.
    [None] if the subset is empty. *)
val with_sinks :
  Clocktree.Instance.t -> Clocktree.Sink.t list -> Clocktree.Instance.t option
[@@reference]
