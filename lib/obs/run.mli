(** One route's observability context.

    A route is observed through three independent sinks: a {!Trace}
    (spans, per-round journal, histograms), a {!Sched} flight recorder
    (per-domain ledgers of every parallel map) and a {!Progress}
    heartbeat.  Every layer of the routing pipeline takes the three
    together as one optional [?run] argument and hands the same value
    down, so a caller configures observability once.  {!null} disables
    all three; a layer reads the field it needs and keeps each sink's
    own discipline: hot paths test a hoisted [enabled] flag before they
    emit, and the disabled path neither allocates nor reads a clock.

    Observation never influences routing: trees, delays and stats are
    bit-identical under any context ([Check.Oracle.trace] and
    [Check.Oracle.sched] rows). *)

type t = { trace : Trace.t; sched : Sched.t; progress : Progress.t }

(** Every sink disabled. *)
val null : t

(** [phase run name f] runs one pipeline phase of a route and returns
    [f ()] with the phase's wall seconds.  The clock is read once at
    each end of the phase and that one measurement feeds four places:
    the phase is announced to [run.progress] (one heartbeat line), the
    ["router.<name>"] span of [run.trace] carries it as its duration,
    [run.sched] credits it to phase [name] (the wall against which that
    phase's serial fraction is measured) and the caller gets it back
    for the route's reported timings. *)
val phase : t -> string -> (unit -> 'a) -> 'a * float

(** Close a route: prints the final [phase=done] heartbeat and returns
    the recorder's report, which an enabled trace also receives as one
    [type = "efficiency"] journal record.  [None] when [run.sched] is
    disabled. *)
val finish : t -> Sched.report option
