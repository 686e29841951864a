(** Live run heartbeat.

    An opt-in stderr narrator for long clustered routes: the driver
    announces {!phase} changes, the cluster planner and the repair pass
    announce region totals ({!add_regions}) and completions
    ({!region_done}) per hierarchy depth, and the reporter prints a
    throttled heartbeat line carrying the phase, cumulative wall clock,
    a live heap watermark (from [Gc.quick_stat]'s [top_heap_words]),
    per-depth region completion counts, and an ETA extrapolated from
    the completed-region ratio of the busiest level.

    Heartbeat lines are strictly space-separated [key=value] tokens:

    {v
    progress phase=engine wall_s=12.4 heap_words=1234567 eta_s=3.2 regions0=3/8 regions1=12/64
    v}

    The {!null} reporter is free: every entry point is a no-op through
    it, so pipeline code calls in unconditionally.  Completions may
    arrive from worker domains; all entry points are thread-safe. *)

type t

val null : t

(** [create ?interval ?out ()] makes a live reporter printing to [out]
    (default [stderr]) at most once per [interval] seconds (default 1;
    phase changes and {!finish} always print). *)
val create : ?interval:float -> ?out:out_channel -> unit -> t

val enabled : t -> bool

(** Enter a named phase: resets the region counters and prints
    immediately. *)
val phase : t -> string -> unit

(** Announce [n] more regions at hierarchy [depth] (0 = top). *)
val add_regions : t -> depth:int -> int -> unit

(** One region at [depth] completed; prints if the interval elapsed. *)
val region_done : t -> depth:int -> unit

(** Opportunistic heartbeat from any long-running loop. *)
val tick : t -> unit

(** Print a final [phase=done] line. *)
val finish : t -> unit
