(** Structured tracing: spans, instant events, a per-round JSONL journal
    and run-level histograms, exportable as Chrome trace-event JSON
    (loadable in Perfetto / [chrome://tracing]).

    A trace context is either the shared {!null} context — disabled, and
    every operation on it a no-op — or an enabled context created by
    {!create}.  Emission is safe from any domain: events are appended to
    per-domain buffers (one mutex-guarded list per emitting domain) and
    merged at read time, ordered by a process-wide atomic {e sequence
    counter} rather than by wall time, so the merged order is total and
    stable even when domain clocks disagree or step.  Events emitted
    from serial code are therefore in deterministic order; events racing
    on worker domains interleave by acquisition order of the counter.

    Hot paths must guard emission behind {!enabled} so the disabled case
    allocates nothing:

    {[
      if Obs.Trace.enabled trace then
        Obs.Trace.instant trace ~cat:"dme" ~args:[ ("round", Int r) ] "merge"
    ]}

    Timestamps come from [Unix.gettimeofday] relative to the context's
    creation, clamped to be non-negative at emission and to be
    non-decreasing (in sequence order) at export, so exported traces are
    monotone even across clock steps. *)

type phase =
  | Instant
  | Complete of float
      (** a finished span; the payload is its duration in seconds *)

type event = {
  seq : int;  (** process-wide emission order; spans use their begin *)
  domain : int;  (** numeric id of the emitting domain *)
  ts : float;  (** seconds since context creation (span: begin time) *)
  name : string;
  cat : string;
  phase : phase;
  args : (string * Json.t) list;  (** typed key/value payload *)
}

type t

(** The disabled context: {!enabled} is [false], every emitter returns
    without allocating, every reader reports an empty trace. *)
val null : t

(** A fresh enabled context. *)
val create : unit -> t

val enabled : t -> bool

(** Emit an instant event.  [cat] defaults to [""]. *)
val instant :
  t -> ?cat:string -> ?args:(string * Json.t) list -> string -> unit

(** [span t name f] runs [f ()] and emits one {!Complete} event carrying
    the elapsed wall time (also on exception).  The event's sequence
    number is taken {e before} [f] runs, so a parent span always orders
    before the events inside it. *)
val span :
  t -> ?cat:string -> ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a

(** [timed t name f] is {!span} returning also the elapsed wall seconds,
    which it measures even on a disabled context.  The returned wall and
    the emitted span's duration are one measurement. *)
val timed : t -> ?cat:string -> string -> (unit -> 'a) -> 'a * float

(** Merge fields into the run manifest, replacing earlier values of the
    same key (first-set key order is kept). *)
val merge_manifest : t -> (string * Json.t) list -> unit

(** Append one record to the JSONL journal (main-domain callers only:
    record order is append order). *)
val journal : t -> Json.t -> unit

(** The histogram registered under [name] in this context, created on
    first use (exports list histograms in creation order).  On a disabled
    context this returns a shared throwaway histogram, but hot paths
    should not rely on that — guard with {!enabled}. *)
val histogram : t -> string -> Histogram.t

(** All buffered events merged across domains, ascending by [seq]: what
    {!to_chrome} exports, read typed by the trace oracles. *)
val events : t -> event list [@@reference]

(** Journal records in append order. *)
val journal_records : t -> Json.t list

(** Chrome trace-event JSON: an object with a ["traceEvents"] list
    (spans as ["ph" = "X"] complete events, instants as ["ph" = "i"],
    [tid] = emitting domain, timestamps in microseconds clamped
    monotone), the manifest under ["otherData"], and the histograms
    under ["histograms"]. *)
val to_chrome : t -> Json.t

val write_chrome : string -> t -> unit

(** Write the JSONL journal: one ["manifest"] record, every {!journal}
    record in order, then one ["histograms"] record (omitted when no
    histogram was touched).  Every line is one self-contained JSON
    object. *)
val write_journal : string -> t -> unit
