(** Snapshot and reset of every registered {!Counter}.

    The snapshot is a JSON object

    {v
    { "counters": { "<name>": <int>, ... } }
    v}

    with entries in registration order.  Benchmarks typically call
    {!reset} before a measured region and {!snapshot} after it. *)

val snapshot : unit -> Json.t

(** Zero every registered counter. *)
val reset : unit -> unit

(** Current value of the named counter; 0 when no such counter exists. *)
val counter : string -> int
