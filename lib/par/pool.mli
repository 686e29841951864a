(** Fixed-size domain work pool with a deterministic parallel map.

    A pool owns [jobs - 1] worker domains (zero when [jobs = 1]); the
    domain that created the pool participates in every batch, so a pool
    of [jobs = n] computes with [n] domains total.  The only primitive is
    {!map_chunked}: results are gathered in input-index order and every
    output element is computed by exactly one domain, so for a pure
    function the result is bit-identical to [Array.map] regardless of
    [jobs], chunk size or scheduling.  This is the property the DME
    engine's parallel merge ranking relies on for jobs-invariant routed
    trees.

    Thread-safety contract for the mapped function: it runs concurrently
    on several domains, so it must not mutate shared state.  Reading
    shared immutable data (or data the caller guarantees is not mutated
    for the duration of the call, e.g. a packed
    {!Geometry.Grid_index.snapshot}) is safe.  Counts the mapped
    function produces travel back in its results, to be summed by the
    caller.  [map_chunked] is not
    reentrant: the mapped function must not itself call into the same
    pool. *)

type t

(** [create ~jobs ()] spawns [jobs - 1] worker domains.  [jobs] is
    clamped to [1 .. min (8 * Domain.recommended_domain_count ()) 64]:
    comfortably below the runtime's domain limit while still allowing
    oversubscription for latency-hiding experiments.  The OCaml runtime
    hard-aborts the process once ~128 domains exist, so an oversized
    request (say [--jobs 100000]) is clamped with a one-time warning on
    stderr rather than crashing.  Creating a pool is not free: a spawn plus join of
    one worker domain costs 100–330 µs, a third or more of a whole
    ~20-sink route (370–540 µs serially), and each [map_chunked] batch
    adds a hand-off.  Pools are therefore opened only where the work
    outweighs that cost — the engine and repair each gate theirs on
    instance size — and reused across many [map_chunked]
    calls; call {!shutdown} when done to join the workers. *)
val create : ?jobs:int -> unit -> t

(** Number of domains (including the caller) a batch runs on. *)
val jobs : t -> int

(** [gc_window pool] opens a GC window on the calling domain: calling
    the result gives the {!Obs.Gcstat} differential since, with the
    minor words [pool]'s workers allocated in between added (each worker
    takes its own [Gc.minor_words] around every chunk it runs).  Open and
    close it between batches, inside the pool's lifetime: a domain's
    spawn and join are not the phase's allocation. *)
val gc_window : t option -> unit -> Obs.Gcstat.t

(** [map_chunked t ?sched ?label ?chunk f arr] is [Array.map f arr]
    computed by all domains of the pool.  The input is split into
    contiguous chunks of [chunk] elements (clamped to
    [1 .. length arr]; default: enough chunks to balance [4 * jobs]
    ways) which domains claim from a shared atomic cursor.  If [f]
    raises, the exception of the lowest-indexed failing chunk is
    re-raised on the calling domain after the batch completes —
    deterministic, whichever domain hit it.

    When [sched] is an enabled {!Obs.Sched} recorder, the call opens a
    ledger under [label] (default ["par.map"]; by convention
    ["phase.detail"]) and accounts every chunk — latency, running slot,
    pool occupancy — to it.  Recording observes scheduling but never
    steers it: chunk claiming, result placement and error propagation
    are byte-for-byte the uninstrumented ones, and with the default
    {!Obs.Sched.null} recorder the instrumented branch is never
    entered. *)
val map_chunked :
  t -> ?sched:Obs.Sched.t -> ?label:string -> ?chunk:int ->
  ('a -> 'b) -> 'a array -> 'b array

(** [map_each pool ?sched ~label f xs] maps [f] over [xs] one item per
    chunk on [pool] when there are two or more items, and is
    [Array.map f xs] otherwise (no pool, or nothing to share).  The
    shape of every coarse-grained phase: regions, windows, stitches. *)
val map_each :
  t option -> ?sched:Obs.Sched.t -> label:string ->
  ('a -> 'b) -> 'a array -> 'b array

(** Join the worker domains.  Idempotent; after shutdown the pool still
    works but runs everything on the calling domain. *)
val shutdown : t -> unit

(** [with_pool ~jobs f] runs [f (Some pool)] with a fresh pool of
    [jobs] domains, shutting it down when [f] returns or raises; with
    [jobs <= 1] it is [f None] and no domain is spawned.  The standard
    scoped-pool pattern used by the engine, the cluster planner and
    repair. *)
val with_pool : jobs:int -> (t option -> 'a) -> 'a

(** [default_jobs ()] is the process-wide default parallelism: the value
    of the [ASTSKEW_JOBS] environment variable when it parses as a
    positive integer, else 1 (fully serial).  Never exceeds the cap of
    {!create}. *)
val default_jobs : unit -> int
