(** Parallel-efficiency flight recorder.

    [Sched] answers "where do the domains sit idle?" for the clustered
    routing pipeline.  {!Par.Pool.map_chunked} opens a {!recording} per
    call when handed an enabled recorder, timestamps every chunk on the
    domain that ran it, and folds the finished per-call ledger into the
    recorder under a phase name derived from the ledger label
    ("engine.rank" and "engine.commit" both land in phase "engine").
    {!Run.phase} credits each phase's wall with {!note_phase}; {!report}
    then derives, per phase, the wall spent inside parallel maps, the
    serial residue outside them, per-slot busy time and chunk counts,
    chunk-latency quantiles, and Amdahl-projected speedups at 4/8/16
    domains from the measured serial fraction.

    Discipline is identical to {!Trace}: {!null} is free, every entry
    point checks that it is enabled first, and a disabled recorder adds no
    locking, no allocation and no clock reads to the hot path.  The
    recorder observes scheduling only — it never influences chunk
    assignment — so routed trees are bit-identical with the recorder on
    or off (the [Check.Oracle.sched] invariance row enforces
    this). *)

type t

(** The disabled recorder: recording through it is a no-op. *)
val null : t

val create : unit -> t

(** {1 Recording — called by [Par.Pool]} *)

(** One in-flight [map_chunked] ledger.  Slots index the domains of the
    pool: slot 0 is the calling domain, slots 1.. its workers.  Each
    slot writes only its own cells, so recording needs no locks on the
    chunk path. *)
type recording

(** Open a ledger; [None] when the recorder is disabled.  [label] names
    the call site as ["phase.detail"]; [jobs] is the pool width,
    [items]/[chunks] the input split. *)
val map_begin :
  t -> label:string -> jobs:int -> items:int -> chunks:int ->
  recording option

(** Timestamp a chunk start (also samples pool occupancy); pass the
    result to {!chunk_end}. *)
val chunk_begin : recording -> float

(** Account one finished chunk to [slot]. *)
val chunk_end : recording -> slot:int -> t0:float -> unit

(** Close the ledger and fold it into its phase. *)
val map_end : recording -> unit

(** Attribute [wall_s] seconds of phase wall clock (measured by
    {!Run.phase}) to [phase]; accumulates across calls.  The phase wall is what the
    serial fraction is measured against — time inside it but outside
    any recorded map is serial residue. *)
val note_phase : t -> phase:string -> wall_s:float -> unit

(** {1 Reporting} *)

type label_report = {
  label : string;
  ledgers : int;  (** map_chunked calls under this label *)
  items : int;
  chunks : int;
  par_wall_s : float;
  busy_fraction : float array;
      (** per slot (0 = caller): busy seconds inside this label's chunks
          over its [par_wall_s] — how evenly its batches kept the pool
          busy *)
}

type phase_report = {
  phase : string;
  wall_s : float;  (** noted phase wall (>= [par_wall_s]) *)
  par_wall_s : float;  (** wall spent inside recorded maps *)
  serial_s : float;  (** [wall_s - par_wall_s] *)
  serial_fraction : float;
  jobs : int;  (** widest pool seen in the phase *)
  busy_s : float array;  (** per slot: 0 = caller, 1.. = workers *)
  busy_fraction : float array;  (** [busy_s / par_wall_s] per slot *)
  chunks_per_slot : int array;
  chunk_p50_s : float;
  chunk_p99_s : float;
  amdahl : (int * float) array;  (** projected speedup at 4/8/16 *)
  labels : label_report list;
}

type report = {
  jobs : int;
  wall_s : float;
  par_wall_s : float;
  serial_s : float;
  serial_fraction : float;
  amdahl : (int * float) array;
  occupancy : (int * int) array;
      (** (concurrently busy domains, chunk-start samples) *)
  phases : phase_report list;
}

(** [None] when the recorder is disabled. *)
val report : t -> report option

val json_of_report : report -> Json.t
