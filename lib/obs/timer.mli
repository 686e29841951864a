(** The wall clock the observability library reads. *)

(** Current wall clock in seconds (arbitrary epoch, not monotonic). *)
val now : unit -> float
