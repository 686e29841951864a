(** Allocation counters sampled from [Gc.quick_stat], for attributing
    garbage-collector work to a phase of the program.

    The intended pattern is differential: [sample] before and after the
    region of interest, then [diff after before].  [minor_words] is the
    calling domain's own count ([Gc.minor_words]), exact at any time, so
    a differential means the same thing on any domain and at any jobs
    count; a pooled phase adds its workers' words through
    {!Par.Pool.gc_window}.  The other counters are
    [Gc.quick_stat]'s: the calling domain's plus the other domains' as
    of their last minor collection. *)

type t = {
  minor_words : float;  (** words allocated in the minor heap *)
  promoted_words : float;  (** words promoted minor -> major *)
  major_words : float;  (** words allocated in the major heap, incl. promotions *)
  minor_collections : int;  (** completed minor collections *)
  major_collections : int;  (** completed major cycles *)
}

val zero : t

(** Counters since program start, as seen from the calling domain. *)
val sample : unit -> t

(** [diff a b] is the per-field difference [a - b]: the GC work between
    sample [b] (earlier) and sample [a] (later). *)
val diff : t -> t -> t

(** [Gc.quick_stat]'s [top_heap_words], in words, reported absolutely
    (per benchmark point) rather than differentially.  Under OCaml 5 it
    is not a process high-water mark: it can read lower after a later
    route than after an earlier one, so it is the domains' heap
    statistics at the sample, not a peak. *)
val top_heap_words : unit -> int

val json : t -> Json.t
