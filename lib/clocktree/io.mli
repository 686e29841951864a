(** Plain-text instance files, so circuits can be exchanged with other
    tools and edited by hand.

    Format (one record per line, [#] starts a comment):

    {v
    params <r_ohm_per_unit> <c_ff_per_unit>
    driver <rd_ohm>
    source <x> <y>
    bound <ps>
    groupbound <group> <ps>        # optional, repeatable
    groups <n>
    sink <id> <x> <y> <cap_ff> <group>
    v}

    Records may appear in any order.  Sink ids must be dense, and there
    are at most as many groups as sinks. *)

val to_string : Instance.t -> string
val write_file : string -> Instance.t -> unit

(** Parse an instance; returns [Error message] on malformed input,
    including non-finite numbers and records their constructors reject
    (e.g. a negative capacitance), which report ["line N: ..."]. *)
val of_string : string -> (Instance.t, string) result

(** {!of_string} on a file's contents; an unreadable file is an [Error]
    too. *)
val read_file : string -> (Instance.t, string) result
