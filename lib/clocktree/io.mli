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
    are at most as many groups as sinks.  For a group with several
    [groupbound] records the last one counts.

    Both directions are one pass over the records.  The writer prints
    every number exactly as [Printf.sprintf "%.17g"] does (so the text
    reads back bit for bit) without going through [Printf]; the parser
    scans the text by index and reads its numbers in place, with
    [float_of_string] only for tokens the exact reader declines.  Their
    speed and exactness arguments are in DESIGN.md §5.5. *)

val to_string : Instance.t -> string

(** Writes the records to the file as they are formatted, without
    building the whole text first. *)
val write_file : string -> Instance.t -> unit

(** [Printf.sprintf "%.17g" x], the writer's number format. *)
val float_to_string : float -> string [@@reference]

(** The parser's exact decimal reader on a whole token: [Some] its
    value, bit for bit [float_of_string]'s, when the reader decides it,
    and [None] when it declines, leaving the token to
    [float_of_string].  It decides a token of the grammar
    [-?[0-9]+(\.[0-9]+)?] or [-?[0-9]+\.], optionally followed by
    [[eE][+-]?[0-9]+], with at most 18 significant digits and a normal
    double value, unless its 120-bit product cannot settle the rounding
    (DESIGN.md §5.5). *)
val decimal : string -> float option [@@reference]

(** The number of number tokens (every token after a record's keyword;
    whole-line [#] comments are skipped) that {!decimal} declines in a
    text laid out as the writer lays it out. *)
val declined : string -> int

(** Parse an instance; returns [Error message] on malformed input,
    including non-finite numbers and records their constructors reject
    (e.g. a negative capacitance), which report ["line N: ..."].  Runs in
    time linear in the text, whatever the number of groups. *)
val of_string : string -> (Instance.t, string) result

(** {!of_string} on a file's contents; an unreadable file is an [Error]
    too. *)
val read_file : string -> (Instance.t, string) result
