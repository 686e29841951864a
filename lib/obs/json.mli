(** A minimal JSON value type, emitter and parser — just enough for the
    stats output of the router and the benchmark harnesses (including
    reading JSON files back, such as perfbench's BENCHMARK.json), with
    no external dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** non-finite values are emitted as [null] *)
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** Write the value to [path] followed by a newline, creating or
    truncating the file. *)
val write_file : string -> t -> unit

(** Raised by {!of_string} and {!read_file} on malformed input; [pos] is
    a byte offset into the text. *)
exception Parse_error of { pos : int; msg : string }

(** Parse one JSON value (standard JSON; numbers without '.' or an
    exponent become [Int], others [Float]).  Exactly inverts
    {!to_string} up to the emitter's lossy cases: non-finite floats were
    written as [null] and parse back as [Null], and [\u] escapes beyond
    Latin-1 degrade to ['?'].  Raises {!Parse_error}. *)
val of_string : string -> t

val of_string_opt : string -> t option

(** [read_file path] parses the file's entire contents as one JSON
    value.  Raises {!Parse_error} on malformed JSON and [Sys_error] on
    I/O failure. *)
val read_file : string -> t
