type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* %.12g keeps stats values readable with ample precision; JSON has no
   representation for non-finite numbers, so those become null. *)
let float_repr f =
  if Float.is_finite f then Printf.sprintf "%.12g" f else "null"

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape buf s
  | List l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf v)
      l;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape buf k;
        Buffer.add_char buf ':';
        emit buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  emit buf v;
  Buffer.contents buf

let pp ppf v = Format.pp_print_string ppf (to_string v)

let write_file path v =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string v);
      output_char oc '\n')

(* --- Parsing --------------------------------------------------------------

   Recursive-descent parser for the emitter's output (and standard JSON
   generally): perfbench reads BENCHMARK.json and the tests read emitted
   output back.  Numbers with a '.', exponent or non-finite spelling become
   [Float], others [Int]; [null] parses to [Null] (the emitter writes
   non-finite floats as null, which is lossy by design).  Unicode escapes
   outside the Latin-1 range are replaced with '?' — stats files never
   contain them. *)

exception Parse_error of { pos : int; msg : string }

let parse_error pos msg = raise (Parse_error { pos; msg })

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> parse_error !pos (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else parse_error !pos (Printf.sprintf "expected %s" word)
  in
  let string_body () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> parse_error !pos "unterminated string"
      | Some '"' ->
        advance ();
        Buffer.contents buf
      | Some '\\' ->
        advance ();
        (match peek () with
         | Some '"' -> Buffer.add_char buf '"'
         | Some '\\' -> Buffer.add_char buf '\\'
         | Some '/' -> Buffer.add_char buf '/'
         | Some 'n' -> Buffer.add_char buf '\n'
         | Some 'r' -> Buffer.add_char buf '\r'
         | Some 't' -> Buffer.add_char buf '\t'
         | Some 'b' -> Buffer.add_char buf '\b'
         | Some 'f' -> Buffer.add_char buf '\012'
         | Some 'u' ->
           if !pos + 4 >= n then parse_error !pos "truncated \\u escape";
           let hex = String.sub s (!pos + 1) 4 in
           (* Exactly four hex digits: OCaml's own int-literal syntax
              would also accept signs and underscores ("\u00_1"), which
              are not JSON. *)
           let is_hex = function
             | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
             | _ -> false
           in
           if not (String.for_all is_hex hex) then
             parse_error !pos "bad \\u escape";
           let code = int_of_string ("0x" ^ hex) in
           Buffer.add_char buf (if code < 0x100 then Char.chr code else '?');
           pos := !pos + 4
         | _ -> parse_error !pos "bad escape");
        advance ();
        go ()
      | Some c ->
        advance ();
        Buffer.add_char buf c;
        go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    (* JSON numbers may start with '-' or a digit only; OCaml's
       [int_of_string] would otherwise accept a leading '+'. *)
    (match peek () with
     | Some ('-' | '0' .. '9') -> ()
     | _ -> parse_error start "bad number");
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    let floaty = String.exists (function '.' | 'e' | 'E' -> true | _ -> false) lit in
    if floaty then
      match float_of_string_opt lit with
      | Some f -> Float f
      | None -> parse_error start "bad number"
    else
      match int_of_string_opt lit with
      | Some i -> Int i
      | None ->
        (* Integer literal overflowing native int (not produced by the
           emitter, but legal JSON): degrade to float. *)
        (match float_of_string_opt lit with
         | Some f -> Float f
         | None -> parse_error start "bad number")
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> parse_error !pos "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (string_body ())
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec elems acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elems (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> parse_error !pos "expected ',' or ']'"
        in
        List (elems [])
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = string_body () in
          skip_ws ();
          expect ':';
          let v = value () in
          (k, v)
        in
        let rec fields acc =
          let f = field () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields (f :: acc)
          | Some '}' ->
            advance ();
            List.rev (f :: acc)
          | _ -> parse_error !pos "expected ',' or '}'"
        in
        Obj (fields [])
      end
    | Some _ -> number ()
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then parse_error !pos "trailing garbage";
  v

let of_string_opt s =
  match of_string s with v -> Some v | exception Parse_error _ -> None

let read_file path =
  let ic = open_in_bin path in
  let contents =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_string contents
