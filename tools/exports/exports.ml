(* The export checker (DESIGN.md section 12.4): every value a library
   interface exports needs a caller outside its own module, and every
   optional argument of an exported function a caller that passes it;
   and the design document stays true to the code.

     exports.exe -lib FILES -oracle-lib FILES -use FILES -test FILES
       -design FILE -names FILES -docs FILES -cite FILES

   It reads the compiler's typed trees (.cmti, .cmt), where an
   identifier carries the uid of the declaration it names whatever
   [open], alias or library wrapper reached it.  [-lib] modules have
   their exports checked and make production calls; [-oracle-lib] ones
   (the checking library) make oracle calls too; [-use] files make
   production calls, [-test] files oracle calls.  An export needs a
   production caller, or an oracle caller and the [@@reference]
   attribute; a [@@reference] export needs an oracle caller.  An
   optional argument needs a production caller that passes it (or an
   oracle caller, for a [@@reference] export).

   Every section a [-design], [-names], [-docs] or [-cite] text cites
   as "DESIGN §N" (and the [-design] text's own bare "§N") must be a
   numbered heading of the [-design] text, and every library path
   written as code in a [-design] or [-names] text, or in a [-docs]
   interface's doc comments ([[...]] and [{!...}]), must name
   something in the [-lib] or [-oracle-lib] modules.  Each failure is
   one line of output, and any failure exits 1. *)

open Types

type kind = Production | Oracle

type export = {
  name : string;  (** [Module.value], without the library prefix *)
  loc : Location.t;
  uid : Shape.Uid.t;
  unit_name : string;
  reference : bool;
  optionals : string list;
}

(* Each use of a uid ([None]) or optional argument passed to it
   ([Some label]), by kind of caller: the units it is made from. *)
let uses : (Shape.Uid.t * string option * kind, string list) Hashtbl.t = Hashtbl.create 8192

let record uid label kind unit_name =
  let units = Option.value (Hashtbl.find_opt uses (uid, label, kind)) ~default:[] in
  if not (List.mem unit_name units) then Hashtbl.replace uses (uid, label, kind) (unit_name :: units)

let used_outside uid label kind =
  let outside u = match (uid : Shape.Uid.t) with Item i -> i.comp_unit <> u | _ -> false in
  List.exists outside (Option.value (Hashtbl.find_opt uses (uid, label, kind)) ~default:[])

(* [include P] or [let x = P.y] at top level re-exports a value: a use
   of the name is a use of what it names, from the re-exporting unit.
   Each is (unit, name, the name's implementation uid, target uid); the
   name's interface uid is found by name. *)
let forwards = ref []

(* A library unit [Lib__Mod] is shown as [Mod]. *)
let short_unit u =
  let rec last i =
    if i < 1 then u
    else if u.[i] = '_' && u.[i - 1] = '_' then String.sub u (i + 1) (String.length u - i - 1)
    else last (i - 1)
  in
  last (String.length u - 1)

let rec optionals ty =
  match get_desc ty with
  | Tarrow (Optional l, _, rest, _) -> l :: optionals rest
  | Tarrow (_, _, rest, _) -> optionals rest
  | _ -> []

let rec collect unit_name prefix sg acc =
  List.fold_left
    (fun acc -> function
      | Sig_value (id, vd, _) ->
          let reference =
            List.exists (fun (a : Parsetree.attribute) -> a.attr_name.txt = "reference") vd.val_attributes
          in
          { name = prefix ^ Ident.name id; loc = vd.val_loc; uid = vd.val_uid; unit_name; reference;
            optionals = optionals vd.val_type }
          :: acc
      | Sig_module (id, _, { md_type = Mty_signature sg; _ }, _, _) ->
          collect unit_name (prefix ^ Ident.name id ^ ".") sg acc
      | _ -> acc)
    acc sg

let note_uses kinds unit_name (str : Typedtree.structure) =
  let note uid label = List.iter (fun k -> record uid label k unit_name) kinds in
  let expr self (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (_, _, vd) -> note vd.val_uid None
    | Texp_apply ({ exp_desc = Texp_ident (_, _, vd); _ }, args) ->
        (* An optional argument a call leaves out is filled in with a
           [None] that has no location. *)
        List.iter
          (function
            | Asttypes.Optional l, Some (a : Typedtree.expression)
              when not (Location.is_none a.exp_loc) ->
                note vd.val_uid (Some l)
            | _ -> ())
          args
    | _ -> ());
    Tast_iterator.default_iterator.expr self e
  in
  let iter = { Tast_iterator.default_iterator with expr } in
  iter.structure iter str;
  let forward own id uid = forwards := (unit_name, Ident.name id, own, uid) :: !forwards in
  let own_uid id =
    List.find_map
      (function Sig_value (id', vd, _) when Ident.same id id' -> Some vd.val_uid | _ -> None)
      str.str_type
  in
  List.iter
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_include { incl_type; _ } ->
          List.iter (function Sig_value (id, vd, _) -> forward None id vd.val_uid | _ -> ()) incl_type
      | Tstr_value (_, vbs) ->
          List.iter
            (fun (vb : Typedtree.value_binding) ->
              match (vb.vb_pat.pat_desc, vb.vb_expr.exp_desc) with
              | Tpat_var (id, _), Texp_ident (_, _, vd) -> forward (own_uid id) id vd.val_uid
              | _ -> ())
            vbs
      | _ -> ())
    str.str_items

(* --- The design document: section citations and named code --- *)

(* Every checked unit's interface and implementation signatures, by
   unit name ([Geometry__Octagon]) and short name ([Octagon]).  A
   library's alias module ([Geometry]) is a unit like any other. *)
let units : (string, Types.signature) Hashtbl.t = Hashtbl.create 256

let add_unit unit_name sg =
  Hashtbl.add units unit_name sg;
  Hashtbl.add units (short_unit unit_name) sg

let is_upper c = c >= 'A' && c <= 'Z'
let is_digit c = c >= '0' && c <= '9'
let ident_start c = c = '_' || is_upper c || (c >= 'a' && c <= 'z')
let ident_char c = ident_start c || is_digit c || c = '\''

(* Whether the components after a path's head name a top-level item of
   one of [sgs]: a capitalised one a submodule (followed through an
   alias) or a constructor, any other a value or a type.  Record fields
   past a type are not checked, and a module type is taken on trust. *)
let rec resolves sgs = function
  | [] -> true
  | c :: rest ->
      let item = function
        | Sig_value (id, _, _) | Sig_typext (id, _, _, _) -> Ident.name id = c
        | Sig_type (id, td, _, _) -> (
            Ident.name id = c
            ||
            match td.type_kind with
            | Type_variant (cds, _) -> List.exists (fun (cd : constructor_declaration) -> Ident.name cd.cd_id = c) cds
            | _ -> false)
        | Sig_module (id, _, md, _, _) when Ident.name id = c -> (
            match md.md_type with
            | Mty_signature sg -> resolves [ sg ] rest
            | Mty_alias p -> resolves (Hashtbl.find_all units (short_unit (Path.last p))) rest
            | _ -> true)
        | _ -> false
      in
      List.exists (List.exists item) sgs

(* The paths [A.b], [A.B.c], [A.B], ... written in a piece of code. *)
let paths code =
  let n = String.length code in
  let rec component i = if i < n && ident_char code.[i] then component (i + 1) else i in
  let rec path i acc =
    let j = component i in
    let acc = String.sub code i (j - i) :: acc in
    if j + 1 < n && code.[j] = '.' && ident_start code.[j + 1] then path (j + 1) acc else (List.rev acc, j)
  in
  let rec go i acc =
    if i >= n then List.rev acc
    else if is_upper code.[i] && (i = 0 || not (ident_char code.[i - 1] || code.[i - 1] = '.')) then
      let p, j = path i [] in
      go j (if List.length p > 1 then p :: acc else acc)
    else go (i + 1) acc
  in
  go 0 []

(* The code of a markdown text, with the line it starts on: each
   backticked span (which may wrap) and each line of a fenced block. *)
let code_of text =
  let spans = ref [] and fenced = ref false and open_span = ref None in
  List.iteri
    (fun i line ->
      let line_no = i + 1 in
      if String.starts_with ~prefix:"```" (String.trim line) then fenced := not !fenced
      else if !fenced then spans := (line_no, line) :: !spans
      else begin
        String.iter
          (fun c ->
            match (c, !open_span) with
            | '`', None -> open_span := Some (line_no, Buffer.create 32)
            | '`', Some (l, b) -> spans := (l, Buffer.contents b) :: !spans; open_span := None
            | c, Some (_, b) -> Buffer.add_char b c
            | _, None -> ())
          line;
        Option.iter (fun (_, b) -> Buffer.add_char b ' ') !open_span
      end)
    (String.split_on_char '\n' text);
  List.rev !spans

(* The code of an interface's doc comments, with the line it starts
   on: each [[...]] span (brackets nest, and may wrap) and each
   [{!...}] reference (a [{!type:] prefix is no path).  Comments nest,
   so a doc comment ends where its own nesting closes. *)
let doc_code_of text =
  let n = String.length text in
  let at i p = i + String.length p <= n && String.sub text i (String.length p) = p in
  let spans = ref [] and line = ref 1 in
  (* Records the span from [i] up to the [stop] that closes it, with
     the line it starts on, and returns the index after the [stop]. *)
  let span i stop =
    let b = Buffer.create 32 and l = !line and depth = ref 0 and j = ref i in
    while !j < n && not (text.[!j] = stop && !depth = 0) do
      let c = text.[!j] in
      if c = '\n' then incr line;
      if stop = ']' && c = '[' then incr depth;
      if stop = ']' && c = ']' then decr depth;
      Buffer.add_char b (if c = '\n' then ' ' else c);
      incr j
    done;
    spans := (l, Buffer.contents b) :: !spans;
    !j + 1
  in
  let rec doc i depth =
    if i >= n then i
    else if at i "*)" then if depth = 0 then i + 2 else doc (i + 2) (depth - 1)
    else if at i "(*" then doc (i + 2) (depth + 1)
    else if text.[i] = '\n' then (incr line; doc (i + 1) depth)
    else if text.[i] = '[' then doc (span (i + 1) ']') depth
    else if at i "{!" then doc (span (i + 2) '}') depth
    else doc (i + 1) depth
  in
  let rec go i =
    if i < n then
      if at i "(**" && not (at i "(**)") then go (doc (i + 3) 0)
      else begin
        if text.[i] = '\n' then incr line;
        go (i + 1)
      end
  in
  go 0;
  List.rev !spans

(* [N] or [N.M] at [i], with the index after it. *)
let number s i =
  let n = String.length s in
  let rec digits j = if j < n && is_digit s.[j] then digits (j + 1) else j in
  let j = digits i in
  if j = i then None
  else
    let k = if j + 1 < n && s.[j] = '.' && is_digit s.[j + 1] then digits (j + 1) else j in
    Some (String.sub s i (k - i), k)

(* The numbers of the design document's headings: "## N." and "### N.M". *)
let sections text =
  List.filter_map
    (fun line ->
      let heading prefix = String.starts_with ~prefix line in
      match (heading "## ", heading "### ") with
      | true, _ -> (
          match number line 3 with
          | Some (s, j) when j < String.length line && line.[j] = '.' && not (String.contains s '.') -> Some s
          | _ -> None)
      | _, true -> ( match number line 4 with Some (s, _) when String.contains s '.' -> Some s | _ -> None)
      | _ -> None)
    (String.split_on_char '\n' text)

let sect = "\xc2\xa7"

(* The sections a text cites, each with its offset: "DESIGN §N",
   "DESIGN.md §N, §M and §K", "DESIGN.md section(s) N (and M)", with
   any line break and comment leader between the words, and with
   [bare] every "§N" (the design document's references to itself). *)
let citations ~bare text =
  let n = String.length text in
  let at i p = i + String.length p <= n && String.sub text i (String.length p) = p in
  let word i w = at i w && not (i + String.length w < n && ident_char text.[i + String.length w]) in
  let rec skip i = if i < n && String.contains " \t\r\n#;*" text.[i] then skip (i + 1) else i in
  (* A list of numbers from [i], each after a "§" when [in_sect],
     separated by a comma, an "and" or both. *)
  let rec list i in_sect acc =
    match number text i with
    | None -> acc
    | Some (s, j) ->
        let acc = (i, s) :: acc and k = skip j in
        let comma = k < n && text.[k] = ',' in
        let k = if comma then skip (k + 1) else k in
        let conj = word k "and" in
        let k = if conj then skip (k + 3) else k in
        if not (comma || conj) then acc
        else if not in_sect then list k false acc
        else if at k sect then list (k + String.length sect) true acc
        else acc
  in
  let rec go i acc =
    if i >= n then acc
    else if at i "DESIGN" && (i = 0 || not (ident_char text.[i - 1])) then
      let j = skip (if at (i + 6) ".md" then i + 9 else i + 6) in
      if at j sect then go j (list (j + String.length sect) true acc)
      else if word j "section" || word j "sections" then
        let k = skip (j + if word j "section" then 7 else 8) in
        go k (list k false acc)
      else go (i + 1) acc
    else if bare && at i sect then go (i + 1) (list (i + String.length sect) true acc)
    else go (i + 1) acc
  in
  go 0 []

(* Each citation must name a heading of the design document, and each
   path in its code, README.md's or a library interface's doc comments
   whose head is a library unit must name something in that unit. *)
let check_texts texts fail =
  let read f = In_channel.with_open_bin f In_channel.input_all in
  let pos f line = { Lexing.dummy_pos with pos_fname = f; pos_lnum = line } in
  let design = List.concat_map (fun (r, f) -> if r = `Design then sections (read f) else []) texts in
  List.iter
    (fun (role, f) ->
      let text = read f in
      let line_of i =
        let l = ref 1 in
        String.iteri (fun j c -> if j < i && c = '\n' then incr l) text;
        !l
      in
      List.iter
        (fun (i, s) ->
          if not (List.mem s design) then fail (pos f (line_of i)) ("DESIGN " ^ sect ^ s ^ ": no such section"))
        (citations ~bare:(role = `Design) text);
      let code = match role with `Cite -> [] | `Docs -> doc_code_of text | `Design | `Names -> code_of text in
      List.iter
        (fun (line, code) ->
          List.iter
            (fun p ->
              match Hashtbl.find_all units (List.hd p) with
              | [] -> ()
              | sgs -> if not (resolves sgs (List.tl p)) then fail (pos f line) (String.concat "." p ^ ": names nothing in lib"))
            (paths code))
        code)
    texts

let () =
  let role = ref (false, []) and text = ref None and texts = ref [] in
  let set exports kinds = Arg.Unit (fun () -> role := (exports, kinds); text := None) in
  let set_text r = Arg.Unit (fun () -> text := Some r) in
  let interfaces = Hashtbl.create 64 and exports = ref [] and no_mli = ref [] in
  let file f =
    match !text with
    | Some r -> texts := (r, f) :: !texts
    | None -> (
        let cmt = Cmt_format.read_cmt f and checked, kinds = !role in
        let unit_name = cmt.cmt_modname and prefix = short_unit cmt.cmt_modname ^ "." in
        match cmt.cmt_annots with
        | Interface s when checked ->
            Hashtbl.replace interfaces unit_name ();
            add_unit unit_name s.sig_type;
            exports := collect unit_name prefix s.sig_type !exports
        | Implementation s ->
            if checked then begin
              add_unit unit_name s.str_type;
              no_mli := (unit_name, prefix, s.str_type) :: !no_mli
            end;
            note_uses kinds unit_name s
        | _ -> ())
  in
  Arg.parse
    [ ("-lib", set true [ Production ], ""); ("-oracle-lib", set true [ Production; Oracle ], "");
      ("-use", set false [ Production ], ""); ("-test", set false [ Oracle ], "");
      ("-design", set_text `Design, ""); ("-names", set_text `Names, ""); ("-docs", set_text `Docs, "");
      ("-cite", set_text `Cite, "") ]
    file "exports.exe [-lib|-oracle-lib|-use|-test|-design|-names|-docs|-cite] FILES...";
  (* A module without an interface exports its implementation's values. *)
  List.iter
    (fun (u, prefix, sg) -> if not (Hashtbl.mem interfaces u) then exports := collect u prefix sg !exports)
    !no_mli;
  (* Twice, for a re-export of a re-export. *)
  for _ = 1 to 2 do
    List.iter
      (fun (u, name, own, uid) ->
        let source from =
          Option.equal Shape.Uid.equal own (Some from)
          || List.exists (fun e -> Shape.Uid.equal e.uid from && e.name = short_unit u ^ "." ^ name) !exports
        in
        Hashtbl.fold (fun (from, l, k) _ acc -> if source from then (l, k) :: acc else acc) uses []
        |> List.iter (fun (l, k) -> record uid l k u))
      !forwards
  done;
  let failures = ref [] in
  let fail e msg = failures := (e.loc.loc_start, e.name ^ ": " ^ msg) :: !failures in
  List.iter
    (fun e ->
      let production = used_outside e.uid None Production and oracle = used_outside e.uid None Oracle in
      if e.reference && not oracle then fail e "marked [@@reference] but no test or oracle calls it"
      else if not (production || oracle) then fail e "nothing outside its module uses it"
      else if not (production || e.reference) then
        fail e "only tests use it; mark it [@@reference] if an oracle needs it";
      List.iter
        (fun l ->
          if not (used_outside e.uid (Some l) Production || (e.reference && used_outside e.uid (Some l) Oracle))
          then fail { e with name = e.name ^ " ?" ^ l } "no caller passes it")
        e.optionals)
    !exports;
  check_texts (List.rev !texts) (fun pos msg -> failures := (pos, msg) :: !failures);
  let failures = List.sort_uniq compare !failures in
  List.iter (fun ((p : Lexing.position), msg) -> Printf.printf "%s:%d: %s\n" p.pos_fname p.pos_lnum msg) failures;
  if failures <> [] then exit 1
