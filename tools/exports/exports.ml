(* The export checker (DESIGN.md section 44): every value a library
   interface exports needs a caller outside its own module, and every
   optional argument of an exported function a caller that passes it.

     exports.exe -lib FILES -oracle-lib FILES -use FILES -test FILES

   It reads the compiler's typed trees (.cmti, .cmt), where an
   identifier carries the uid of the declaration it names whatever
   [open], alias or library wrapper reached it.  [-lib] modules have
   their exports checked and make production calls; [-oracle-lib] ones
   (the checking library) make oracle calls too; [-use] files make
   production calls, [-test] files oracle calls.  An export needs a
   production caller, or an oracle caller and the [@@reference]
   attribute; a [@@reference] export needs an oracle caller.  An
   optional argument needs a production caller that passes it (or an
   oracle caller, for a [@@reference] export).  Each failure is one
   line of output, and any failure exits 1. *)

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

let () =
  let role = ref (false, []) in
  let set exports kinds = Arg.Unit (fun () -> role := (exports, kinds)) in
  let interfaces = Hashtbl.create 64 and exports = ref [] and no_mli = ref [] in
  let file f =
    let cmt = Cmt_format.read_cmt f and checked, kinds = !role in
    let unit_name = cmt.cmt_modname and prefix = short_unit cmt.cmt_modname ^ "." in
    match cmt.cmt_annots with
    | Interface s when checked ->
        Hashtbl.replace interfaces unit_name ();
        exports := collect unit_name prefix s.sig_type !exports
    | Implementation s ->
        if checked then no_mli := (unit_name, prefix, s.str_type) :: !no_mli;
        note_uses kinds unit_name s
    | _ -> ()
  in
  Arg.parse
    [ ("-lib", set true [ Production ], ""); ("-oracle-lib", set true [ Production; Oracle ], "");
      ("-use", set false [ Production ], ""); ("-test", set false [ Oracle ], "") ]
    file "exports.exe [-lib|-oracle-lib|-use|-test] FILES...";
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
  let failures = List.sort_uniq compare !failures in
  List.iter (fun ((p : Lexing.position), msg) -> Printf.printf "%s:%d: %s\n" p.pos_fname p.pos_lnum msg) failures;
  if failures <> [] then exit 1
