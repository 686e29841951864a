let to_string (inst : Instance.t) =
  let buf = Buffer.create 4096 in
  let p fmt = Printf.bprintf buf fmt in
  p "# astskew clock routing instance\n";
  p "params %.17g %.17g\n" inst.params.r inst.params.c;
  p "driver %.17g\n" inst.rd;
  p "source %.17g %.17g\n" inst.source.x inst.source.y;
  p "bound %.17g\n" inst.bound;
  p "groups %d\n" inst.n_groups;
  (match inst.group_bounds with
   | None -> ()
   | Some bs -> Array.iteri (fun g b -> p "groupbound %d %.17g\n" g b) bs);
  Array.iter
    (fun (s : Sink.t) ->
      p "sink %d %.17g %.17g %.17g %d\n" s.id s.loc.x s.loc.y s.cap s.group)
    inst.sinks;
  Buffer.contents buf

let write_file path inst =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string inst))

type parse_state = {
  mutable params : Rc.Wire.params option;
  mutable rd : float option;
  mutable source : Geometry.Pt.t option;
  mutable bound : float option;
  mutable n_groups : int option;
  mutable group_bounds : (int * float * int) list;
      (* (group, bound, line), most recent first *)
  mutable sinks : Sink.t list;
}

let of_string text =
  let st =
    {
      params = None;
      rd = None;
      source = None;
      bound = None;
      n_groups = None;
      group_bounds = [];
      sinks = [];
    }
  in
  let error lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
  let parse_line lineno line =
    let line =
      match String.index_opt line '#' with
      | Some i -> String.sub line 0 i
      | None -> line
    in
    let tokens =
      String.split_on_char ' ' (String.trim line)
      |> List.filter (fun s -> s <> "")
    in
    let float_of s =
      match float_of_string_opt s with
      | Some f when Float.is_finite f -> Ok f
      | Some _ -> Error (Printf.sprintf "line %d: non-finite number %S" lineno s)
      | None -> Error (Printf.sprintf "line %d: bad number %S" lineno s)
    in
    let int_of s =
      match int_of_string_opt s with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "line %d: bad integer %S" lineno s)
    in
    let ( let* ) = Result.bind in
    (* Record constructors ([Wire.make], [Sink.make]) validate their
       arguments with [Invalid_argument]; report that against the line. *)
    let build f =
      match f () with
      | () -> Ok ()
      | exception Invalid_argument msg -> error lineno msg
    in
    match tokens with
    | [] -> Ok ()
    | [ "params"; r; c ] ->
      let* r = float_of r in
      let* c = float_of c in
      build (fun () -> st.params <- Some (Rc.Wire.make ~r ~c))
    | [ "driver"; rd ] ->
      let* rd = float_of rd in
      st.rd <- Some rd;
      Ok ()
    | [ "source"; x; y ] ->
      let* x = float_of x in
      let* y = float_of y in
      st.source <- Some (Geometry.Pt.make x y);
      Ok ()
    | [ "bound"; b ] ->
      let* b = float_of b in
      st.bound <- Some b;
      Ok ()
    | [ "groups"; n ] ->
      let* n = int_of n in
      st.n_groups <- Some n;
      Ok ()
    | [ "groupbound"; g; b ] ->
      let* g = int_of g in
      let* b = float_of b in
      st.group_bounds <- (g, b, lineno) :: st.group_bounds;
      Ok ()
    | [ "sink"; id; x; y; cap; group ] ->
      let* id = int_of id in
      let* x = float_of x in
      let* y = float_of y in
      let* cap = float_of cap in
      let* group = int_of group in
      build (fun () ->
          st.sinks <- Sink.make ~id ~loc:(Geometry.Pt.make x y) ~cap ~group :: st.sinks)
    | keyword :: _ ->
      Error (Printf.sprintf "line %d: unrecognized record %S" lineno keyword)
  in
  let lines = String.split_on_char '\n' text in
  let rec parse_all lineno = function
    | [] -> Ok ()
    | line :: rest ->
      (match parse_line lineno line with
       | Ok () -> parse_all (lineno + 1) rest
       | Error _ as e -> e)
  in
  let ( let* ) = Result.bind in
  let* () = parse_all 1 lines in
  match (st.source, st.n_groups) with
  | None, _ -> error 0 "missing 'source' record"
  | _, None -> error 0 "missing 'groups' record"
  | Some source, Some n_groups ->
    (* [groups] may come after a [groupbound], so ranges are checked
       here, against the first offending line. *)
    let* () =
      match
        List.find_opt
          (fun (g, _, _) -> g < 0 || g >= n_groups)
          (List.rev st.group_bounds)
      with
      | Some (g, _, lineno) -> error lineno (Printf.sprintf "group %d out of range" g)
      | None -> Ok ()
    in
    (* Every group needs a sink: a count beyond the file's sinks can only
       be hostile, and would size per-group arrays by it. *)
    let* () =
      let n = List.length st.sinks in
      if n_groups > n then
        error 0 (Printf.sprintf "%d groups for %d sinks" n_groups n)
      else Ok ()
    in
    let sinks =
      Array.of_list (List.sort (fun (a : Sink.t) b -> compare a.id b.id) st.sinks)
    in
    let group_bounds =
      match st.group_bounds with
      | [] -> None
      | entries ->
        let bs =
          Array.init n_groups (fun g ->
              match List.find_opt (fun (g', _, _) -> g' = g) entries with
              | Some (_, b, _) -> b
              | None -> Option.value st.bound ~default:0.)
        in
        Some bs
    in
    (try
       Ok
         (Instance.make ?params:st.params ?rd:st.rd ?bound:st.bound ?group_bounds
            ~source ~n_groups sinks)
     with Invalid_argument msg -> Error msg)

let read_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error e -> Error e
