type phase = Instant | Complete of float

type event = {
  seq : int;
  domain : int;
  ts : float;
  name : string;
  cat : string;
  phase : phase;
  args : (string * Json.t) list;
}

type t = {
  enabled : bool;
  seq : int Atomic.t;
  epoch : float;  (** gettimeofday at creation; event [ts] are relative *)
  custom : (event -> unit) option;
  lock : Mutex.t;
  (* One reversed event list per emitting domain; merged and seq-sorted
     by [events].  The table itself is only touched under [lock]. *)
  buffers : (int, event list ref) Hashtbl.t;
  mutable manifest_fields : (string * Json.t) list;  (** first-set order *)
  mutable journal_rev : Json.t list;
  hist_tbl : (string, Histogram.t) Hashtbl.t;
  mutable hist_names_rev : string list;
  dummy_hist : Histogram.t;  (** returned by [histogram] when disabled *)
}

let make ~enabled ~custom =
  {
    enabled;
    seq = Atomic.make 0;
    epoch = Unix.gettimeofday ();
    custom;
    lock = Mutex.create ();
    buffers = Hashtbl.create 8;
    manifest_fields = [];
    journal_rev = [];
    hist_tbl = Hashtbl.create 8;
    hist_names_rev = [];
    dummy_hist = Histogram.create "disabled";
  }

let null = make ~enabled:false ~custom:None
let create ?sink () = make ~enabled:true ~custom:sink
let enabled t = t.enabled

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let emit t ev =
  match t.custom with
  | Some f -> f ev
  | None ->
    locked t (fun () ->
        match Hashtbl.find_opt t.buffers ev.domain with
        | Some l -> l := ev :: !l
        | None -> Hashtbl.add t.buffers ev.domain (ref [ ev ]))

let now t = Float.max 0. (Unix.gettimeofday () -. t.epoch)

let instant t ?(cat = "") ?(args = []) name =
  if t.enabled then begin
    let seq = Atomic.fetch_and_add t.seq 1 in
    let domain = (Domain.self () :> int) in
    emit t { seq; domain; ts = now t; name; cat; phase = Instant; args }
  end

(* The clock is read even when disabled: [timed] is also how a caller
   gets one phase wall that the span, if any, reports too. *)
let timed t ?(cat = "") ?(args = []) name f =
  (* Sequence and timestamp are taken before [f]: a parent span orders
     before everything emitted inside it. *)
  let seq = if t.enabled then Atomic.fetch_and_add t.seq 1 else 0 in
  let t0 = Unix.gettimeofday () in
  let finish () =
    let wall = Float.max 0. (Unix.gettimeofday () -. t0) in
    if t.enabled then
      emit t
        {
          seq;
          domain = (Domain.self () :> int);
          ts = Float.max 0. (t0 -. t.epoch);
          name;
          cat;
          phase = Complete wall;
          args;
        };
    wall
  in
  match f () with
  | x -> (x, finish ())
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    ignore (finish ());
    Printexc.raise_with_backtrace e bt

let span t ?cat ?args name f =
  if not t.enabled then f () else fst (timed t ?cat ?args name f)

let merge_manifest t fields =
  if t.enabled then
    locked t (fun () ->
        List.iter
          (fun (k, v) ->
            if List.mem_assoc k t.manifest_fields then
              t.manifest_fields <-
                List.map
                  (fun (k', v') -> if k' = k then (k', v) else (k', v'))
                  t.manifest_fields
            else t.manifest_fields <- t.manifest_fields @ [ (k, v) ])
          fields)

let manifest t = Json.Obj (locked t (fun () -> t.manifest_fields))

let journal t record =
  if t.enabled then
    locked t (fun () -> t.journal_rev <- record :: t.journal_rev)

let histogram t ?per_decade name =
  if not t.enabled then t.dummy_hist
  else
    locked t (fun () ->
        match Hashtbl.find_opt t.hist_tbl name with
        | Some h -> h
        | None ->
          let h = Histogram.create ?per_decade name in
          Hashtbl.add t.hist_tbl name h;
          t.hist_names_rev <- name :: t.hist_names_rev;
          h)

let events t =
  locked t (fun () ->
      Hashtbl.fold (fun _ l acc -> List.rev_append !l acc) t.buffers []
      |> List.sort (fun (a : event) (b : event) -> Int.compare a.seq b.seq))

let journal_records t = locked t (fun () -> List.rev t.journal_rev)

let histograms t =
  locked t (fun () ->
      List.rev_map (fun n -> Hashtbl.find t.hist_tbl n) t.hist_names_rev)

let micros s = Json.Float (s *. 1e6)

let to_chrome t =
  let evs = events t in
  (* Clamp timestamps monotone in sequence order: a wall-clock step must
     not make the exported trace run backwards. *)
  let last = ref 0. in
  let items =
    List.map
      (fun ev ->
        let ts = Float.max ev.ts !last in
        last := ts;
        let phase =
          match ev.phase with
          | Instant -> [ ("ph", Json.String "i"); ("s", Json.String "t") ]
          | Complete dur -> [ ("ph", Json.String "X"); ("dur", micros dur) ]
        in
        let args =
          match ev.args with [] -> [] | a -> [ ("args", Json.Obj a) ]
        in
        Json.Obj
          ([
             ("name", Json.String ev.name);
             ("cat", Json.String (if ev.cat = "" then "default" else ev.cat));
             ("pid", Json.Int 1);
             ("tid", Json.Int ev.domain);
             ("ts", micros ts);
           ]
          @ phase @ args))
      evs
  in
  Json.Obj
    [
      ("traceEvents", Json.List items);
      ("displayTimeUnit", Json.String "ms");
      ("otherData", manifest t);
      ("histograms", Json.List (List.map Histogram.to_json (histograms t)));
    ]

let write_chrome path t = Json.write_file path (to_chrome t)

let with_type ty = function
  | Json.Obj fields when not (List.mem_assoc "type" fields) ->
    Json.Obj (("type", Json.String ty) :: fields)
  | v -> v

let write_journal path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let line v =
        output_string oc (Json.to_string v);
        output_char oc '\n'
      in
      line (with_type "manifest" (manifest t));
      List.iter line (journal_records t);
      match histograms t with
      | [] -> ()
      | hs ->
        line
          (Json.Obj
             [
               ("type", Json.String "histograms");
               ("histograms", Json.List (List.map Histogram.to_json hs));
             ]))
