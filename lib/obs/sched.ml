(* The flight recorder mirrors Trace's explicit-context discipline: a
   [null] recorder is [None], every recording entry point checks it
   first, and the disabled path neither locks nor allocates.  When
   enabled, Par.Pool opens a [recording] per map_chunked call, worker
   slots accumulate busy time into disjoint cells of a per-recording
   floatarray (no contention, no locks on the chunk path beyond the
   latency histogram's own mutex), and the completed ledger folds into
   its phase under the context lock. *)

type label_stats = {
  mutable l_ledgers : int;
  mutable l_items : int;
  mutable l_chunks : int;
  mutable l_par_wall_s : float;
  mutable l_busy : floatarray;  (** per-slot busy seconds *)
}

type phase = {
  pname : string;
  latency : Histogram.t;  (** chunk latencies, seconds *)
  mutable p_jobs : int;  (** widest pool seen in this phase *)
  mutable p_ledgers : int;
  mutable p_items : int;
  mutable p_chunks : int;
  mutable p_par_wall_s : float;  (** wall spent inside map_chunked *)
  mutable p_wall_s : float;  (** phase wall noted by Run.phase *)
  mutable p_busy : floatarray;  (** per-slot busy seconds *)
  mutable p_chunks_per_slot : int array;
  mutable labels : (string * label_stats) list;  (** insertion order *)
}

(* Pool sizes are capped at 64 (Par.Pool.create's cap), so a fixed 65-cell
   occupancy table covers every level; cell [k] counts chunk starts
   observed while [k] domains (including the starter) were inside an
   instrumented chunk anywhere in the process. *)
let occ_levels = 65

type ctx = {
  lock : Mutex.t;
  mutable phases : (string * phase) list;  (** insertion order *)
  gauge : int Atomic.t;
  occ : int Atomic.t array;
}

type t = ctx option

let null : t = None

let create () : t =
  Some
    {
      lock = Mutex.create ();
      phases = [];
      gauge = Atomic.make 0;
      occ = Array.init occ_levels (fun _ -> Atomic.make 0);
    }

let locked c f =
  Mutex.lock c.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.lock) f

(* A ledger label is "phase.detail" (or just "phase"): the prefix names
   the pipeline phase the ledger is attributed to, the full label keys
   the per-call-site breakdown within it. *)
let phase_of_label label =
  match String.index_opt label '.' with
  | Some i -> String.sub label 0 i
  | None -> label

(* Callers hold the lock. *)
let find_phase c name =
  match List.assoc_opt name c.phases with
  | Some p -> p
  | None ->
    let p =
      {
        pname = name;
        latency = Histogram.create (name ^ ".chunk_s");
        p_jobs = 1;
        p_ledgers = 0;
        p_items = 0;
        p_chunks = 0;
        p_par_wall_s = 0.;
        p_wall_s = 0.;
        p_busy = Float.Array.make 0 0.;
        p_chunks_per_slot = [||];
        labels = [];
      }
    in
    c.phases <- c.phases @ [ (name, p) ];
    p

let find_label p label =
  match List.assoc_opt label p.labels with
  | Some l -> l
  | None ->
    let l =
      {
        l_ledgers = 0;
        l_items = 0;
        l_chunks = 0;
        l_par_wall_s = 0.;
        l_busy = Float.Array.make 0 0.;
      }
    in
    p.labels <- p.labels @ [ (label, l) ];
    l

type recording = {
  r_ctx : ctx;
  r_phase : phase;
  r_label : label_stats;
  r_jobs : int;
  r_items : int;
  r_chunks : int;
  r_t0 : float;
  r_busy : floatarray;  (** per-slot; slots write disjoint cells *)
  r_runs : int array;
}

let map_begin (t : t) ~label ~jobs ~items ~chunks =
  match t with
  | None -> None
  | Some c ->
    let phase, lbl =
      locked c (fun () ->
          let p = find_phase c (phase_of_label label) in
          (p, find_label p label))
    in
    Some
      {
        r_ctx = c;
        r_phase = phase;
        r_label = lbl;
        r_jobs = jobs;
        r_items = items;
        r_chunks = chunks;
        r_t0 = Timer.now ();
        r_busy = Float.Array.make jobs 0.;
        r_runs = Array.make jobs 0;
      }

let chunk_begin r =
  let o = 1 + Atomic.fetch_and_add r.r_ctx.gauge 1 in
  Atomic.incr (Array.unsafe_get r.r_ctx.occ (Int.min o (occ_levels - 1)));
  Timer.now ()

let chunk_end r ~slot ~t0 =
  Atomic.decr r.r_ctx.gauge;
  let dt = Float.max 0. (Timer.now () -. t0) in
  Float.Array.unsafe_set r.r_busy slot
    (Float.Array.unsafe_get r.r_busy slot +. dt);
  r.r_runs.(slot) <- r.r_runs.(slot) + 1;
  Histogram.observe r.r_phase.latency dt

let map_end r =
  let wall = Float.max 0. (Timer.now () -. r.r_t0) in
  let c = r.r_ctx in
  locked c (fun () ->
      let p = r.r_phase in
      p.p_jobs <- Int.max p.p_jobs r.r_jobs;
      p.p_ledgers <- p.p_ledgers + 1;
      p.p_items <- p.p_items + r.r_items;
      p.p_chunks <- p.p_chunks + r.r_chunks;
      p.p_par_wall_s <- p.p_par_wall_s +. wall;
      if Float.Array.length p.p_busy < r.r_jobs then begin
        let busy = Float.Array.make r.r_jobs 0. in
        Float.Array.blit p.p_busy 0 busy 0 (Float.Array.length p.p_busy);
        p.p_busy <- busy;
        let runs = Array.make r.r_jobs 0 in
        Array.blit p.p_chunks_per_slot 0 runs 0
          (Array.length p.p_chunks_per_slot);
        p.p_chunks_per_slot <- runs
      end;
      for slot = 0 to r.r_jobs - 1 do
        Float.Array.set p.p_busy slot
          (Float.Array.get p.p_busy slot +. Float.Array.get r.r_busy slot);
        p.p_chunks_per_slot.(slot) <-
          p.p_chunks_per_slot.(slot) + r.r_runs.(slot)
      done;
      let l = r.r_label in
      if Float.Array.length l.l_busy < r.r_jobs then begin
        let busy = Float.Array.make r.r_jobs 0. in
        Float.Array.blit l.l_busy 0 busy 0 (Float.Array.length l.l_busy);
        l.l_busy <- busy
      end;
      for slot = 0 to r.r_jobs - 1 do
        Float.Array.set l.l_busy slot
          (Float.Array.get l.l_busy slot +. Float.Array.get r.r_busy slot)
      done;
      l.l_ledgers <- l.l_ledgers + 1;
      l.l_items <- l.l_items + r.r_items;
      l.l_chunks <- l.l_chunks + r.r_chunks;
      l.l_par_wall_s <- l.l_par_wall_s +. wall)

let note_phase (t : t) ~phase ~wall_s =
  match t with
  | None -> ()
  | Some c ->
    locked c (fun () ->
        let p = find_phase c phase in
        p.p_wall_s <- p.p_wall_s +. Float.max 0. wall_s)

(* --- report ---------------------------------------------------------------- *)

type label_report = {
  label : string;
  ledgers : int;
  items : int;
  chunks : int;
  par_wall_s : float;
  busy_fraction : float array;  (** per slot: busy_s / par_wall_s *)
}

type phase_report = {
  phase : string;
  wall_s : float;
  par_wall_s : float;
  serial_s : float;
  serial_fraction : float;
  jobs : int;
  busy_s : float array;  (** per slot: 0 = caller, 1.. = workers *)
  busy_fraction : float array;  (** busy_s / par_wall_s per slot *)
  chunks_per_slot : int array;
  chunk_p50_s : float;
  chunk_p99_s : float;
  amdahl : (int * float) array;
  labels : label_report list;
}

type report = {
  jobs : int;
  wall_s : float;
  par_wall_s : float;
  serial_s : float;
  serial_fraction : float;
  amdahl : (int * float) array;
  occupancy : (int * int) array;  (** (busy domains, chunk-start samples) *)
  phases : phase_report list;
}

(* Amdahl's bound for measured serial fraction [s]: the projected
   speedup of the whole run at [n] domains is 1 / (s + (1 - s) / n). *)
let amdahl_points = [| 4; 8; 16 |]

let amdahl_of s =
  Array.map
    (fun n -> (n, 1. /. (s +. ((1. -. s) /. float_of_int n))))
    amdahl_points

let serial_split ~wall ~par =
  let wall = Float.max wall par in
  let serial = Float.max 0. (wall -. par) in
  let fraction = if wall > 0. then serial /. wall else 1. in
  (wall, serial, fraction)

let report (t : t) =
  match t with
  | None -> None
  | Some c ->
    let phases =
      locked c (fun () ->
          List.map
            (fun (_, p) ->
              (* The noted wall is authoritative; a phase that only ever
                 ran maps (nobody noted it) counts as fully parallel. *)
              let wall, serial, fraction =
                serial_split ~wall:p.p_wall_s ~par:p.p_par_wall_s
              in
              let slots = Float.Array.length p.p_busy in
              let busy_s =
                Array.init slots (fun i -> Float.Array.get p.p_busy i)
              in
              let busy_fraction =
                Array.map
                  (fun b ->
                    if p.p_par_wall_s > 0. then b /. p.p_par_wall_s else 0.)
                  busy_s
              in
              let q x =
                Option.value ~default:0. (Histogram.quantile p.latency x)
              in
              {
                phase = p.pname;
                wall_s = wall;
                par_wall_s = p.p_par_wall_s;
                serial_s = serial;
                serial_fraction = fraction;
                jobs = p.p_jobs;
                busy_s;
                busy_fraction;
                chunks_per_slot = Array.copy p.p_chunks_per_slot;
                chunk_p50_s = q 0.5;
                chunk_p99_s = q 0.99;
                amdahl = amdahl_of fraction;
                labels =
                  List.map
                    (fun (label, l) ->
                      {
                        label;
                        ledgers = l.l_ledgers;
                        items = l.l_items;
                        chunks = l.l_chunks;
                        par_wall_s = l.l_par_wall_s;
                        busy_fraction =
                          Array.init (Float.Array.length l.l_busy) (fun i ->
                              if l.l_par_wall_s > 0. then
                                Float.Array.get l.l_busy i /. l.l_par_wall_s
                              else 0.);
                      })
                    p.labels;
              })
            c.phases)
    in
    let wall =
      List.fold_left (fun a (p : phase_report) -> a +. p.wall_s) 0. phases
    in
    let par =
      List.fold_left (fun a (p : phase_report) -> a +. p.par_wall_s) 0. phases
    in
    let wall, serial, fraction = serial_split ~wall ~par in
    let occupancy =
      Array.to_list c.occ
      |> List.mapi (fun level a -> (level, Atomic.get a))
      |> List.filter (fun (_, n) -> n > 0)
      |> Array.of_list
    in
    Some
      {
        jobs =
          List.fold_left
            (fun a (p : phase_report) -> Int.max a p.jobs)
            1 phases;
        wall_s = wall;
        par_wall_s = par;
        serial_s = serial;
        serial_fraction = fraction;
        amdahl = amdahl_of fraction;
        occupancy;
        phases;
      }

let json_of_amdahl a =
  Json.Obj
    (Array.to_list
       (Array.map (fun (n, s) -> (string_of_int n, Json.Float s)) a))

let mean arr =
  let n = Array.length arr in
  if n = 0 then 0.
  else Array.fold_left ( +. ) 0. arr /. float_of_int n

let json_of_phase (p : phase_report) =
  let busy_mean = mean p.busy_fraction in
  Json.Obj
    [
      ("phase", Json.String p.phase);
      ("wall_s", Json.Float p.wall_s);
      ("par_wall_s", Json.Float p.par_wall_s);
      ("serial_s", Json.Float p.serial_s);
      ("serial_fraction", Json.Float p.serial_fraction);
      ("jobs", Json.Int p.jobs);
      ( "busy_s",
        Json.List (Array.to_list (Array.map (fun b -> Json.Float b) p.busy_s))
      );
      ( "busy_fraction",
        Json.List
          (Array.to_list (Array.map (fun b -> Json.Float b) p.busy_fraction))
      );
      ("busy_fraction_mean", Json.Float busy_mean);
      ("idle_fraction", Json.Float (Float.max 0. (1. -. busy_mean)));
      ( "chunks_per_slot",
        Json.List
          (Array.to_list (Array.map (fun n -> Json.Int n) p.chunks_per_slot))
      );
      ("chunk_latency_p50_s", Json.Float p.chunk_p50_s);
      ("chunk_latency_p99_s", Json.Float p.chunk_p99_s);
      ("amdahl", json_of_amdahl p.amdahl);
      ( "labels",
        Json.List
          (List.map
             (fun l ->
               Json.Obj
                 [
                   ("label", Json.String l.label);
                   ("ledgers", Json.Int l.ledgers);
                   ("items", Json.Int l.items);
                   ("chunks", Json.Int l.chunks);
                   ("par_wall_s", Json.Float l.par_wall_s);
                   ( "busy_fraction",
                     Json.List
                       (Array.to_list
                          (Array.map (fun b -> Json.Float b) l.busy_fraction))
                   );
                 ])
             p.labels) );
    ]

let json_of_report (r : report) =
  Json.Obj
    [
      ("jobs", Json.Int r.jobs);
      ("wall_s", Json.Float r.wall_s);
      ("par_wall_s", Json.Float r.par_wall_s);
      ("serial_s", Json.Float r.serial_s);
      ("serial_fraction", Json.Float r.serial_fraction);
      ("amdahl", json_of_amdahl r.amdahl);
      ( "occupancy",
        Json.List
          (Array.to_list
             (Array.map
                (fun (level, n) ->
                  Json.Obj
                    [ ("busy", Json.Int level); ("samples", Json.Int n) ])
                r.occupancy)) );
      ("phases", Json.List (List.map json_of_phase r.phases));
    ]
