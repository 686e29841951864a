(* Opt-in stderr heartbeat: a [null] reporter is [None] and every entry
   point is a no-op through it, so the pipeline can call [region_done]
   unconditionally.  Region completions arrive from worker domains (the
   cluster planner maps one region per chunk), so all state lives under
   one mutex; emission is throttled to one line per [interval] except
   on phase changes and [finish], which always print. *)

(* Seconds between heartbeat lines. *)
let interval = 1.0

type ctx = {
  lock : Mutex.t;
  out : out_channel;
  t0 : float;
  mutable last_emit : float;
  mutable phase : string;
  mutable phase_t0 : float;
  mutable totals : int array;  (** regions announced, per cluster depth *)
  mutable dones : int array;  (** regions completed, per cluster depth *)
  mutable heap_watermark : int;  (** largest sampled top_heap_words, in words *)
}

type t = ctx option

let null : t = None

let create ?(out = stderr) () : t =
  let now = Timer.now () in
  Some
    {
      lock = Mutex.create ();
      out;
      t0 = now;
      last_emit = Float.neg_infinity;
      phase = "start";
      phase_t0 = now;
      totals = [||];
      dones = [||];
      heap_watermark = 0;
    }

let locked c f =
  Mutex.lock c.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.lock) f

let grow c depth =
  let len = Array.length c.totals in
  if depth >= len then begin
    let totals = Array.make (depth + 1) 0 in
    let dones = Array.make (depth + 1) 0 in
    Array.blit c.totals 0 totals 0 len;
    Array.blit c.dones 0 dones 0 len;
    c.totals <- totals;
    c.dones <- dones
  end

(* One heartbeat line, strictly space-separated [key=value] tokens so
   the CI smoke (and anything watching stderr) can parse it:

     progress phase=engine wall_s=12.4 heap_words=1234567 eta_s=3.2 \
       regions0=3/8 regions1=12/64

   [eta_s] extrapolates the busiest region level from its completion
   ratio and the elapsed phase wall; "?" until a first region lands. *)
let emit c now =
  c.last_emit <- now;
  let hw = (Gc.quick_stat ()).Gc.top_heap_words in
  if hw > c.heap_watermark then c.heap_watermark <- hw;
  let buf = Buffer.create 128 in
  Buffer.add_string buf "progress";
  Printf.bprintf buf " phase=%s" c.phase;
  Printf.bprintf buf " wall_s=%.1f" (now -. c.t0);
  Printf.bprintf buf " heap_words=%d" c.heap_watermark;
  let eta = ref None in
  let best_total = ref 0 in
  Array.iteri
    (fun depth total ->
      if total > 0 && total > !best_total then begin
        best_total := total;
        let d = c.dones.(depth) in
        if d > 0 && d < total then
          eta :=
            Some
              ((now -. c.phase_t0) *. float_of_int (total - d)
              /. float_of_int d)
        else eta := None
      end)
    c.totals;
  (match !eta with
   | Some e -> Printf.bprintf buf " eta_s=%.1f" e
   | None -> Buffer.add_string buf " eta_s=?");
  Array.iteri
    (fun depth total ->
      if total > 0 then
        Printf.bprintf buf " regions%d=%d/%d" depth c.dones.(depth) total)
    c.totals;
  Buffer.add_char buf '\n';
  output_string c.out (Buffer.contents buf);
  flush c.out

let maybe_emit c =
  let now = Timer.now () in
  if now -. c.last_emit >= interval then emit c now

let phase (t : t) name =
  match t with
  | None -> ()
  | Some c ->
    locked c (fun () ->
        c.phase <- name;
        c.phase_t0 <- Timer.now ();
        (* A new phase's region counters start fresh: completed levels
           of the previous phase would poison the ETA ratio. *)
        Array.fill c.totals 0 (Array.length c.totals) 0;
        Array.fill c.dones 0 (Array.length c.dones) 0;
        emit c (Timer.now ()))

let add_regions (t : t) ~depth n =
  match t with
  | None -> ()
  | Some c ->
    locked c (fun () ->
        grow c depth;
        c.totals.(depth) <- c.totals.(depth) + Int.max 0 n)

let region_done (t : t) ~depth =
  match t with
  | None -> ()
  | Some c ->
    locked c (fun () ->
        grow c depth;
        c.dones.(depth) <- c.dones.(depth) + 1;
        maybe_emit c)

let tick (t : t) =
  match t with None -> () | Some c -> locked c (fun () -> maybe_emit c)

let finish (t : t) =
  match t with
  | None -> ()
  | Some c ->
    locked c (fun () ->
        c.phase <- "done";
        emit c (Timer.now ()))
