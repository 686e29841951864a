(* Worker domains block on [work] until a batch is posted; a batch is a
   closure every participant (workers + the posting domain) runs once,
   handed its own slot index — 0 for the posting domain, 1.. for the
   workers — so per-domain accounting can attribute work without any
   shared counters.  The closure itself loops over an atomic chunk
   cursor, so scheduling only decides which domain computes which chunk
   — never what any chunk computes or where its results land. *)

type t = {
  jobs : int;
  mutex : Mutex.t;
  work : Condition.t;  (** signalled when a batch is posted or on stop *)
  finished : Condition.t;  (** signalled when the last worker leaves a batch *)
  mutable batch : (int -> unit) option;  (** receives the running slot *)
  mutable epoch : int;  (** bumped per posted batch *)
  mutable running : int;  (** workers still inside the current batch *)
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  minor : floatarray;
      (** per worker slot: minor words allocated inside chunks; slot 0
          (the caller) is counted by the caller's own samples *)
}

let jobs t = t.jobs

(* Read between batches only: [run_batch]'s mutex orders every worker's
   writes before the caller's read. *)
let worker_minor_words t =
  let s = ref 0. in
  for slot = 1 to Float.Array.length t.minor - 1 do
    s := !s +. Float.Array.get t.minor slot
  done;
  !s

let rec worker_loop t slot seen =
  Mutex.lock t.mutex;
  while (not t.stop) && t.epoch = seen do
    Condition.wait t.work t.mutex
  done;
  if t.stop then Mutex.unlock t.mutex
  else begin
    let epoch = t.epoch in
    let batch = Option.get t.batch in
    Mutex.unlock t.mutex;
    (* Batches never raise: map_chunked catches per chunk. *)
    batch slot;
    Mutex.lock t.mutex;
    t.running <- t.running - 1;
    if t.running = 0 then Condition.broadcast t.finished;
    Mutex.unlock t.mutex;
    worker_loop t slot epoch
  end

(* The OCaml runtime aborts the whole process once ~128 domains exist
   (Domain.spawn raises only up to that hard limit, and other subsystems
   may already hold domains).  Cap pool sizes well below it, scaled to
   the machine: oversubscription beyond a few x cores only adds
   scheduling noise anyway. *)
let max_jobs () = Int.min (8 * Domain.recommended_domain_count ()) 64

let clamp_warned = Atomic.make false

let create ?(jobs = 1) () =
  let requested = jobs in
  let cap = max_jobs () in
  let jobs = Int.max 1 (Int.min requested cap) in
  if requested > cap && not (Atomic.exchange clamp_warned true) then
    Printf.eprintf
      "astskew: jobs=%d exceeds the runtime domain ceiling, clamping to %d\n%!"
      requested jobs;
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      batch = None;
      epoch = 0;
      running = 0;
      stop = false;
      workers = [];
      minor = Float.Array.make jobs 0.;
    }
  in
  t.workers <-
    List.init (jobs - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop t (i + 1) 0));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

(* Run [batch] on every domain of the pool and wait for all of them. *)
let run_batch t batch =
  if t.workers = [] then batch 0
  else begin
    Mutex.lock t.mutex;
    t.batch <- Some batch;
    t.epoch <- t.epoch + 1;
    t.running <- List.length t.workers;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    batch 0;
    Mutex.lock t.mutex;
    while t.running > 0 do
      Condition.wait t.finished t.mutex
    done;
    t.batch <- None;
    Mutex.unlock t.mutex
  end

let map_chunked t ?(sched = Obs.Sched.null) ?(label = "par.map") ?chunk f arr =
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let chunk =
      match chunk with
      | Some c -> Int.max 1 (Int.min c n)
      | None -> Int.max 1 ((n + (4 * t.jobs) - 1) / (4 * t.jobs))
    in
    let n_chunks = (n + chunk - 1) / chunk in
    (* The result array is unboxed ('b array, flat for floats) and filled
       in place — no ['b option array] double-materialization, which used
       to box every element and then copy the whole array once more.  It
       cannot be preallocated before a first value exists (there is no
       'b to fill with), so the first domain to complete an element seeds
       it with [Array.make n v]; the CAS makes losers of the seeding race
       write into the winner's array.  Every slot is overwritten by its
       own chunk's value exactly once, except slots of failing chunks —
       and those are never observed because the chunk's exception
       re-raises first. *)
    let no_results : 'b array = [||] in
    let results = Atomic.make no_results in
    let store i v =
      let r = Atomic.get results in
      let r =
        if r != no_results then r
        else begin
          let fresh = Array.make n v in
          if Atomic.compare_and_set results no_results fresh then fresh
          else Atomic.get results
        end
      in
      Array.unsafe_set r i v
    in
    let errors = Array.make n_chunks None in
    let cursor = Atomic.make 0 in
    (* The recorder sees scheduling, never steers it: chunks are claimed
       from the same cursor either way, and with a disabled recorder
       [ledger] is [None] and the loop below is the historical one. *)
    let ledger =
      Obs.Sched.map_begin sched ~label ~jobs:t.jobs ~items:n ~chunks:n_chunks
    in
    let batch slot =
      let rec go () =
        let c = Atomic.fetch_and_add cursor 1 in
        if c < n_chunks then begin
          let lo = c * chunk in
          let hi = Int.min n (lo + chunk) - 1 in
          let m0 = if slot > 0 then Gc.minor_words () else 0. in
          (match ledger with
           | None -> (
             try
               for i = lo to hi do
                 store i (f arr.(i))
               done
             with exn -> errors.(c) <- Some exn)
           | Some r ->
             let t0 = Obs.Sched.chunk_begin r in
             (try
                for i = lo to hi do
                  store i (f arr.(i))
                done
              with exn -> errors.(c) <- Some exn);
             Obs.Sched.chunk_end r ~slot ~t0);
          if slot > 0 then
            Float.Array.set t.minor slot
              (Float.Array.get t.minor slot +. (Gc.minor_words () -. m0));
          go ()
        end
      in
      go ()
    in
    run_batch t batch;
    (match ledger with None -> () | Some r -> Obs.Sched.map_end r);
    Array.iter (function Some exn -> raise exn | None -> ()) errors;
    let r = Atomic.get results in
    assert (r != no_results);
    r
  end

let map_each pool ?sched ~label f xs =
  match pool with
  | Some t when Array.length xs >= 2 -> map_chunked t ?sched ~label ~chunk:1 f xs
  | _ -> Array.map f xs

let gc_window pool =
  let g0 = Obs.Gcstat.sample () in
  let w0 = Option.fold ~none:0. ~some:worker_minor_words pool in
  fun () ->
    let g = Obs.Gcstat.diff (Obs.Gcstat.sample ()) g0 in
    match pool with
    | None -> g
    | Some p ->
      { g with minor_words = g.minor_words +. (worker_minor_words p -. w0) }

let with_pool ~jobs f =
  if jobs <= 1 then f None
  else begin
    let pool = create ~jobs () in
    Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f (Some pool))
  end

let jobs_of_string s =
  match int_of_string_opt (String.trim s) with
  | Some j when j >= 1 -> Some j
  | _ -> None

let default_jobs () =
  match Option.bind (Sys.getenv_opt "ASTSKEW_JOBS") jobs_of_string with
  | Some j -> Int.min j (max_jobs ())
  | None -> 1
