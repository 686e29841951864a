(* Tests for Par.Pool: deterministic chunked parallel map over a fixed
   set of worker domains, plus the atomicity of Obs counters that the
   thread-safety contract of the mapped function relies on. *)

let with_pool jobs f =
  let pool = Par.Pool.create ~jobs () in
  Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) (fun () -> f pool)

(* --- map_chunked: ordering and determinism -------------------------------- *)

(* Adversarial chunk sizes: 0 (clamps to 1), 1, odd sizes that don't
   divide the input, and far larger than the input. *)
let chunks = [ None; Some 0; Some 1; Some 3; Some 7; Some 1000 ]
let jobs_sweep = [ 1; 2; 4 ]

let test_map_matches_array_map () =
  let input = Array.init 103 (fun i -> i) in
  let f x = (x * x) + 1 in
  let expected = Array.map f input in
  List.iter
    (fun jobs ->
      with_pool jobs (fun pool ->
          List.iter
            (fun chunk ->
              let got = Par.Pool.map_chunked pool ?chunk f input in
              Alcotest.(check (array int))
                (Printf.sprintf "jobs=%d chunk=%s" jobs
                   (match chunk with
                    | None -> "default"
                    | Some c -> string_of_int c))
                expected got)
            chunks))
    jobs_sweep

let test_map_empty_and_single () =
  List.iter
    (fun jobs ->
      with_pool jobs (fun pool ->
          let empty = Par.Pool.map_chunked pool string_of_int [||] in
          Alcotest.(check (array string)) "empty input" [||] empty;
          let one = Par.Pool.map_chunked pool ~chunk:5 string_of_int [| 7 |] in
          Alcotest.(check (array string)) "single element" [| "7" |] one))
    jobs_sweep

(* Each output slot must be written exactly once — count writes per index
   through an atomic per-slot tally. *)
let test_each_index_once () =
  let n = 64 in
  let writes = Array.init n (fun _ -> Atomic.make 0) in
  with_pool 4 (fun pool ->
      let _ =
        Par.Pool.map_chunked pool ~chunk:3
          (fun i ->
            Atomic.incr writes.(i);
            i)
          (Array.init n (fun i -> i))
      in
      Array.iteri
        (fun i w ->
          Alcotest.(check int)
            (Printf.sprintf "index %d computed once" i)
            1 (Atomic.get w))
        writes)

(* --- allocating vs non-allocating mapped functions ------------------------- *)

(* The result buffer is filled without the boxed ['b option array]
   double-materialization it used to have; these stress both extremes of
   what [f] returns — unboxable floats from a function that allocates
   nothing itself, and freshly heap-allocated structured values — across
   many batches, checking against [Array.map] each time. *)
let test_stress_non_allocating_f () =
  let input = Array.init 10_000 (fun i -> float_of_int i) in
  let f x = (x *. x) +. 1.5 in
  let expected = Array.map f input in
  List.iter
    (fun jobs ->
      with_pool jobs (fun pool ->
          for _ = 1 to 20 do
            let got = Par.Pool.map_chunked pool ~chunk:97 f input in
            Alcotest.(check bool)
              (Printf.sprintf "float map matches (jobs=%d)" jobs)
              true (got = expected)
          done))
    jobs_sweep

let test_stress_allocating_f () =
  let input = Array.init 5_000 (fun i -> i) in
  let f x = (string_of_int x, [ x; x + 1 ], float_of_int x /. 3.) in
  let expected = Array.map f input in
  List.iter
    (fun jobs ->
      with_pool jobs (fun pool ->
          for _ = 1 to 10 do
            let got = Par.Pool.map_chunked pool ~chunk:61 f input in
            Alcotest.(check bool)
              (Printf.sprintf "allocating map matches (jobs=%d)" jobs)
              true (got = expected)
          done))
    jobs_sweep

(* Exactly-once must also hold when [f] allocates (a GC-triggered domain
   interleaving must not re-run or skip a chunk). *)
let test_each_index_once_allocating () =
  let n = 512 in
  let writes = Array.init n (fun _ -> Atomic.make 0) in
  with_pool 4 (fun pool ->
      let got =
        Par.Pool.map_chunked pool ~chunk:7
          (fun i ->
            Atomic.incr writes.(i);
            Bytes.make (1 + (i mod 64)) 'x')
          (Array.init n (fun i -> i))
      in
      Alcotest.(check int) "all results present" n (Array.length got);
      Array.iteri
        (fun i w ->
          Alcotest.(check int)
            (Printf.sprintf "index %d computed once" i)
            1 (Atomic.get w))
        writes)

(* --- exception propagation ------------------------------------------------- *)

exception Boom of int

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      with_pool jobs (fun pool ->
          let raised =
            try
              ignore
                (Par.Pool.map_chunked pool ~chunk:1
                   (fun i -> if i mod 10 = 3 then raise (Boom i) else i)
                   (Array.init 40 (fun i -> i)));
              None
            with Boom i -> Some i
          in
          (* Several chunks fail (i = 3, 13, 23, 33); the lowest-indexed
             failing chunk wins regardless of which domain ran it. *)
          Alcotest.(check (option int))
            (Printf.sprintf "lowest failing chunk's exception (jobs=%d)" jobs)
            (Some 3) raised;
          (* The pool survives a failed batch. *)
          let ok = Par.Pool.map_chunked pool succ [| 1; 2; 3 |] in
          Alcotest.(check (array int)) "pool usable after raise" [| 2; 3; 4 |] ok))
    [ 1; 4 ]

(* --- pool reuse and shutdown ----------------------------------------------- *)

let test_pool_reuse () =
  with_pool 4 (fun pool ->
      Alcotest.(check int) "jobs" 4 (Par.Pool.jobs pool);
      for round = 1 to 50 do
        let n = 1 + (round mod 17) in
        let got = Par.Pool.map_chunked pool ~chunk:2 (fun x -> x * round)
            (Array.init n (fun i -> i)) in
        let expected = Array.init n (fun i -> i * round) in
        Alcotest.(check (array int))
          (Printf.sprintf "round %d" round)
          expected got
      done)

let test_shutdown_then_use () =
  let pool = Par.Pool.create ~jobs:4 () in
  Par.Pool.shutdown pool;
  Par.Pool.shutdown pool (* idempotent *);
  let got = Par.Pool.map_chunked pool succ (Array.init 10 (fun i -> i)) in
  Alcotest.(check (array int))
    "post-shutdown map runs inline"
    (Array.init 10 (fun i -> i + 1))
    got

let test_create_clamps () =
  let pool = Par.Pool.create ~jobs:0 () in
  Alcotest.(check int) "jobs clamped to 1" 1 (Par.Pool.jobs pool);
  Par.Pool.shutdown pool

(* Regression: an absurd --jobs used to spawn jobs - 1 domains and crash
   into OCaml 5's hard domain limit (the runtime aborts the process, so
   this test existing and completing IS the assertion); now the request
   is clamped to the documented cap and the pool works. *)
let test_create_clamps_huge_jobs () =
  let pool = Par.Pool.create ~jobs:100_000 () in
  Fun.protect
    ~finally:(fun () -> Par.Pool.shutdown pool)
    (fun () ->
      let jobs = Par.Pool.jobs pool in
      Alcotest.(check bool) "clamped into 1 .. 64, below the runtime's domain limit" true
        (jobs >= 1 && jobs <= Int.min (8 * Domain.recommended_domain_count ()) 64);
      let got = Par.Pool.map_chunked pool succ (Array.init 33 (fun i -> i)) in
      Alcotest.(check (array int))
        "oversized pool still maps correctly"
        (Array.init 33 (fun i -> i + 1))
        got)

(* --- flight-recorder ledgers ------------------------------------------------ *)

let phase_named name (rep : Obs.Sched.report) =
  List.find_opt
    (fun (p : Obs.Sched.phase_report) -> p.Obs.Sched.phase = name)
    rep.Obs.Sched.phases

let report_of sched =
  match Obs.Sched.report sched with
  | Some rep -> rep
  | None -> Alcotest.fail "enabled recorder yields no report"

(* Every chunk of a recorded map is attributed to exactly one slot:
   chunks_per_slot sums to the chunk count, and the per-label ledger
   carries the exact call/item/chunk tallies. *)
let test_ledger_exactly_once () =
  let n = 103 in
  let n_chunks = (n + 2) / 3 in
  let sched = Obs.Sched.create () in
  with_pool 4 (fun pool ->
      ignore
        (Par.Pool.map_chunked pool ~sched ~label:"t.map" ~chunk:3
           (fun i -> i * i)
           (Array.init n (fun i -> i))));
  Obs.Sched.note_phase sched ~phase:"t" ~wall_s:1.0;
  let rep = report_of sched in
  match phase_named "t" rep with
  | None -> Alcotest.fail "label t.map did not land in phase t"
  | Some p ->
    Alcotest.(check int) "chunks attributed exactly once" n_chunks
      (Array.fold_left ( + ) 0 p.Obs.Sched.chunks_per_slot);
    Alcotest.(check int) "phase jobs is the pool width" 4 p.Obs.Sched.jobs;
    (match p.Obs.Sched.labels with
     | [ l ] ->
       Alcotest.(check string) "label" "t.map" l.Obs.Sched.label;
       Alcotest.(check int) "one ledger" 1 l.Obs.Sched.ledgers;
       Alcotest.(check int) "items" n l.Obs.Sched.items;
       Alcotest.(check int) "chunks" n_chunks l.Obs.Sched.chunks
     | ls -> Alcotest.failf "expected one label, got %d" (List.length ls));
    (* Occupancy sampling sees one chunk-start per chunk. *)
    Alcotest.(check int) "occupancy samples = chunks" n_chunks
      (Array.fold_left (fun a (_, s) -> a + s) 0 rep.Obs.Sched.occupancy)

let busy_wait seconds =
  let t0 = Obs.Timer.now () in
  while Obs.Timer.now () -. t0 < seconds do
    ()
  done

(* On a workload of known duration, the ledger's busy time accounts for
   the work and busy + idle cannot exceed the phase wall: busy is at
   least the summed chunk durations and at most jobs x the map's wall. *)
let test_ledger_busy_accounts_wall () =
  let per_chunk = 0.005 in
  let items = 8 in
  let sched = Obs.Sched.create () in
  let wall = ref 0. in
  with_pool 2 (fun pool ->
      let t0 = Obs.Timer.now () in
      ignore
        (Par.Pool.map_chunked pool ~sched ~label:"t.spin" ~chunk:1
           (fun _ -> busy_wait per_chunk)
           (Array.init items (fun i -> i)));
      wall := Obs.Timer.now () -. t0);
  Obs.Sched.note_phase sched ~phase:"t" ~wall_s:!wall;
  let rep = report_of sched in
  match phase_named "t" rep with
  | None -> Alcotest.fail "phase t missing"
  | Some p ->
    let busy = Array.fold_left ( +. ) 0. p.Obs.Sched.busy_s in
    let spun = float_of_int items *. per_chunk in
    Alcotest.(check bool)
      (Printf.sprintf "busy %.4f covers the %.4f spun" busy spun)
      true (busy >= 0.9 *. spun);
    Alcotest.(check bool)
      (Printf.sprintf "busy %.4f <= jobs x wall %.4f" busy !wall)
      true
      (busy <= (2. *. !wall) +. 1e-3);
    Alcotest.(check bool) "par wall <= phase wall" true
      (p.Obs.Sched.par_wall_s <= p.Obs.Sched.wall_s +. 1e-9);
    Alcotest.(check bool) "serial fraction in [0,1]" true
      (p.Obs.Sched.serial_fraction >= 0. && p.Obs.Sched.serial_fraction <= 1.)

(* Two identical runs produce structurally identical ledgers: same
   phases, same labels, same call/item/chunk tallies (times differ, of
   course).  This is what makes efficiency reports comparable across
   bench runs. *)
let test_ledger_structure_deterministic () =
  let run () =
    let sched = Obs.Sched.create () in
    with_pool 4 (fun pool ->
        List.iter
          (fun (label, n, chunk) ->
            ignore
              (Par.Pool.map_chunked pool ~sched ~label ~chunk
                 (fun i -> i * 2)
                 (Array.init n (fun i -> i))))
          [ ("a.x", 50, 3); ("a.y", 20, 1); ("b.z", 64, 7); ("a.x", 50, 3) ]);
    Obs.Sched.note_phase sched ~phase:"a" ~wall_s:1.;
    Obs.Sched.note_phase sched ~phase:"b" ~wall_s:1.;
    let rep = report_of sched in
    List.map
      (fun (p : Obs.Sched.phase_report) ->
        ( p.Obs.Sched.phase,
          p.Obs.Sched.jobs,
          Array.fold_left ( + ) 0 p.Obs.Sched.chunks_per_slot,
          List.map
            (fun (l : Obs.Sched.label_report) ->
              (l.Obs.Sched.label, l.Obs.Sched.ledgers, l.Obs.Sched.items,
               l.Obs.Sched.chunks))
            p.Obs.Sched.labels ))
      rep.Obs.Sched.phases
  in
  let a = run () in
  let b = run () in
  Alcotest.(check bool) "ledger structure identical across runs" true (a = b)

(* The disabled recorder records nothing and the recorded map returns
   the same result as an unrecorded one. *)
let test_null_recorder_inert () =
  Alcotest.(check bool) "null yields no report" true
    (Obs.Sched.report Obs.Sched.null = None);
  let input = Array.init 64 (fun i -> i) in
  with_pool 2 (fun pool ->
      let plain = Par.Pool.map_chunked pool ~chunk:5 succ input in
      let recorded =
        let sched = Obs.Sched.create () in
        Par.Pool.map_chunked pool ~sched ~label:"t.id" ~chunk:5 succ input
      in
      Alcotest.(check (array int)) "recording never changes results" plain
        recorded)

(* --- default_jobs / jobs_of_string ----------------------------------------- *)

(* [default_jobs] reads positive integers only from ASTSKEW_JOBS and
   falls back to 1. *)
let test_jobs_of_string () =
  let saved = Option.value (Sys.getenv_opt "ASTSKEW_JOBS") ~default:"" in
  Fun.protect ~finally:(fun () -> Unix.putenv "ASTSKEW_JOBS" saved) (fun () ->
      List.iter
        (fun (s, expected) ->
          Unix.putenv "ASTSKEW_JOBS" s;
          Alcotest.(check int) (Printf.sprintf "parse %S" s) expected (Par.Pool.default_jobs ()))
        [ ("1", 1); ("3", 3); (" 2 ", 2); ("0", 1); ("-2", 1); ("", 1); ("two", 1); ("4.5", 1) ])

let test_default_jobs_positive () =
  (* Whatever the environment says, the default is a sane positive
     parallelism within the fat-finger cap. *)
  let d = Par.Pool.default_jobs () in
  Alcotest.(check bool) "default_jobs >= 1" true (d >= 1);
  Alcotest.(check bool)
    "default_jobs within cap" true
    (d <= 8 * Domain.recommended_domain_count ())

let () =
  Alcotest.run "par"
    [
      ( "map_chunked",
        [
          Alcotest.test_case "matches Array.map for all jobs x chunks" `Quick
            test_map_matches_array_map;
          Alcotest.test_case "empty and single-element inputs" `Quick
            test_map_empty_and_single;
          Alcotest.test_case "each index computed exactly once" `Quick
            test_each_index_once;
          Alcotest.test_case "deterministic exception propagation" `Quick
            test_exception_propagates;
          Alcotest.test_case "stress: non-allocating float map" `Quick
            test_stress_non_allocating_f;
          Alcotest.test_case "stress: allocating map" `Quick
            test_stress_allocating_f;
          Alcotest.test_case "exactly-once with allocating f" `Quick
            test_each_index_once_allocating;
        ] );
      ( "pool",
        [
          Alcotest.test_case "reuse across 50 batches" `Quick test_pool_reuse;
          Alcotest.test_case "shutdown is idempotent, then inline" `Quick
            test_shutdown_then_use;
          Alcotest.test_case "jobs clamped to >= 1" `Quick test_create_clamps;
          Alcotest.test_case "huge --jobs request clamped, no abort" `Quick
            test_create_clamps_huge_jobs;
        ] );
      ( "sched",
        [
          Alcotest.test_case "chunks attributed exactly once" `Quick
            test_ledger_exactly_once;
          Alcotest.test_case "busy accounts the wall" `Quick
            test_ledger_busy_accounts_wall;
          Alcotest.test_case "ledger structure deterministic" `Quick
            test_ledger_structure_deterministic;
          Alcotest.test_case "null recorder is inert" `Quick
            test_null_recorder_inert;
        ] );
      ( "config",
        [
          Alcotest.test_case "jobs_of_string" `Quick test_jobs_of_string;
          Alcotest.test_case "default_jobs sane" `Quick
            test_default_jobs_positive;
        ] );
    ]
