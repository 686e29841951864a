(* Tests for the lib/obs instrumentation library: histograms, the trace
   context, the run context and the JSON emitter. *)

(* Every code point U+0000..U+001F must survive emit -> parse: the
   emitter escapes the ones without a short form as \uXXXX and the
   parser must map them back byte-for-byte. *)
let test_json_control_chars () =
  let open Obs.Json in
  for code = 0 to 0x1f do
    let v = String (Printf.sprintf "a%cb" (Char.chr code)) in
    let s = to_string v in
    Alcotest.(check bool)
      (Printf.sprintf "U+%04X roundtrips via %s" code s)
      true
      (of_string s = v)
  done;
  Alcotest.(check string) "U+0001 escapes as \\u0001" {|"\u0001"|}
    (to_string (String "\001"));
  Alcotest.(check string) "U+001F escapes as \\u001f" {|"\u001f"|}
    (to_string (String "\031"))

(* The \u parser must take exactly four hex digits; underscores, signs
   and truncated escapes are malformed input, not zero digits. *)
let test_json_unicode_escape_audit () =
  let open Obs.Json in
  Alcotest.(check bool) "\\u0041 parses" true
    (of_string {|"\u0041"|} = String "A");
  Alcotest.(check bool) "\\u000A is newline" true
    (of_string {|"\u000A"|} = String "\n");
  Alcotest.(check bool) "mixed-case hex accepted" true
    (of_string {|"\u001F"|} = String "\031"
    && of_string {|"\u001f"|} = String "\031");
  Alcotest.(check bool) "non-latin1 degrades to ?" true
    (of_string {|"\u2603"|} = String "?");
  let fails s =
    match of_string s with
    | exception Parse_error _ -> true
    | _ -> false
  in
  List.iter
    (fun s -> Alcotest.(check bool) (s ^ " rejected") true (fails s))
    [
      {|"\u00_1"|};
      {|"\u00+1"|};
      {|"\u-041"|};
      {|"\u12g4"|};
      {|"\u123"|};
      {|"\u12|};
      {|"\u"|};
    ]

let test_json_to_string () =
  let open Obs.Json in
  Alcotest.(check string) "null" "null" (to_string Null);
  Alcotest.(check string) "bool" "true" (to_string (Bool true));
  Alcotest.(check string) "int" "-3" (to_string (Int (-3)));
  Alcotest.(check string) "float" "1.5" (to_string (Float 1.5));
  Alcotest.(check string) "nan is null" "null" (to_string (Float Float.nan));
  Alcotest.(check string) "inf is null" "null" (to_string (Float Float.infinity));
  Alcotest.(check string) "string escaping" {|"a\"b\\c\n"|}
    (to_string (String "a\"b\\c\n"));
  Alcotest.(check string) "list" "[1,2]" (to_string (List [ Int 1; Int 2 ]));
  Alcotest.(check string) "obj" {|{"a":1,"b":[]}|}
    (to_string (Obj [ ("a", Int 1); ("b", List []) ]))

let test_json_write_file () =
  let path = Filename.temp_file "obs_json" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Json.write_file path (Obs.Json.Obj [ ("x", Obs.Json.Int 1) ]);
      let ic = open_in path in
      let line = input_line ic in
      close_in ic;
      Alcotest.(check string) "file contents" {|{"x":1}|} line)

let test_json_parse_roundtrip () =
  let open Obs.Json in
  let cases =
    [
      Null;
      Bool true;
      Bool false;
      Int 0;
      Int (-42);
      Float 1.5;
      Float (-0.25);
      String "";
      String "a\"b\\c\nd\tе";
      List [];
      List [ Int 1; List [ Bool false ]; Null ];
      Obj [];
      Obj [ ("a", Int 1); ("b", List [ Float 2.5 ]); ("c", Obj [ ("d", Null) ]) ];
    ]
  in
  List.iter
    (fun v ->
      let s = to_string v in
      Alcotest.(check bool) (s ^ " roundtrips") true (of_string s = v))
    cases;
  (* The emitter's lossy cases parse back as documented. *)
  Alcotest.(check bool) "nan -> null" true
    (of_string (to_string (Float Float.nan)) = Null);
  (* Whitespace, exponents and unicode escapes. *)
  Alcotest.(check bool) "whitespace" true
    (of_string " { \"a\" : [ 1 , 2 ] } " = Obj [ ("a", List [ Int 1; Int 2 ]) ]);
  Alcotest.(check bool) "exponent is float" true
    (of_string "1e3" = Float 1000.);
  Alcotest.(check bool) "unicode escape" true (of_string {|"A"|} = String "A")

let test_json_parse_errors () =
  let open Obs.Json in
  let fails s =
    match of_string s with
    | exception Parse_error _ -> true
    | _ -> false
  in
  List.iter
    (fun s -> Alcotest.(check bool) (s ^ " rejected") true (fails s))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "\"unterminated"; "1 2"; "+5" ]

let test_json_read_file () =
  let path = Filename.temp_file "obs_json_read" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let v = Obs.Json.Obj [ ("xs", Obs.Json.List [ Obs.Json.Int 7 ]) ] in
      Obs.Json.write_file path v;
      Alcotest.(check bool) "write/read roundtrip" true
        (Obs.Json.read_file path = v))

let test_histogram_buckets () =
  let h = Obs.Histogram.create ~per_decade:1 "test.hist.buckets" in
  Alcotest.(check string) "name" "test.hist.buckets" (Obs.Histogram.name h);
  Alcotest.(check int) "starts empty" 0 (Obs.Histogram.count h);
  List.iter (Obs.Histogram.observe h) [ 0.5; 5.; 50.; 55. ];
  Alcotest.(check int) "four samples" 4 (Obs.Histogram.count h);
  Alcotest.(check (float 1e-9)) "sum" 110.5 (Obs.Histogram.sum h);
  (match Obs.Histogram.buckets h with
   | [ (lo0, hi0, n0); (lo1, hi1, n1); (lo2, hi2, n2) ] ->
     Alcotest.(check (float 1e-9)) "bucket 0 lo" 0.1 lo0;
     Alcotest.(check (float 1e-9)) "bucket 0 hi" 1. hi0;
     Alcotest.(check int) "bucket 0 count" 1 n0;
     Alcotest.(check (float 1e-9)) "bucket 1 lo" 1. lo1;
     Alcotest.(check (float 1e-9)) "bucket 1 hi" 10. hi1;
     Alcotest.(check int) "bucket 1 count" 1 n1;
     Alcotest.(check (float 1e-9)) "bucket 2 lo" 10. lo2;
     Alcotest.(check (float 1e-9)) "bucket 2 hi" 100. hi2;
     Alcotest.(check int) "bucket 2 count" 2 n2
   | bs ->
     Alcotest.fail
       (Printf.sprintf "expected 3 ascending buckets, got %d" (List.length bs)));
  (* Non-positive values underflow, +inf overflows, NaN is ignored. *)
  Obs.Histogram.observe h 0.;
  Obs.Histogram.observe h (-3.);
  Obs.Histogram.observe h Float.infinity;
  Obs.Histogram.observe h Float.nan;
  Alcotest.(check int) "underflow" 2 (Obs.Histogram.underflow h);
  Alcotest.(check int) "overflow" 1 (Obs.Histogram.overflow h);
  Alcotest.(check int) "count includes under/overflow, not NaN" 7
    (Obs.Histogram.count h);
  Alcotest.(check int) "buckets unchanged by outliers" 3
    (List.length (Obs.Histogram.buckets h))

let test_histogram_json () =
  let h = Obs.Histogram.create "test.hist.json" in
  (match Obs.Histogram.to_json h with
   | Obs.Json.Obj fields ->
     Alcotest.(check bool) "empty min is null" true
       (List.assoc "min" fields = Obs.Json.Null);
     Alcotest.(check bool) "empty max is null" true
       (List.assoc "max" fields = Obs.Json.Null)
   | _ -> Alcotest.fail "to_json should produce an object");
  Obs.Histogram.observe h 2.;
  Obs.Histogram.observe h 30.;
  let v = Obs.Histogram.to_json h in
  (* The export re-parses; integral floats come back as Int (documented
     emitter lossiness), so compare numerically rather than by shape. *)
  let number = function
    | Obs.Json.Int i -> float_of_int i
    | Obs.Json.Float f -> f
    | _ -> Float.nan
  in
  (match Obs.Json.of_string (Obs.Json.to_string v) with
   | Obs.Json.Obj fields ->
     Alcotest.(check (float 0.)) "count survives" 2.
       (number (List.assoc "count" fields));
     Alcotest.(check (float 1e-9)) "min survives" 2.
       (number (List.assoc "min" fields));
     Alcotest.(check (float 1e-9)) "max survives" 30.
       (number (List.assoc "max" fields))
   | _ -> Alcotest.fail "export should re-parse as an object");
  Obs.Histogram.reset h;
  Alcotest.(check int) "reset clears count" 0 (Obs.Histogram.count h);
  Alcotest.(check int) "reset clears buckets" 0
    (List.length (Obs.Histogram.buckets h));
  (* per_decade is clamped to at least 1. *)
  let h1 = Obs.Histogram.create ~per_decade:0 "test.hist.clamp" in
  Obs.Histogram.observe h1 5.;
  (match Obs.Histogram.buckets h1 with
   | [ (lo, hi, 1) ] ->
     Alcotest.(check (float 1e-9)) "clamped lo" 1. lo;
     Alcotest.(check (float 1e-9)) "clamped hi" 10. hi
   | _ -> Alcotest.fail "per_decade:0 should behave as 1")

let test_histogram_merge_into () =
  let a = Obs.Histogram.create ~per_decade:1 "test.hist.merge_a" in
  let b = Obs.Histogram.create ~per_decade:1 "test.hist.merge_b" in
  List.iter (Obs.Histogram.observe a) [ 0.5; 5. ];
  List.iter (Obs.Histogram.observe b) [ 50.; 0.; 700. ];
  Obs.Histogram.merge_into b ~into:a;
  Alcotest.(check int) "count folds" 5 (Obs.Histogram.count a);
  Alcotest.(check int) "underflow folds" 1 (Obs.Histogram.underflow a);
  Alcotest.(check (float 1e-9)) "sum folds" 755.5 (Obs.Histogram.sum a);
  (match Obs.Histogram.buckets a with
   | [ (_, _, 1); (_, _, 1); (_, _, 1); (_, _, 1) ] -> ()
   | bs ->
     Alcotest.fail
       (Printf.sprintf "expected 4 buckets of one, got %d" (List.length bs)));
  Alcotest.(check int) "src untouched" 3 (Obs.Histogram.count b);
  (* Merging an empty histogram is a no-op. *)
  let empty = Obs.Histogram.create ~per_decade:1 "test.hist.merge_empty" in
  Obs.Histogram.merge_into empty ~into:a;
  Alcotest.(check int) "empty merge is a no-op" 5 (Obs.Histogram.count a);
  (* Self-merge and resolution mismatch are programmer errors. *)
  (match Obs.Histogram.merge_into a ~into:a with
   | exception Invalid_argument _ -> ()
   | () -> Alcotest.fail "self-merge must raise");
  let c = Obs.Histogram.create ~per_decade:2 "test.hist.merge_c" in
  (match Obs.Histogram.merge_into c ~into:a with
   | exception Invalid_argument _ -> ()
   | () -> Alcotest.fail "per_decade mismatch must raise")

(* Steady-state [observe] and [merge_into] must not allocate: the
   progress heartbeat merges scratch histograms every tick and the
   scheduler ledger observes one chunk latency per chunk on the
   parallel hot path.  Growth allocates a few times early (range
   misses); after that the per-call budget is zero minor words. *)
let test_histogram_merge_no_alloc () =
  let src = Obs.Histogram.create ~per_decade:4 "test.hist.alloc_src" in
  let dst = Obs.Histogram.create ~per_decade:4 "test.hist.alloc_dst" in
  List.iter (Obs.Histogram.observe src) [ 0.001; 1.; 1000. ];
  List.iter (Obs.Histogram.observe dst) [ 0.01; 10. ];
  Obs.Histogram.merge_into src ~into:dst;
  let rounds = 10_000 in
  let per_round_of f =
    let before = Gc.minor_words () in
    for _ = 1 to rounds do
      f ()
    done;
    (Gc.minor_words () -. before) /. float_of_int rounds
  in
  (* Gc.minor_words itself boxes its float result — amortize the two
     samples over the loop and allow that as the only slack. *)
  let merge = per_round_of (fun () -> Obs.Histogram.merge_into src ~into:dst) in
  Alcotest.(check bool)
    (Printf.sprintf "merge_into allocates %.4f words/call" merge)
    true (merge < 0.01);
  let obs = per_round_of (fun () -> Obs.Histogram.observe dst 5.) in
  Alcotest.(check bool)
    (Printf.sprintf "observe allocates %.4f words/call" obs)
    true (obs < 0.01);
  let rst = per_round_of (fun () -> Obs.Histogram.reset src) in
  Alcotest.(check bool)
    (Printf.sprintf "reset allocates %.4f words/call" rst)
    true (rst < 0.01)

let test_histogram_quantile () =
  let h = Obs.Histogram.create "test.hist.quantile" in
  Alcotest.(check bool) "empty has no quantiles" true
    (Obs.Histogram.quantile h 0.5 = None);
  Obs.Histogram.observe h 7.;
  (* Bucket bounds clamp into [min, max], so a single-valued histogram
     answers exactly at every q. *)
  (match Obs.Histogram.quantile h 0.5 with
   | Some v -> Alcotest.(check (float 1e-9)) "single-value p50" 7. v
   | None -> Alcotest.fail "p50 of one sample");
  (match Obs.Histogram.quantile h 0.0 with
   | Some v -> Alcotest.(check (float 1e-9)) "single-value p0" 7. v
   | None -> Alcotest.fail "p0 of one sample");
  let h2 = Obs.Histogram.create "test.hist.quantile2" in
  for i = 1 to 100 do
    Obs.Histogram.observe h2 (float_of_int i)
  done;
  (match Obs.Histogram.quantile h2 0.5 with
   | Some v ->
     Alcotest.(check bool)
       (Printf.sprintf "p50 %.3f within a bucket of the median" v)
       true
       (v >= 40. && v <= 70.)
   | None -> Alcotest.fail "p50");
  (match Obs.Histogram.quantile h2 0.99 with
   | Some v ->
     Alcotest.(check bool)
       (Printf.sprintf "p99 %.3f near the top" v)
       true
       (v >= 90. && v <= 100.)
   | None -> Alcotest.fail "p99");
  (match Obs.Histogram.quantile h2 1.0 with
   | Some v -> Alcotest.(check bool) "p100 <= max" true (v <= 100.)
   | None -> Alcotest.fail "p100");
  (* Underflow-dominated quantiles answer the observed minimum. *)
  let h3 = Obs.Histogram.create "test.hist.quantile3" in
  List.iter (Obs.Histogram.observe h3) [ 0.; 0.; 5. ];
  (match Obs.Histogram.quantile h3 0.5 with
   | Some v -> Alcotest.(check (float 1e-9)) "underflow p50 is min" 0. v
   | None -> Alcotest.fail "underflow p50")

let test_trace_null () =
  let t = Obs.Trace.null in
  Alcotest.(check bool) "disabled" false (Obs.Trace.enabled t);
  Obs.Trace.instant t "nothing";
  Obs.Trace.instant t ~cat:"c" ~args:[ ("k", Obs.Json.Int 1) ] "nothing";
  let r = Obs.Trace.span t "nothing" (fun () -> 7) in
  Alcotest.(check int) "span passes result through" 7 r;
  Obs.Trace.journal t (Obs.Json.Obj [ ("x", Obs.Json.Int 1) ]);
  Obs.Trace.merge_manifest t [ ("k", Obs.Json.Int 1) ];
  ignore (Obs.Trace.histogram t "test.trace.null_hist");
  Alcotest.(check int) "no events buffered" 0
    (List.length (Obs.Trace.events t));
  Alcotest.(check int) "no journal records" 0
    (List.length (Obs.Trace.journal_records t));
  Alcotest.(check bool) "manifest stays empty" true
    (Obs.Trace.manifest t = Obs.Json.Obj []);
  Alcotest.(check int) "no histograms" 0
    (List.length (Obs.Trace.histograms t))

let test_trace_span_order () =
  let t = Obs.Trace.create () in
  Alcotest.(check bool) "enabled" true (Obs.Trace.enabled t);
  let result =
    Obs.Trace.span t ~cat:"test" "outer" (fun () ->
        Obs.Trace.instant t "first";
        Obs.Trace.span t "inner" (fun () -> Obs.Trace.instant t "second");
        42)
  in
  Alcotest.(check int) "result passed through" 42 result;
  let evs = Obs.Trace.events t in
  Alcotest.(check (list string)) "parents order before children"
    [ "outer"; "first"; "inner"; "second" ]
    (List.map (fun (e : Obs.Trace.event) -> e.name) evs);
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "seq strictly increasing" true
    (strictly_increasing (List.map (fun (e : Obs.Trace.event) -> e.seq) evs));
  List.iter
    (fun (e : Obs.Trace.event) ->
      Alcotest.(check bool) (e.name ^ " ts non-negative") true (e.ts >= 0.))
    evs;
  (match evs with
   | { phase = Obs.Trace.Complete dur; cat = "test"; _ } :: _ ->
     Alcotest.(check bool) "span duration non-negative" true (dur >= 0.)
   | _ -> Alcotest.fail "outer event should be a Complete span with its cat")

let test_trace_span_exception () =
  let t = Obs.Trace.create () in
  (try Obs.Trace.span t "boom" (fun () -> failwith "x") with Failure _ -> ());
  (match Obs.Trace.events t with
   | [ { name = "boom"; phase = Obs.Trace.Complete _; _ } ] -> ()
   | _ -> Alcotest.fail "span must emit its event even when the body raises")

let test_trace_manifest_journal () =
  let t = Obs.Trace.create () in
  Obs.Trace.merge_manifest t [ ("a", Obs.Json.Int 1); ("b", Obs.Json.Bool false) ];
  Obs.Trace.merge_manifest t [ ("a", Obs.Json.Int 2) ];
  Alcotest.(check bool) "later merge replaces, first-set order kept" true
    (Obs.Trace.manifest t
     = Obs.Json.Obj [ ("a", Obs.Json.Int 2); ("b", Obs.Json.Bool false) ]);
  Obs.Trace.journal t (Obs.Json.Obj [ ("round", Obs.Json.Int 0) ]);
  Obs.Trace.journal t (Obs.Json.Obj [ ("round", Obs.Json.Int 1) ]);
  Alcotest.(check bool) "journal keeps emission order" true
    (Obs.Trace.journal_records t
     = [
         Obs.Json.Obj [ ("round", Obs.Json.Int 0) ];
         Obs.Json.Obj [ ("round", Obs.Json.Int 1) ];
       ]);
  (* Repeated histogram names return the same cell. *)
  let h1 = Obs.Trace.histogram t "test.trace.hist" in
  let h2 = Obs.Trace.histogram t "test.trace.hist" in
  Obs.Histogram.observe h1 3.;
  Alcotest.(check int) "same histogram cell" 1 (Obs.Histogram.count h2);
  Alcotest.(check int) "one histogram registered" 1
    (List.length (Obs.Trace.histograms t))

let test_trace_custom_sink () =
  let seen = ref [] in
  let t =
    Obs.Trace.create
      ~sink:(fun (e : Obs.Trace.event) -> seen := e.name :: !seen)
      ()
  in
  Obs.Trace.instant t "a";
  Obs.Trace.span t "b" (fun () -> ());
  Alcotest.(check (list string)) "sink saw every event" [ "a"; "b" ]
    (List.rev !seen);
  Alcotest.(check int) "sinked events are not buffered" 0
    (List.length (Obs.Trace.events t))

let test_trace_multi_domain () =
  let t = Obs.Trace.create () in
  let per_domain = 10 in
  let workers =
    Array.init 3 (fun i ->
        Domain.spawn (fun () ->
            for j = 0 to per_domain - 1 do
              Obs.Trace.instant t
                ~args:[ ("d", Obs.Json.Int i); ("j", Obs.Json.Int j) ]
                "tick"
            done))
  in
  Array.iter Domain.join workers;
  Obs.Trace.instant t "main";
  let evs = Obs.Trace.events t in
  Alcotest.(check int) "every domain's events merged" 31 (List.length evs);
  let rec strictly_increasing = function
    | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "merged order is total (seq)" true
    (strictly_increasing (List.map (fun (e : Obs.Trace.event) -> e.seq) evs))

let test_trace_chrome_export () =
  let t = Obs.Trace.create () in
  Obs.Trace.merge_manifest t [ ("circuit", Obs.Json.String "r1") ];
  Obs.Trace.span t ~cat:"c" "s" (fun () -> Obs.Trace.instant t "i");
  Obs.Histogram.observe (Obs.Trace.histogram t "test.trace.chrome_hist") 3.;
  let v = Obs.Json.of_string (Obs.Json.to_string (Obs.Trace.to_chrome t)) in
  let fields =
    match v with
    | Obs.Json.Obj fields -> fields
    | _ -> Alcotest.fail "chrome export should be an object"
  in
  let evs =
    match List.assoc "traceEvents" fields with
    | Obs.Json.List evs -> evs
    | _ -> Alcotest.fail "traceEvents should be a list"
  in
  Alcotest.(check int) "two events exported" 2 (List.length evs);
  let field ev k =
    match ev with
    | Obs.Json.Obj f -> List.assoc_opt k f
    | _ -> None
  in
  let ts_of ev =
    match field ev "ts" with
    | Some (Obs.Json.Float x) -> x
    | Some (Obs.Json.Int i) -> float_of_int i
    | _ -> Alcotest.fail "event missing ts"
  in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "timestamps monotone non-decreasing" true
    (monotone (List.map ts_of evs));
  (match evs with
   | [ span; inst ] ->
     Alcotest.(check bool) "span is ph X" true
       (field span "ph" = Some (Obs.Json.String "X"));
     Alcotest.(check bool) "span has dur" true (field span "dur" <> None);
     Alcotest.(check bool) "span keeps its cat" true
       (field span "cat" = Some (Obs.Json.String "c"));
     Alcotest.(check bool) "instant is ph i" true
       (field inst "ph" = Some (Obs.Json.String "i"));
     Alcotest.(check bool) "instant scope t" true
       (field inst "s" = Some (Obs.Json.String "t"))
   | _ -> Alcotest.fail "expected exactly two events");
  (match List.assoc_opt "otherData" fields with
   | Some (Obs.Json.Obj m) ->
     Alcotest.(check bool) "manifest exported" true
       (List.assoc_opt "circuit" m = Some (Obs.Json.String "r1"))
   | _ -> Alcotest.fail "otherData should carry the manifest");
  match List.assoc_opt "histograms" fields with
  | Some (Obs.Json.List [ _ ]) -> ()
  | _ -> Alcotest.fail "histograms should be exported"

let test_trace_journal_write () =
  let t = Obs.Trace.create () in
  Obs.Trace.merge_manifest t [ ("a", Obs.Json.Int 1) ];
  Obs.Trace.merge_manifest t [ ("a", Obs.Json.Int 2); ("b", Obs.Json.Bool true) ];
  Obs.Trace.journal t
    (Obs.Json.Obj [ ("type", Obs.Json.String "round"); ("round", Obs.Json.Int 0) ]);
  Obs.Trace.journal t
    (Obs.Json.Obj [ ("type", Obs.Json.String "round"); ("round", Obs.Json.Int 1) ]);
  Obs.Histogram.observe (Obs.Trace.histogram t "test.trace.journal_hist") 4.;
  let path = Filename.temp_file "obs_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.Trace.write_journal path t;
      let ic = open_in path in
      let rec read acc =
        match input_line ic with
        | line -> read (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      let lines = read [] in
      close_in ic;
      Alcotest.(check int) "manifest + 2 rounds + histograms" 4
        (List.length lines);
      let parsed = List.map Obs.Json.of_string lines in
      let type_of = function
        | Obs.Json.Obj fields -> List.assoc_opt "type" fields
        | _ -> None
      in
      Alcotest.(check bool) "line 1 is the manifest" true
        (type_of (List.nth parsed 0) = Some (Obs.Json.String "manifest"));
      (match List.nth parsed 0 with
       | Obs.Json.Obj fields ->
         Alcotest.(check bool) "manifest keeps replaced value" true
           (List.assoc_opt "a" fields = Some (Obs.Json.Int 2));
         Alcotest.(check bool) "manifest keeps merged key" true
           (List.assoc_opt "b" fields = Some (Obs.Json.Bool true))
       | _ -> Alcotest.fail "manifest line should be an object");
      Alcotest.(check bool) "round records in order" true
        (type_of (List.nth parsed 1) = Some (Obs.Json.String "round")
        && type_of (List.nth parsed 2) = Some (Obs.Json.String "round"));
      Alcotest.(check bool) "final line carries histograms" true
        (type_of (List.nth parsed 3) = Some (Obs.Json.String "histograms")))

(* Runs [f] with the process's stderr redirected into [path]. *)
let with_stderr_to path f =
  flush stderr;
  let saved = Unix.dup Unix.stderr in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stderr;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stderr;
      Unix.dup2 saved Unix.stderr;
      Unix.close saved)
    f

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = go [] in
  close_in ic;
  lines

let test_run_null () =
  let run = Obs.Run.null in
  Alcotest.(check bool) "trace disabled" false (Obs.Trace.enabled run.trace);
  Alcotest.(check bool) "sched disabled" false (Obs.Sched.enabled run.sched);
  Alcotest.(check bool) "progress disabled" false
    (Obs.Progress.enabled run.progress);
  let path = Filename.temp_file "obs_run_null" ".err" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let (x, wall), report =
        with_stderr_to path (fun () ->
            let phase = Obs.Run.phase run "engine" (fun () -> 7) in
            (phase, Obs.Run.finish run))
      in
      Alcotest.(check int) "phase passes the result through" 7 x;
      Alcotest.(check bool) "wall still measured" true (wall >= 0.);
      Alcotest.(check bool) "no sched report" true (report = None);
      Alcotest.(check bool) "recorder reports nothing" true
        (Obs.Sched.report run.sched = None);
      Alcotest.(check int) "no events" 0 (List.length (Obs.Trace.events run.trace));
      Alcotest.(check int) "no journal records" 0
        (List.length (Obs.Trace.journal_records run.trace));
      Alcotest.(check (list string)) "nothing written" [] (read_lines path))

(* One measurement, four consumers: the span's duration, the recorder's
   phase wall and the returned wall are the same float, and the
   heartbeat prints exactly one phase line. *)
let test_run_phase () =
  let path = Filename.temp_file "obs_run_phase" ".progress" in
  let oc = open_out path in
  let run =
    {
      Obs.Run.trace = Obs.Trace.create ();
      sched = Obs.Sched.create ();
      progress = Obs.Progress.create ~out:oc ();
    }
  in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc; Sys.remove path)
    (fun () ->
      let x, wall =
        Obs.Run.phase run "engine" (fun () ->
            (* One recorded parallel map inside the phase. *)
            match
              Obs.Sched.map_begin run.sched ~label:"engine.test" ~jobs:1
                ~items:1 ~chunks:1
            with
            | None -> Alcotest.fail "enabled recorder opened no ledger"
            | Some r ->
              let t0 = Obs.Sched.chunk_begin r in
              let acc = ref 0 in
              for i = 1 to 100_000 do
                acc := !acc + (i land 7)
              done;
              Obs.Sched.chunk_end r ~slot:0 ~t0;
              Obs.Sched.map_end r;
              !acc)
      in
      Alcotest.(check int) "phase passes the result through" 350_000 x;
      Alcotest.(check bool) "wall non-negative" true (wall >= 0.);
      (match Obs.Trace.events run.trace with
       | [ { name = "router.engine"; phase = Obs.Trace.Complete dur; _ } ] ->
         Alcotest.(check (float 0.)) "span duration is the wall" wall dur
       | evs ->
         Alcotest.fail
           (Printf.sprintf "expected one router.engine span, got %d events"
              (List.length evs)));
      (match Obs.Sched.report run.sched with
       | Some { phases = [ p ]; _ } ->
         Alcotest.(check string) "recorder phase" "engine" p.phase;
         Alcotest.(check (float 0.)) "recorder phase wall is the wall" wall
           p.wall_s;
         Alcotest.(check bool) "phase wall covers its parallel wall" true
           (p.wall_s >= p.par_wall_s)
       | _ -> Alcotest.fail "expected one recorded phase");
      (match read_lines path with
       | [ line ] -> (
         match String.split_on_char ' ' line with
         | [ "progress"; "phase=engine"; w; h; e ] ->
           let value key tok =
             let k = key ^ "=" in
             let n = String.length k in
             if String.length tok >= n && String.sub tok 0 n = k then
               String.sub tok n (String.length tok - n)
             else Alcotest.fail (Printf.sprintf "%S is not %s" tok k)
           in
           Alcotest.(check bool) "wall_s parses" true
             (float_of_string_opt (value "wall_s" w) <> None);
           Alcotest.(check bool) "heap_words parses" true
             (int_of_string_opt (value "heap_words" h) <> None);
           ignore (value "eta_s" e)
         | _ -> Alcotest.fail (Printf.sprintf "malformed heartbeat %S" line))
       | lines ->
         Alcotest.fail
           (Printf.sprintf "expected one heartbeat line, got %d"
              (List.length lines)));
      (* [finish] closes the route: the report, and one efficiency
         record on the trace. *)
      Alcotest.(check bool) "finish returns the report" true
        (Obs.Run.finish run <> None);
      Alcotest.(check int) "one efficiency record" 1
        (List.length
           (List.filter
              (function
                | Obs.Json.Obj f ->
                  List.assoc_opt "type" f = Some (Obs.Json.String "efficiency")
                | _ -> false)
              (Obs.Trace.journal_records run.trace))))

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "to_string" `Quick test_json_to_string;
          Alcotest.test_case "control chars" `Quick test_json_control_chars;
          Alcotest.test_case "unicode escapes" `Quick
            test_json_unicode_escape_audit;
          Alcotest.test_case "write_file" `Quick test_json_write_file;
          Alcotest.test_case "parse roundtrip" `Quick test_json_parse_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "read_file" `Quick test_json_read_file;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "log buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "json export" `Quick test_histogram_json;
          Alcotest.test_case "merge_into folds in place" `Quick
            test_histogram_merge_into;
          Alcotest.test_case "steady state allocates nothing" `Quick
            test_histogram_merge_no_alloc;
          Alcotest.test_case "quantiles" `Quick test_histogram_quantile;
        ] );
      ( "trace",
        [
          Alcotest.test_case "null trace is inert" `Quick test_trace_null;
          Alcotest.test_case "span ordering" `Quick test_trace_span_order;
          Alcotest.test_case "span on exception" `Quick
            test_trace_span_exception;
          Alcotest.test_case "manifest and journal" `Quick
            test_trace_manifest_journal;
          Alcotest.test_case "custom sink" `Quick test_trace_custom_sink;
          Alcotest.test_case "multi-domain merge" `Quick
            test_trace_multi_domain;
          Alcotest.test_case "chrome export" `Quick test_trace_chrome_export;
          Alcotest.test_case "journal write" `Quick test_trace_journal_write;
        ] );
      ( "run",
        [
          Alcotest.test_case "null run is inert" `Quick test_run_null;
          Alcotest.test_case "phase feeds one measurement" `Quick
            test_run_phase;
        ] );
    ]
