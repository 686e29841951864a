type failure = {
  case : Gen.case;
  findings : Oracle.finding list;
  shrunk : Clocktree.Instance.t;
  shrunk_findings : Oracle.finding list;
}

type summary = {
  seed : int64;
  cases : int;
  scaled_cases : int;
  passed : int;
  failures : failure list;
  elapsed_s : float;
}

let check ?inject (case : Gen.case) =
  match Oracle.all ?inject case.instance with
  | [] -> None
  | findings ->
    let shrunk =
      Shrink.run
        ~fails:(Oracle.reproduces ?inject ~of_run:findings)
        case.instance
    in
    let shrunk_findings = Oracle.all ?inject shrunk in
    Some { case; findings; shrunk; shrunk_findings }

(* Huge cases run (and shrink against) the ranking-path, repair and
   evaluation rows alone: the full battery would take minutes per
   1500-sink instance, and scale stresses exactly the ranking and
   windowed-repair paths — which is what these audit.  The par row
   checks pooled probing against the serial plan over many merge rounds
   (and grid re-cells); at this size repair auto-derives multiple
   regions, so the regional fixpoints are checked against the serial
   from-scratch pass on every huge case; sched at jobs = 2 proves the
   flight recorder stays inert exactly where its ledgers are busiest. *)
let huge_rows =
  Oracle.
    [
      (par, [ 2; 4 ]); (repair, [ 1; 2 ]); (repair_regional, [ 1; 2 ]);
      (evaluate, [ 2 ]); (sched, [ 2 ]);
    ]

(* Banked cases target the clustered path: the degenerate clusters=1 run
   must be bit-identical to flat (at jobs 2, so region scheduling rides
   along), a forced depth-2 hierarchy must be jobs-invariant and
   audit-clean, and a genuinely clustered run must pass the full audit
   under the global grouped contract. *)
let banked_rows = Oracle.[ (cluster, [ 2 ]); (cluster_depth, [ 2 ]) ]

let oracles_for (regime : Gen.regime) inst =
  match regime with
  | Gen.Huge -> Oracle.identities huge_rows inst
  | Gen.Banked -> Oracle.identities banked_rows inst @ Oracle.clustered inst
  | _ -> assert false

let check_scaled (case : Gen.case) =
  let oracles = oracles_for case.regime in
  match oracles case.instance with
  | [] -> None
  | findings ->
    let fails inst = oracles inst <> [] in
    let shrunk = Shrink.run ~fails case.instance in
    let shrunk_findings = oracles shrunk in
    Some { case; findings; shrunk; shrunk_findings }

let run ?inject ?(on_case = fun _ -> ()) ~cases ~seed () =
  let t0 = Obs.Timer.now () in
  let failures = ref [] in
  for index = 0 to cases - 1 do
    let case = Gen.case ~seed ~index () in
    on_case case;
    match check ?inject case with
    | None -> ()
    | Some failure -> failures := failure :: !failures
  done;
  (* One benchmark-scale case per 25 ordinary ones, at indices just past
     the ordinary range so repros stay addressable as (seed, index,
     regime).  Even slots run Huge against the ranking-path identity
     oracles, odd slots run Banked against the clustered-routing
     oracles. *)
  let scaled_cases = cases / 25 in
  for k = 0 to scaled_cases - 1 do
    let regime = if k mod 2 = 0 then Gen.Huge else Gen.Banked in
    let case = Gen.case ~regime ~seed ~index:(cases + k) () in
    on_case case;
    match check_scaled case with
    | None -> ()
    | Some failure -> failures := failure :: !failures
  done;
  let failures = List.rev !failures in
  {
    seed;
    cases;
    scaled_cases;
    passed = cases + scaled_cases - List.length failures;
    failures;
    elapsed_s = Obs.Timer.now () -. t0;
  }

let replay ?inject ?regime ~seed ~case () =
  let c = Gen.case ?regime ~seed ~index:case () in
  match c.regime with
  | Gen.Huge | Gen.Banked -> (oracles_for c.regime) c.instance
  | _ -> Oracle.all ?inject c.instance

let ok s = s.failures = []

let json_of_failure f =
  let open Obs.Json in
  let violations vs =
    List
      (List.map
         (fun (v : Audit.violation) ->
           Obj
             [ ("invariant", String v.invariant); ("detail", String v.detail) ])
         vs)
  in
  let findings fs =
    List
      (List.map
         (fun (x : Oracle.finding) ->
           Obj
             [ ("oracle", String x.oracle); ("violations", violations x.violations) ])
         fs)
  in
  Obj
    [
      ("case", Int f.case.index);
      ("regime", String (Gen.regime_to_string f.case.regime));
      ("n_sinks", Int (Clocktree.Instance.n_sinks f.case.instance));
      ("findings", findings f.findings);
      ("shrunk_sinks", Int (Clocktree.Instance.n_sinks f.shrunk));
      ("shrunk_findings", findings f.shrunk_findings);
    ]

let json_of_summary s =
  let open Obs.Json in
  Obj
    [
      ("seed", String (Int64.to_string s.seed));
      ("cases", Int s.cases);
      ("scaled_cases", Int s.scaled_cases);
      ("passed", Int s.passed);
      ("failed", Int (List.length s.failures));
      ("elapsed_s", Float s.elapsed_s);
      ("failures", List (List.map json_of_failure s.failures));
    ]

let repro_text f =
  let b = Buffer.create 1024 in
  Printf.bprintf b "# fuzz failure: seed %Ld case %d regime %s\n"
    f.case.seed f.case.index
    (Gen.regime_to_string f.case.regime);
  Printf.bprintf b "# replay: Check.replay%s ~seed:%LdL ~case:%d ()\n"
    (match f.case.regime with
     | Gen.Huge -> " ~regime:Check.Gen.Huge"
     | Gen.Banked -> " ~regime:Check.Gen.Banked"
     | _ -> "")
    f.case.seed f.case.index;
  List.iter
    (fun (x : Oracle.finding) ->
      List.iter
        (fun (v : Audit.violation) ->
          Printf.bprintf b "# %s / %s: %s\n" x.oracle v.invariant v.detail)
        x.violations)
    f.shrunk_findings;
  Buffer.add_string b (Clocktree.Io.to_string f.shrunk);
  Buffer.contents b
