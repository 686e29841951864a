(* Tests for the lib/check fuzzing subsystem itself, plus the frozen
   regression instances it produced during development.

   The frozen cases are generator output (shrunk where a failure was
   involved) serialised with Clocktree.Io: deterministic stand-ins for
   whole fuzz regimes, cheap enough to run on every dune runtest. *)

open Clocktree

let parse text =
  match Io.of_string text with
  | Ok inst -> inst
  | Error e -> Alcotest.failf "frozen case does not parse: %s" e

let assert_clean name inst =
  match Check.Oracle.all inst with
  | [] -> ()
  | findings ->
    Alcotest.failf "%s: %a" name
      (Format.pp_print_list Check.Oracle.pp_finding)
      findings

(* --- frozen generator cases ---------------------------------------------- *)

(* Shrunk repro of the one real find of the first fuzz campaigns (seed
   1234, case 150, extreme-rc): a 0.01-ohm driver with fF-to-pF load
   spread, where transient and Elmore intra-group skews legitimately
   diverge.  Frozen to pin the oracle gating: the exact invariants
   (Elmore upper bound, crossing monotonicity) must still hold. *)
let extreme_rc_shrunk =
  "params 0.003 0.02\n\
   driver 0.01\n\
   source 50 50\n\
   bound 25\n\
   groups 2\n\
   sink 0 0 64 2000 0\n\
   sink 1 64 54 2000 0\n\
   sink 2 2 34 20 0\n\
   sink 3 0 17 0.01 1\n\
   sink 4 35 0 0.01 1\n\
   sink 5 69 20 0.01 1\n"

(* Every sink coincident with the source: all merge distances are zero. *)
let coincident_point =
  "driver 100\n\
   source 500 500\n\
   bound 0\n\
   groups 1\n\
   sink 0 500 500 20 0\n\
   sink 1 500 500 35 0\n\
   sink 2 500 500 50 0\n"

(* Collinear sinks on a ±45° Manhattan arc, two interleaved zero-bound
   groups: merging regions are degenerate segments. *)
let collinear_diagonal =
  "driver 100\n\
   source 0 0\n\
   bound 0\n\
   groups 2\n\
   sink 0 0 1000 20 0\n\
   sink 1 250 750 30 1\n\
   sink 2 500 500 40 0\n\
   sink 3 750 250 30 1\n\
   sink 4 1000 0 20 0\n"

(* Degenerate groups: every group is a singleton, so intra-group bounds
   constrain nothing and the router degenerates to pure wirelength
   minimisation under per-group bookkeeping. *)
let singleton_groups =
  "driver 100\n\
   source 5000 5000\n\
   bound 0\n\
   groups 5\n\
   groupbound 0 0\n\
   groupbound 1 10\n\
   groupbound 2 0\n\
   groupbound 3 50\n\
   groupbound 4 0\n\
   sink 0 0 0 20 0\n\
   sink 1 10000 0 80 1\n\
   sink 2 0 10000 35 2\n\
   sink 3 10000 10000 50 3\n\
   sink 4 5000 2500 5 4\n"

(* Two zero-bound groups spread across opposite corners (the thesis'
   "intermingled" shape at minimum size). *)
let zero_bound_intermingled =
  "driver 100\n\
   source 5000 5000\n\
   bound 0\n\
   groups 2\n\
   sink 0 0 0 20 0\n\
   sink 1 10000 10000 20 0\n\
   sink 2 10000 0 20 1\n\
   sink 3 0 10000 20 1\n"

(* One sink: the tree is a single leaf wired to the source. *)
let single_sink =
  "driver 100\n\
   source 0 0\n\
   bound 0\n\
   groups 1\n\
   sink 0 7000 3000 42 0\n"

(* Exact duplicate sinks in one zero-bound group, plus a distant
   singleton group: zero-distance merges inside a bounded group. *)
let duplicate_pair_zero_bound =
  "driver 100\n\
   source 1000 1000\n\
   bound 0\n\
   groups 2\n\
   sink 0 2000 2000 25 0\n\
   sink 1 2000 2000 25 0\n\
   sink 2 0 9000 60 1\n"

let frozen_cases =
  [
    ("extreme-rc shrunk repro", extreme_rc_shrunk);
    ("coincident point", coincident_point);
    ("collinear diagonal", collinear_diagonal);
    ("singleton groups", singleton_groups);
    ("zero-bound intermingled", zero_bound_intermingled);
    ("single sink", single_sink);
    ("duplicate pair zero bound", duplicate_pair_zero_bound);
  ]

let test_frozen (name, text) () = assert_clean name (parse text)

(* --- generator ------------------------------------------------------------ *)

let test_generator_determinism () =
  let a = Check.Gen.case ~seed:42L ~index:5 () in
  let b = Check.Gen.case ~seed:42L ~index:5 () in
  Alcotest.(check string) "same instance text" (Io.to_string a.instance)
    (Io.to_string b.instance);
  let cycle = Array.length Check.Gen.all_regimes in
  Alcotest.(check bool) "regimes cycle" true
    ((Check.Gen.case ~seed:42L ~index:cycle ()).regime
    = (Check.Gen.case ~seed:42L ~index:0 ()).regime)

let test_generator_regimes_shapes () =
  (* Spot-check the regimes produce what they claim. *)
  let find regime =
    let rec go i =
      if i > 64 then Alcotest.failf "no case of regime in 64 draws"
      else
        let c = Check.Gen.case ~seed:7L ~index:i () in
        if c.regime = regime then c.instance else go (i + 1)
    in
    go 0
  in
  let collinear = find Check.Gen.Collinear in
  let on_line =
    let s0 = collinear.sinks.(0).loc in
    Array.for_all
      (fun (s : Sink.t) ->
        let d = Geometry.Pt.sub s.loc s0 in
        Float.abs d.x < 1e-6 || Float.abs d.y < 1e-6
        || Float.abs (Float.abs d.x -. Float.abs d.y) < 1e-6)
      collinear.sinks
  in
  Alcotest.(check bool) "collinear sinks on one line" true on_line;
  let tiny = find Check.Gen.Tiny_groups in
  let sizes = Instance.group_sizes tiny in
  Alcotest.(check bool) "tiny groups have <= 3 sinks" true
    (Array.for_all (fun k -> k >= 1 && k <= 3) sizes);
  let zb = find Check.Gen.Zero_bound in
  Alcotest.(check bool) "zero-bound instance has a zero bound" true
    (List.exists
       (fun g -> Instance.bound_for zb g = 0.)
       (List.init zb.n_groups Fun.id));
  let norm = find Check.Gen.Normalized in
  Alcotest.(check bool) "normalized sinks inside the unit square" true
    (Array.for_all
       (fun (s : Sink.t) ->
         s.loc.Geometry.Pt.x >= 0.
         && s.loc.Geometry.Pt.x <= 1.
         && s.loc.Geometry.Pt.y >= 0.
         && s.loc.Geometry.Pt.y <= 1.)
       norm.sinks);
  Alcotest.(check bool) "normalized instance is multi-sink" true
    (Instance.n_sinks norm >= 16)

let test_generator_huge () =
  (* Huge is excluded from the index cycle (too slow for the full oracle
     battery) but must be forcible, deterministic, and benchmark-scale. *)
  Alcotest.(check bool) "huge not in all_regimes" true
    (not (Array.mem Check.Gen.Huge Check.Gen.all_regimes));
  Alcotest.(check (option string)) "regime_of_string round-trips"
    (Some "huge")
    (Option.map Check.Gen.regime_to_string
       (Check.Gen.regime_of_string "huge"));
  let a = Check.Gen.case ~regime:Check.Gen.Huge ~seed:13L ~index:101 () in
  let b = Check.Gen.case ~regime:Check.Gen.Huge ~seed:13L ~index:101 () in
  Alcotest.(check string) "deterministic" (Io.to_string a.instance)
    (Io.to_string b.instance);
  let n = Instance.n_sinks a.instance in
  Alcotest.(check bool) "200 <= sinks <= 1500" true (n >= 200 && n <= 1500);
  Alcotest.(check bool) "several groups" true (a.instance.n_groups >= 4);
  Alcotest.(check bool) "bound at least 5 ps" true
    (List.for_all
       (fun g -> Instance.bound_for a.instance g >= 5.)
       (List.init a.instance.n_groups Fun.id))

(* --- scale invariance ------------------------------------------------------ *)

(* Routing commutes with rescaling the layout by a power of two: scale
   every coordinate by k and the unit RC parameters by 1/k and each
   wire-delay product cancels exactly (power-of-two scalings are exact
   in binary floating point), so the planner must take the very same
   decisions — identical topology, probe counts and grid traffic — while
   every length scales by exactly k.  Run against the unit-square
   regime, the shape that used to collapse the grid index into a single
   cell under its old absolute 1.0-unit cell floor and degrade k-NN into
   full scans. *)
let test_scale_invariance () =
  let c = Check.Gen.case ~regime:Check.Gen.Normalized ~seed:23L ~index:0 () in
  let inst = c.instance in
  let k = 16384. in
  let scale_pt (p : Geometry.Pt.t) =
    Geometry.Pt.make (k *. p.Geometry.Pt.x) (k *. p.Geometry.Pt.y)
  in
  let scaled =
    Instance.make
      ~params:
        (Rc.Wire.make
           ~r:(inst.params.Rc.Wire.r /. k)
           ~c:(inst.params.Rc.Wire.c /. k))
      ~rd:inst.rd ~bound:inst.bound ?group_bounds:inst.group_bounds
      ~source:(scale_pt inst.source) ~n_groups:inst.n_groups
      (Array.map
         (fun (s : Sink.t) ->
           Sink.make ~id:s.id ~loc:(scale_pt s.loc) ~cap:s.cap ~group:s.group)
         inst.sinks)
  in
  let r0 = Check.Oracle.ast ~jobs:1 inst in
  let r1 = Check.Oracle.ast ~jobs:1 scaled in
  let e0 = r0.engine and e1 = r1.engine in
  (* Multi-cell occupancy on the unit square: ring scans must visit many
     more cells than there are queries, which a collapsed one-cell grid
     cannot do. *)
  Alcotest.(check bool) "normalized queries ran" true (e0.nn_queries > 0);
  Alcotest.(check bool)
    "normalized grid spans multiple cells" true
    (e0.nn_cells > 2 * e0.nn_queries);
  (* Identical access pattern at both scales: no O(n^2) blow-up on the
     sub-unit instance. *)
  Alcotest.(check int) "grid queries match" e0.nn_queries e1.nn_queries;
  Alcotest.(check int) "cells visited match" e0.nn_cells e1.nn_cells;
  Alcotest.(check int) "entries scanned match" e0.nn_entries e1.nn_entries;
  Alcotest.(check int) "probe count matches" e0.nn_reprobes e1.nn_reprobes;
  (* Bit-identical electrical results, exactly scaled geometry. *)
  Alcotest.(check bool)
    "per-sink delays bit-identical" true
    (r0.evaluation.delays = r1.evaluation.delays);
  Alcotest.(check bool)
    "wirelength scales exactly" true
    (r1.evaluation.wirelength = k *. r0.evaluation.wirelength);
  let a0 = r0.routed and a1 = r1.routed in
  let scaled x y = y = k *. x in
  Alcotest.(check bool)
    "identical topology, exactly scaled embedding" true
    (a0.left = a1.left && a0.right = a1.right && a0.sink = a1.sink
    && Array.for_all2
         (fun (p : Geometry.Pt.t) (q : Geometry.Pt.t) ->
           scaled p.x q.x && scaled p.y q.y)
         a0.pos a1.pos
    && Array.for_all2 scaled a0.len a1.len)

(* --- fuzz smoke + determinism --------------------------------------------- *)

let test_fuzz_smoke () =
  let s = Check.fuzz ~cases:24 ~seed:7L () in
  Alcotest.(check int) "all cases pass" 24 s.passed;
  Alcotest.(check bool) "ok" true (Check.Runner.ok s)

let test_par_oracle_huge () =
  (* The par-identity oracle at benchmark scale, serial against pooled:
     many merge rounds — each packing its own k-NN snapshot — of pooled
     probing on a generated (not hand-picked) instance. *)
  let c = Check.Gen.case ~regime:Check.Gen.Huge ~seed:5L ~index:0 () in
  match Check.Oracle.identity ~jobs:[ 2 ] Check.Oracle.par c.instance with
  | [] -> ()
  | findings ->
    Alcotest.failf "par identity violated:@ %a"
      (Format.pp_print_list Check.Oracle.pp_finding)
      findings

(* A paper circuit with 8 intermingled groups at a 10 ps bound, as
   Table II routes it. *)
let circuit_instance name =
  Workload.Circuits.instance
    (Option.get (Workload.Circuits.find name))
    ~n_groups:8 ~scheme:Workload.Partition.Intermingled ~bound:10. ()

let test_trace_oracle () =
  (* The trace-identity oracle on a generated instance and on r1:
     tracing is semantically inert and the journal agrees with the
     engine stats. *)
  let c = Check.Gen.case ~regime:Check.Gen.Intermingled ~seed:11L ~index:0 () in
  List.iter
    (fun (what, inst) ->
      match Check.Oracle.identity ~jobs:[ 1; 2 ] Check.Oracle.trace inst with
      | [] -> ()
      | findings ->
        Alcotest.failf "%s: trace identity violated:@ %a" what
          (Format.pp_print_list Check.Oracle.pp_finding)
          findings)
    [ ("generated", c.instance); ("r1", circuit_instance "r1") ]

let test_sched_oracle () =
  (* The flight-recorder identity oracle on a generated instance: the
     scheduler recorder and progress heartbeat are semantically inert
     and every produced report is internally consistent. *)
  let c = Check.Gen.case ~regime:Check.Gen.Intermingled ~seed:13L ~index:0 () in
  match Check.Oracle.identity ~jobs:[ 1; 2; 4 ] Check.Oracle.sched c.instance
  with
  | [] -> ()
  | findings ->
    Alcotest.failf "sched identity violated:@ %a"
      (Format.pp_print_list Check.Oracle.pp_finding)
      findings

let test_sched_oracle_r1_r3_r4 () =
  (* The same oracle on the benchmark circuits the paper reports, so the
     recorder is proven inert on real sink distributions too.  r4 (1903
     sinks) is above the engine's 1000-sink pool grain, so at jobs 2/4
     the recorder also sees pooled ranking. *)
  List.iter
    (fun name ->
      match
        Check.Oracle.identity ~jobs:[ 1; 2; 4 ] Check.Oracle.sched
          (circuit_instance name)
      with
      | [] -> ()
      | findings ->
        Alcotest.failf "%s: sched identity violated:@ %a" name
          (Format.pp_print_list Check.Oracle.pp_finding)
          findings)
    [ "r1"; "r3"; "r4" ]

let test_replay_matches_run () =
  let findings = Check.replay ~seed:7L ~case:3 () in
  Alcotest.(check int) "clean case replays clean" 0 (List.length findings);
  let a = Check.fuzz ~cases:6 ~seed:99L () in
  let b = Check.fuzz ~cases:6 ~seed:99L () in
  let strip (s : Check.Runner.summary) =
    Obs.Json.to_string
      (Obs.Json.Obj
         [
           ("passed", Obs.Json.Int s.passed);
           ( "failures",
             Obs.Json.List
               (List.map
                  (fun (f : Check.Runner.failure) ->
                    Obs.Json.String (Check.Runner.repro_text f))
                  s.failures) );
         ])
  in
  Alcotest.(check string) "runs are deterministic" (strip a) (strip b)

(* --- injection: violations are caught and shrunk --------------------------- *)

let test_injected_violation_caught_and_shrunk () =
  (* Inject a skew-bound violation into every case; each must be caught
     and shrink to a handful of sinks (the acceptance bar is <= 8). *)
  let s = Check.fuzz ~inject:true ~cases:4 ~seed:1L () in
  Alcotest.(check int) "every injected case fails" 4
    (List.length s.failures);
  List.iter
    (fun (f : Check.Runner.failure) ->
      let n = Instance.n_sinks f.shrunk in
      Alcotest.(check bool)
        (Printf.sprintf "case %d shrunk to %d sinks" f.case.index n)
        true (n <= 8);
      Alcotest.(check bool) "shrunk instance still fails" true
        (f.shrunk_findings <> []);
      let bound_violated =
        List.exists
          (fun (x : Check.Oracle.finding) ->
            List.exists
              (fun (v : Check.Audit.violation) ->
                v.invariant = "within-bound")
              x.violations)
          f.shrunk_findings
      in
      Alcotest.(check bool) "skew bound violation reported" true
        bound_violated)
    s.failures

(* --- auditor unit checks --------------------------------------------------- *)

let test_audit_flags_broken_trees () =
  let pt = Geometry.Pt.make in
  let sink id x y group =
    Sink.make ~id ~loc:(pt x y) ~cap:20. ~group
  in
  let s0 = sink 0 0. 0. 0 and s1 = sink 1 100. 0. 0 in
  let inst = Instance.make ~source:(pt 0. 0.) ~n_groups:1 [| s0; s1 |] in
  (* Hand-built trees bypass the Tree.node constructor's checks. *)
  let arena left right ~llen ~rlen =
    Arena.of_routed inst.params ~rd:inst.rd
      (Tree.route (pt 0. 0.)
         (Tree.Node { pos = pt 50. 0.; left; right; llen; rlen }))
  in
  let flags invariant vs =
    List.length
      (List.filter (fun (v : Check.Audit.violation) -> v.invariant = invariant) vs)
  in
  let good = arena (Tree.Leaf s0) (Tree.Leaf s1) ~llen:50. ~rlen:50. in
  let rep = Evaluate.report_of_arena inst good in
  Alcotest.(check (list string)) "a sound tree passes" []
    (List.map
       (fun (v : Check.Audit.violation) -> v.invariant)
       (Check.Audit.run Check.Audit.Grouped inst good rep));
  let short = arena (Tree.Leaf s0) (Tree.Leaf s1) ~llen:10. ~rlen:50. in
  Alcotest.(check bool) "short edge flagged" true
    (flags "edge-covers-distance" (Check.Audit.structure inst short) > 0);
  (* A duplicate leaf (sink 0 twice, sink 1 missing). *)
  let dup = arena (Tree.Leaf s0) (Tree.Leaf s0) ~llen:50. ~rlen:50. in
  Alcotest.(check bool) "duplicate and missing sinks flagged" true
    (flags "sink-coverage" (Check.Audit.structure inst dup) >= 2);
  (* Arena-only faults: a [parent] entry that disagrees with
     [left]/[right], and a [size] entry off by one.  Neither tree can be
     read back as a boxed tree, so nothing is recomputed from it. *)
  let misparented = { good with parent = [| 2; 0; -1 |] } in
  Alcotest.(check bool) "parent disagreeing with left/right flagged" true
    (flags "topology" (Check.Audit.structure inst misparented) > 0);
  let missized = { good with size = [| 1; 1; 4 |] } in
  Alcotest.(check bool) "size off by one flagged" true
    (flags "topology" (Check.Audit.structure inst missized) > 0);
  Alcotest.(check bool) "no recomputation on a malformed tree" true
    (flags "delays-match" (Check.Audit.semantics inst missized rep) = 1);
  (* A report that lies about its wirelength. *)
  let lying = { rep with Evaluate.wirelength = rep.Evaluate.wirelength +. 1. } in
  Alcotest.(check bool) "wirelength lie flagged" true
    (flags "wirelength-match" (Check.Audit.semantics inst good lying) > 0)

(* --- shrinker -------------------------------------------------------------- *)

let test_shrinker_minimises () =
  (* Failure predicate: some group holds two sinks further than 5000
     apart.  The shrinker should cut everything else away. *)
  let inst = (Check.Gen.case ~seed:3L ~index:0 ()).instance in
  let fails (i : Instance.t) =
    let far = ref false in
    Array.iter
      (fun (a : Sink.t) ->
        Array.iter
          (fun (b : Sink.t) ->
            if a.group = b.group && Geometry.Pt.dist a.loc b.loc > 5000. then
              far := true)
          i.sinks)
      i.sinks;
    !far
  in
  if fails inst then begin
    let shrunk = Check.Shrink.run ~fails inst in
    Alcotest.(check bool) "still fails" true (fails shrunk);
    Alcotest.(check bool)
      (Printf.sprintf "shrunk from %d to %d sinks" (Instance.n_sinks inst)
         (Instance.n_sinks shrunk))
      true
      (Instance.n_sinks shrunk = 2)
  end
  else Alcotest.fail "seed 3 case 0 unexpectedly has no far pair"

let test_with_sinks_renumbers () =
  let inst = parse singleton_groups in
  let kept =
    List.filter
      (fun (s : Sink.t) -> s.id = 1 || s.id = 3)
      (Array.to_list inst.sinks)
  in
  match Check.Shrink.with_sinks inst kept with
  | None -> Alcotest.fail "non-empty subset"
  | Some sub ->
    Alcotest.(check int) "two sinks" 2 (Instance.n_sinks sub);
    Alcotest.(check int) "two groups" 2 sub.n_groups;
    Alcotest.(check (array int)) "dense groups" [| 0; 1 |]
      (Array.map (fun (s : Sink.t) -> s.group) sub.sinks);
    (* Per-group bounds follow their groups through the renumbering. *)
    Alcotest.(check (float 0.)) "group 1's bound survives" 10.
      (Instance.bound_for sub 0);
    Alcotest.(check (float 0.)) "group 3's bound survives" 50.
      (Instance.bound_for sub 1)

(* --- Io round-trip on fuzzed instances (satellite) ------------------------- *)

let test_io_roundtrip_fuzzed () =
  for index = 0 to 63 do
    let case = Check.Gen.case ~seed:11L ~index () in
    let text = Io.to_string case.instance in
    match Io.of_string text with
    | Error e -> Alcotest.failf "case %d does not re-parse: %s" index e
    | Ok inst' ->
      (* print ∘ parse ∘ print = print, and every field survives exactly:
         %.17g serialisation is lossless for finite doubles. *)
      Alcotest.(check string)
        (Printf.sprintf "case %d round-trips" index)
        text (Io.to_string inst');
      Alcotest.(check bool)
        (Printf.sprintf "case %d fields exact" index)
        true
        (case.instance.bound = inst'.bound
        && case.instance.rd = inst'.rd
        && case.instance.params = inst'.params
        && case.instance.group_bounds = inst'.group_bounds
        && Geometry.Pt.equal case.instance.source inst'.source
        && case.instance.sinks = inst'.sinks)
  done

(* --- repair idempotence (satellite) ---------------------------------------- *)

(* Repair mutates only the [len] column, so a copy of it is enough. *)
let copy (a : Arena.t) = { a with len = Array.copy a.len }

let check_second_repair_is_noop name inst (routed : Arena.t) =
  let repaired = copy routed in
  let stats = Repair.run_arena inst repaired in
  Alcotest.(check bool)
    (Printf.sprintf "%s: no second-pass wire (+%g)" name stats.added_wire)
    true
    (stats.added_wire = 0.);
  Alcotest.(check int)
    (Printf.sprintf "%s: no second-pass edge adjustments" name)
    0 stats.adjusted_edges;
  Alcotest.(check int)
    (Printf.sprintf "%s: no second-pass lift sweeps" name)
    0 stats.lift_iterations;
  Alcotest.(check (list string))
    (Printf.sprintf "%s: tree unchanged" name)
    []
    (Check.Oracle.diffs (Check.Oracle.observe repaired)
       (Check.Oracle.observe routed))

let test_repair_idempotent_fuzzed () =
  for index = 0 to 31 do
    let case = Check.Gen.case ~seed:5L ~index () in
    let r = Astskew.Router.(route (Spec.default Ast_dme) case.instance) in
    check_second_repair_is_noop
      (Printf.sprintf "case %d (%s)" index
         (Check.Gen.regime_to_string case.regime))
      case.instance r.routed
  done

let test_repair_idempotent_r1_r3 () =
  List.iter
    (fun name ->
      let inst = circuit_instance name in
      let r = Astskew.Router.(route (Spec.default Ast_dme) inst) in
      check_second_repair_is_noop name inst r.routed)
    [ "r1"; "r2"; "r3" ]

(* --- sparse repair cycle at 10^4 sinks ------------------------------------ *)

(* The flat 10^4-sink bench instance (8 intermingled groups, 10 ps bound,
   2000·sqrt n die, default seed), routed once at jobs 1.  Its global
   repair cycle runs a few dozen lift sweeps over ten windows. *)
let s10k =
  lazy
    (let spec =
       Workload.Circuits.
         { name = "s10k"; n_sinks = 10_000; die = 2000. *. sqrt 10_000. }
     in
     let inst =
       Workload.Circuits.instance spec ~n_groups:8
         ~scheme:Workload.Partition.Intermingled ~bound:10. ()
     in
     let planned =
       fst
         (Dme.Engine.run_arena
            ~config:{ Astskew.Router.ast_default_config with jobs = 1 }
            inst)
     in
     (inst, planned))

(* The frontier-sparse, windowed cycle must reproduce the dense
   from-scratch walk bit for bit at jobs 1, 2 and 4: tree, per-sink
   delays, stats, and every cycle's journal record (processed counts
   aside — they are what differs). *)
let test_sparse_repair_10k () =
  let inst, planned = Lazy.force s10k in
  let repair incremental jobs =
    let trace = Obs.Trace.create () in
    let config = { Repair.default_config with incremental; jobs } in
    let run = { Obs.Run.null with trace } in
    let t = copy planned in
    let s = Repair.run_arena ~config ~run inst t in
    let cycles =
      List.filter_map
        (function
          | Obs.Json.Obj fields
            when List.assoc_opt "type" fields
                 = Some (Obs.Json.String "repair_cycle") ->
            let field k = List.assoc k fields in
            Some
              ( field "adjusted",
                (match field "added_wire" with
                 | Obs.Json.Float f -> Int64.bits_of_float f
                 | _ -> Alcotest.fail "added_wire is not a float"),
                field "within" )
          | _ -> None)
        (Obs.Trace.journal_records trace)
    in
    let report = Evaluate.report_of_arena inst t in
    (Check.Oracle.observe ~report t, report.delays, s, cycles)
  in
  let dense_t, dense_d, dense_s, dense_c = repair false 1 in
  Alcotest.(check bool)
    (Printf.sprintf "at least 20 global cycles (%d)" (List.length dense_c))
    true
    (List.length dense_c >= 20);
  List.iter
    (fun jobs ->
      let t, d, s, c = repair true jobs in
      let what = Printf.sprintf "sparse jobs=%d" jobs in
      Alcotest.(check (list string))
        (what ^ ": tree and report") []
        (Check.Oracle.diffs t dense_t);
      Alcotest.(check bool)
        (what ^ ": per-sink delays")
        true
        (Array.for_all2
           (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
           dense_d d);
      Alcotest.(check bool) (what ^ ": stats") true (dense_s = s);
      Alcotest.(check bool)
        (what ^ ": added_wire bits") true
        (Int64.bits_of_float dense_s.added_wire
        = Int64.bits_of_float s.added_wire);
      Alcotest.(check bool) (what ^ ": cycle records") true (dense_c = c))
    [ 1; 2; 4 ]

(* Windows of the global cycle run as ["repair.cycle"] (balance, lift)
   and ["repair.evaluate"] (Elmore fill and sink scan) batches on the
   repair's pool: on s10k at jobs 2 each batch spans its ten windows,
   while a route of 1000 sinks or fewer has no windows and books
   none. *)
let test_repair_cycle_ledger () =
  let batches label (report : Obs.Sched.report option) =
    match report with
    | None -> Alcotest.fail "no sched report"
    | Some r ->
      List.concat_map
        (fun (p : Obs.Sched.phase_report) ->
          List.filter (fun (l : Obs.Sched.label_report) -> l.label = label) p.labels)
        r.phases
  in
  let inst, planned = Lazy.force s10k in
  let run = { Obs.Run.null with sched = Obs.Sched.create () } in
  let config = { Repair.default_config with jobs = 2 } in
  let _ : Repair.stats = Repair.run_arena ~config ~run inst (copy planned) in
  let report = Obs.Sched.report run.sched in
  List.iter
    (fun label ->
      match batches label report with
      | [ l ] ->
        Alcotest.(check bool)
          (Printf.sprintf "%s batches span >= 2 windows (%d items / %d batches)"
             label l.items l.ledgers)
          true
          (l.ledgers > 0 && l.items >= 2 * l.ledgers)
      | _ -> Alcotest.failf "no %s ledger at jobs 2" label)
    [ "repair.cycle"; "repair.evaluate" ];
  (* A global cycle balances, evaluates and (all but the last) lifts. *)
  (match (batches "repair.cycle" report, batches "repair.evaluate" report) with
   | [ c ], [ e ] ->
     Alcotest.(check int) "one evaluate batch per global cycle"
       ((c.ledgers + 1) / 2) e.ledgers
   | _ -> ());
  let r3 = circuit_instance "r3" in
  Alcotest.(check bool) "r3 has at most 1000 sinks" true
    (Instance.n_sinks r3 <= 1000);
  let run = { Obs.Run.null with sched = Obs.Sched.create () } in
  let r = Check.Oracle.ast ~jobs:2 ~run r3 in
  List.iter
    (fun label ->
      Alcotest.(check int)
        (Printf.sprintf "no %s batch below 1000 sinks" label)
        0
        (List.length (batches label r.sched)))
    [ "repair.cycle"; "repair.evaluate" ]

(* The global cycle's hot loops allocate nothing per adjusted edge: two
   jobs-1 runs whose budgets stop the global cycle after 6 and 36 passes
   (every regional fixpoint converges within 3) differ by 30 global
   cycles, and their minor-heap allocation by a small constant per
   cycle.  Boxing each [wire_for_delay] result or added-wire update
   costs several words per edge, hundreds of edges per cycle. *)
let test_repair_minor_words_10k () =
  let inst, planned = Lazy.force s10k in
  let measure max_cycles =
    let a = copy planned in
    let config = { Repair.default_config with jobs = 1; max_cycles } in
    let m0 = Gc.minor_words () in
    let s = Repair.run_arena ~config inst a in
    (Gc.minor_words () -. m0, s)
  in
  let w6, s6 = measure 5 and w36, s36 = measure 35 in
  Alcotest.(check int) "30 more global cycles" 30 (s36.cycles - s6.cycles);
  Alcotest.(check bool)
    (Printf.sprintf "edges adjusted in between (%d)"
       (s36.adjusted_edges - s6.adjusted_edges))
    true
    (s36.adjusted_edges - s6.adjusted_edges >= 3000);
  let per_cycle = (w36 -. w6) /. 30. in
  Alcotest.(check bool)
    (Printf.sprintf "minor words per global cycle %.0f <= 256" per_cycle)
    true (per_cycle <= 256.)

(* --- the invariance table -------------------------------------------------- *)

(* Perturbing one entry of any compared field of a routed r1
   observation must make [Oracle.diffs] name exactly that field: every
   arena column, every report field, every engine-stat field but [gc]
   (which equivalent runs legitimately disagree on), every repair-stat
   field; values compare by bits. *)
let test_diffs_name_every_field () =
  let inst = circuit_instance "r1" in
  let o = Check.Oracle.of_result (Check.Oracle.ast ~jobs:1 inst) in
  Alcotest.(check (list string)) "an observation equals itself" []
    (Check.Oracle.diffs o o);
  let ibump a = Array.mapi (fun k x -> if k = 7 then x + 1 else x) a in
  let fbump a = Array.mapi (fun k x -> if k = 7 then x +. 1. else x) a in
  let arena f = { o with arena = f o.arena } in
  let report f = { o with report = Option.map f o.report } in
  let engine f = { o with engine = Option.map f o.engine } in
  let trial f =
    engine (fun (s : Dme.Engine.stats) -> { s with trial = f s.trial })
  in
  let repair f = { o with repair = Option.map f o.repair } in
  let perturbed =
    [
      ("arena.left", arena (fun a -> { a with left = ibump a.left }));
      ("arena.right", arena (fun a -> { a with right = ibump a.right }));
      ("arena.parent", arena (fun a -> { a with parent = ibump a.parent }));
      ("arena.size", arena (fun a -> { a with size = ibump a.size }));
      ("arena.sink", arena (fun a -> { a with sink = ibump a.sink }));
      ("arena.group", arena (fun a -> { a with group = ibump a.group }));
      ("arena.scap", arena (fun a -> { a with scap = fbump a.scap }));
      ("arena.len", arena (fun a -> { a with len = fbump a.len }));
      ( "arena.pos.x",
        arena (fun a ->
            { a with
              pos = Array.mapi (fun k (p : Geometry.Pt.t) ->
                  if k = 7 then { p with x = p.x +. 1. } else p) a.pos }) );
      ( "arena.pos.y",
        arena (fun a ->
            { a with
              pos = Array.mapi (fun k (p : Geometry.Pt.t) ->
                  if k = 7 then { p with y = p.y +. 1. } else p) a.pos }) );
      ( "arena.source",
        arena (fun a -> { a with source = { a.source with x = a.source.x +. 1. } })
      );
      ( "arena.source_len",
        arena (fun a -> { a with source_len = a.source_len +. 1. }) );
      ("report.wirelength", report (fun r -> { r with wirelength = r.wirelength +. 1. }));
      ("report.snaking", report (fun r -> { r with snaking = r.snaking +. 1. }));
      ("report.delays", report (fun r -> { r with delays = fbump r.delays }));
      ("report.min_delay", report (fun r -> { r with min_delay = r.min_delay +. 1. }));
      ("report.max_delay", report (fun r -> { r with max_delay = r.max_delay +. 1. }));
      ( "report.global_skew",
        report (fun r -> { r with global_skew = r.global_skew +. 1. }) );
      ( "report.group_skew",
        report (fun r -> { r with group_skew = Array.map (( +. ) 1.) r.group_skew }) );
      ( "report.max_group_skew",
        report (fun r -> { r with max_group_skew = r.max_group_skew +. 1. }) );
      ("engine.rounds", engine (fun s -> { s with rounds = s.rounds + 1 }));
      ("engine.same_group", engine (fun s -> { s with same_group = s.same_group + 1 }));
      ("engine.cross_group", engine (fun s -> { s with cross_group = s.cross_group + 1 }));
      ("engine.shared_one", engine (fun s -> { s with shared_one = s.shared_one + 1 }));
      ( "engine.shared_multi",
        engine (fun s -> { s with shared_multi = s.shared_multi + 1 }) );
      ( "engine.planned_snake",
        engine (fun s -> { s with planned_snake = s.planned_snake +. 1. }) );
      ( "engine.infeasible_merges",
        engine (fun s -> { s with infeasible_merges = s.infeasible_merges + 1 }) );
      ("engine.nn_reprobes", engine (fun s -> { s with nn_reprobes = s.nn_reprobes + 1 }));
      ("engine.nn_queries", engine (fun s -> { s with nn_queries = s.nn_queries + 1 }));
      ("engine.nn_cells", engine (fun s -> { s with nn_cells = s.nn_cells + 1 }));
      ("engine.nn_entries", engine (fun s -> { s with nn_entries = s.nn_entries + 1 }));
      ("engine.trial_merges", trial (fun t -> { t with trial_merges = t.trial_merges + 1 }));
      ("engine.elided_trials", trial (fun t -> { t with elided_trials = t.elided_trials + 1 }));
      ("repair.added_wire", repair (fun s -> { s with added_wire = s.added_wire +. 1. }));
      ( "repair.adjusted_edges",
        repair (fun s -> { s with adjusted_edges = s.adjusted_edges + 1 }) );
      ( "repair.conflict_nodes",
        repair (fun s -> { s with conflict_nodes = s.conflict_nodes + 1 }) );
      ( "repair.lift_iterations",
        repair (fun s -> { s with lift_iterations = s.lift_iterations + 1 }) );
      ( "repair.unresolved_groups",
        repair (fun s -> { s with unresolved_groups = s.unresolved_groups + 1 }) );
      ("repair.cycles", repair (fun s -> { s with cycles = s.cycles + 1 }));
      ( "repair.budget_exhausted",
        repair (fun s -> { s with budget_exhausted = not s.budget_exhausted }) );
      ("repair.delays", repair (fun s -> { s with delays = fbump s.delays }));
    ]
  in
  List.iter
    (fun (field, v) ->
      let d = Check.Oracle.diffs v o in
      let names l =
        String.starts_with ~prefix:(field ^ ":") l
        || String.starts_with ~prefix:(field ^ "[") l
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s is named (%s)" field (String.concat "; " d))
        true
        (d <> [] && List.for_all names d))
    perturbed;
  let gc =
    engine (fun s -> { s with gc = { s.gc with minor_words = 1e9 } })
  in
  Alcotest.(check (list string)) "gc is not compared" []
    (Check.Oracle.diffs gc o);
  (* Values compare by bits: a signed-zero flip differs, a NaN does not. *)
  let delay x = report (fun r -> { r with delays = Array.make 1 x }) in
  Alcotest.(check int) "-0 differs from +0" 1
    (List.length (Check.Oracle.diffs (delay (-0.)) (delay 0.)));
  Alcotest.(check (list string)) "NaN equals itself" []
    (Check.Oracle.diffs (delay Float.nan) (delay Float.nan))

(* The table keeps the finding names of the oracles it replaced, so
   [Oracle.reproduces], recorded FUZZ_REPRO files and the README stay
   valid. *)
let test_table_finding_names () =
  Alcotest.(check (list string))
    "finding names"
    [
      "cluster-depth-identity"; "cluster-identity"; "embed-identity";
      "evaluate-identity"; "par-identity"; "repair-identity"; "sched-identity";
      "trace-identity";
    ]
    (List.sort_uniq compare (List.map Check.Oracle.name Check.Oracle.invariants))

let () =
  Alcotest.run "check"
    [
      ( "frozen-cases",
        List.map
          (fun (name, text) ->
            Alcotest.test_case name `Quick (test_frozen (name, text)))
          frozen_cases );
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_generator_determinism;
          Alcotest.test_case "regime shapes" `Quick
            test_generator_regimes_shapes;
          Alcotest.test_case "huge regime" `Slow test_generator_huge;
          Alcotest.test_case "scale invariance" `Quick test_scale_invariance;
        ] );
      ( "runner",
        [
          Alcotest.test_case "fuzz smoke" `Slow test_fuzz_smoke;
          Alcotest.test_case "par oracle at scale" `Slow
            test_par_oracle_huge;
          Alcotest.test_case "trace oracle" `Slow test_trace_oracle;
          Alcotest.test_case "sched oracle" `Slow test_sched_oracle;
          Alcotest.test_case "sched oracle r1, r3, r4" `Slow
            test_sched_oracle_r1_r3_r4;
          Alcotest.test_case "replay + determinism" `Slow
            test_replay_matches_run;
          Alcotest.test_case "injected violation caught + shrunk" `Slow
            test_injected_violation_caught_and_shrunk;
        ] );
      ( "audit",
        [ Alcotest.test_case "flags broken trees" `Quick
            test_audit_flags_broken_trees ] );
      ( "shrink",
        [
          Alcotest.test_case "minimises to the core" `Quick
            test_shrinker_minimises;
          Alcotest.test_case "with_sinks renumbers" `Quick
            test_with_sinks_renumbers;
        ] );
      ( "invariance-table",
        [
          Alcotest.test_case "diffs names every field" `Quick
            test_diffs_name_every_field;
          Alcotest.test_case "eight finding names" `Quick test_table_finding_names;
        ] );
      ( "io-roundtrip",
        [ Alcotest.test_case "fuzzed instances" `Quick test_io_roundtrip_fuzzed ] );
      ( "repair-idempotence",
        [
          Alcotest.test_case "fuzzed trees" `Slow test_repair_idempotent_fuzzed;
          Alcotest.test_case "r1-r3" `Slow test_repair_idempotent_r1_r3;
        ] );
      ( "repair-sparse",
        [
          Alcotest.test_case "10^4 sinks: sparse = dense" `Slow
            test_sparse_repair_10k;
          Alcotest.test_case "10^4 sinks: repair.cycle ledger" `Slow
            test_repair_cycle_ledger;
          Alcotest.test_case "10^4 sinks: minor words per cycle" `Slow
            test_repair_minor_words_10k;
        ] );
    ]
