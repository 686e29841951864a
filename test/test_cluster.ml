(* Tests for the clustered router: the spatial partitioner's
   invariants, the clusters=1 ≡ flat identity, cross-jobs determinism
   of a genuinely clustered run, the multi-level (depth >= 2) hierarchy
   — whose leaf regions must coincide with the flat partition and whose
   forced depth-1 run must be bit-identical to the default — and the
   auditor's ability to see a skew violation that spans a cluster
   boundary. *)

module Pt = Geometry.Pt
open Clocktree

let pt = Pt.make

let sink id x y ?(cap = 20.) group = Sink.make ~id ~loc:(pt x y) ~cap ~group

let instance ?(bound = 10.) ?(n_groups = 1) sinks =
  Instance.make ~bound ~source:(pt 0. 0.) ~n_groups (Array.of_list sinks)

(* n sinks on a diagonal with a few coincident points, groups round-robin *)
let diagonal ?(n_groups = 3) n =
  instance ~n_groups
    (List.init n (fun i ->
         let c = float_of_int (i - (i mod 7)) in
         sink i c c (i mod n_groups)))

let circuit name =
  match Workload.Circuits.find name with
  | Some spec ->
    Workload.Circuits.instance spec ~n_groups:8
      ~scheme:Workload.Partition.Intermingled ~bound:10. ()
  | None -> Alcotest.failf "unknown circuit %s" name

(* --- Split --------------------------------------------------------------- *)

let test_split_bipartition () =
  (* Wide cloud: split must be along X, halves of sizes ceil/floor. *)
  let pts = [| pt 0. 0.; pt 10. 5.; pt 20. 0.; pt 30. 5.; pt 40. 0. |] in
  let ids = Array.init 5 Fun.id in
  let lo, hi =
    Geometry.Split.bipartition ~sorted:(true, true) (Array.get pts) ids
  in
  Alcotest.(check int) "lower size" 3 (Array.length lo);
  Alcotest.(check int) "upper size" 2 (Array.length hi);
  Array.iter
    (fun i ->
      Array.iter
        (fun j ->
          if (pts.(i) : Pt.t).x >= pts.(j).x then
            Alcotest.failf "sink %d (lower) right of sink %d (upper)" i j)
        hi)
    lo

let test_split_ties () =
  (* All coincident: ties broken by id, halves still non-empty. *)
  let pts = Array.make 6 (pt 1. 1.) in
  let ids = Array.init 6 Fun.id in
  let lo, hi =
    Geometry.Split.bipartition ~sorted:(true, true) (Array.get pts) ids
  in
  Alcotest.(check int) "lower size" 3 (Array.length lo);
  Alcotest.(check int) "upper size" 3 (Array.length hi);
  Alcotest.(check (list int)) "lower ids" [ 0; 1; 2 ] (Array.to_list lo);
  Alcotest.(check (list int)) "upper ids" [ 3; 4; 5 ] (Array.to_list hi)

(* The median against a reference that sorts by the (coordinate, id)
   comparator itself — Float.compare, then Int.compare — on point sets
   whose coordinates are stacked on a coarse lattice (many exact
   duplicates, both signed zeros, NaN) mixed with arbitrary floats, and whose
   ids arrive as a shuffled sparse set.  A half left unsorted must hold
   the same ids as the reference half. *)
let median_prop =
  let open QCheck.Gen in
  let coord =
    frequency
      [
        (6, map (fun i -> float_of_int i *. 10.) (-3 -- 3));
        (1, oneofl [ 0.; -0.; Float.nan ]);
        (2, float_range (-1e6) 1e6);
      ]
  in
  let gen =
    let* n = 2 -- 300 in
    let* pts = array_repeat n (pair coord coord) in
    let* ids = map Array.of_list (shuffle_l (List.init n (fun i -> 3 * i))) in
    let* axis = oneofl Geometry.Split.[ X; Y ] in
    let* sorted = pair bool bool in
    return (pts, ids, axis, sorted)
  in
  QCheck.Test.make ~name:"median = (coordinate, id) reference sort" ~count:300
    (QCheck.make
       ~print:(fun (pts, _, _, (l, h)) ->
         Printf.sprintf "n=%d sorted=(%b, %b)" (Array.length pts) l h)
       gen)
    (fun (pts, ids, axis, sorted) ->
      let point_of id = pt (fst pts.(id / 3)) (snd pts.(id / 3)) in
      let key id = Geometry.Split.coord axis (point_of id) in
      let order a b =
        match Float.compare (key a) (key b) with 0 -> Int.compare a b | c -> c
      in
      let reference = Array.copy ids in
      Array.sort order reference;
      let n = Array.length ids in
      let half = (n + 1) / 2 in
      let settle keep h =
        if keep then h
        else begin
          let h = Array.copy h in
          Array.sort order h;
          h
        end
      in
      let lo, hi = Geometry.Split.median ~sorted ~axis point_of ids in
      (settle (fst sorted) lo, settle (snd sorted) hi)
      = (Array.sub reference 0 half, Array.sub reference half (n - half)))

(* [Cluster.split_ids], which sorts only the halves it emits and
   selects the rest, against the walk that sorts every half with the
   reference comparator: same groups, in the same order, with the same
   ids in the same order and the same budgets.  Point sets stack many
   sinks on a coarse lattice (exact duplicates, key ties on the split
   axis, equal extents); budgets and fan-outs range over 1 to n. *)
let split_ids_prop =
  let open QCheck.Gen in
  let coord =
    frequency
      [ (6, map (fun i -> float_of_int i *. 10.) (-3 -- 3));
        (2, float_range (-1e6) 1e6) ]
  in
  let gen =
    let* n = 1 -- 200 in
    let* pts = array_repeat n (pair coord coord) in
    let* ids = map Array.of_list (shuffle_l (List.init n (fun i -> 3 * i))) in
    let* budget = 1 -- n in
    let* fanout = 1 -- budget in
    return (pts, ids, budget, fanout)
  in
  QCheck.Test.make ~name:"split_ids = all-sorting reference" ~count:300
    (QCheck.make
       ~print:(fun (pts, _, b, f) ->
         Printf.sprintf "n=%d budget=%d fanout=%d" (Array.length pts) b f)
       gen)
    (fun (pts, ids, budget, fanout) ->
      let point_of id = pt (fst pts.(id / 3)) (snd pts.(id / 3)) in
      let reference ids =
        let lo, hi = Geometry.Split.extent point_of ids in
        let axis = Geometry.Split.longer_axis ~lo ~hi in
        let key id = Geometry.Split.coord axis (point_of id) in
        let sorted = Array.copy ids in
        Array.sort
          (fun a b ->
            match Float.compare (key a) (key b) with
            | 0 -> Int.compare a b
            | c -> c)
          sorted;
        let half = (Array.length ids + 1) / 2 in
        (Array.sub sorted 0 half, Array.sub sorted half (Array.length ids - half))
      in
      let out = ref [] in
      let rec split ids k f =
        if f <= 1 then out := (ids, k) :: !out
        else begin
          let lo, hi = reference ids in
          let kl = (k + 1) / 2 and fl = (f + 1) / 2 in
          split lo kl fl;
          split hi (k - kl) (f - fl)
        end
      in
      let k = Int.max 1 (Int.min budget (Array.length ids)) in
      split ids k (Int.max 1 (Int.min fanout k));
      Dme.Cluster.split_ids point_of ids ~budget ~fanout
      = Array.of_list (List.rev !out))

(* --- Partition ----------------------------------------------------------- *)

let check_partition inst ~clusters =
  let regions = Dme.Cluster.partition inst ~clusters in
  Alcotest.(check (list string))
    "partition covers every sink exactly once" []
    (List.map
       (fun (v : Check.Audit.violation) -> v.invariant ^ ": " ^ v.detail)
       (Check.Audit.partition_cover inst regions));
  regions

let test_partition_cover () =
  let inst = diagonal 37 in
  List.iter
    (fun k ->
      let regions = check_partition inst ~clusters:k in
      Alcotest.(check int)
        (Printf.sprintf "realized count at k=%d" k)
        (Int.min (Int.max 1 k) 37)
        (Array.length regions))
    [ 0; 1; 2; 3; 5; 8; 36; 37; 38; 100 ]

let test_partition_deterministic () =
  let inst = circuit "r1" in
  let a = Dme.Cluster.partition inst ~clusters:7 in
  let b = Dme.Cluster.partition inst ~clusters:7 in
  Alcotest.(check bool) "pure function of the instance" true (a = b)

let test_auto_clusters () =
  Alcotest.(check int) "small instance" 1
    (Dme.Cluster.auto_clusters (diagonal 40));
  Alcotest.(check int) "2500 sinks" 3
    (Dme.Cluster.auto_clusters (diagonal 2500));
  (* No 64-region cap any more: the region count keeps tracking one per
     thousand sinks and the stitch goes multi-level instead. *)
  Alcotest.(check int) "70000 sinks uncapped" 70
    (Dme.Cluster.auto_clusters (diagonal 70_000))

let test_auto_depth () =
  Alcotest.(check int) "fanout cap" 64 Dme.Cluster.fanout_cap;
  List.iter
    (fun (k, d) ->
      Alcotest.(check int) (Printf.sprintf "auto_depth %d" k) d
        (Dme.Cluster.auto_depth k))
    [ (1, 1); (2, 1); (64, 1); (65, 2); (1000, 2); (4096, 2); (4097, 3) ]

let partition_prop =
  let gen =
    QCheck.Gen.(
      let* n = 1 -- 60 in
      let* k = 1 -- 10 in
      let* dup = QCheck.Gen.bool in
      let* coords = list_repeat n (pair (0 -- 1000) (0 -- 1000)) in
      return (n, k, dup, coords))
  in
  QCheck.Test.make ~name:"partition covers exactly once, regions non-empty"
    ~count:200
    (QCheck.make
       ~print:(fun (n, k, dup, _) ->
         Printf.sprintf "n=%d k=%d dup=%b" n k dup)
       gen)
    (fun (n, k, dup, coords) ->
      let sinks =
        List.mapi
          (fun i (x, y) ->
            (* dup: collapse half the sinks onto one location to stress
               the tie-break *)
            let x, y = if dup && i mod 2 = 0 then (500, 500) else (x, y) in
            sink i (float_of_int x) (float_of_int y) (i mod 3))
          coords
      in
      let inst = instance ~n_groups:3 sinks in
      let regions = Dme.Cluster.partition inst ~clusters:k in
      Check.Audit.partition_cover inst regions = []
      && Array.length regions = Int.min k n
      && Array.for_all (fun r -> Array.length r > 0) regions)

(* --- clusters=1 identity and cross-jobs determinism ----------------------- *)

let test_identity_small () =
  let inst = diagonal ~n_groups:4 50 in
  Alcotest.(check (list string))
    "clusters=1 is bit-identical to flat" []
    (List.map
       (fun (f : Check.Oracle.finding) -> f.oracle)
       (Check.Oracle.identity ~jobs:[ 1; 4 ] Check.Oracle.cluster inst))

let test_identity_circuit name () =
  let inst = circuit name in
  Alcotest.(check (list string))
    "clusters=1 is bit-identical to flat" []
    (List.map
       (fun (f : Check.Oracle.finding) -> f.oracle)
       (Check.Oracle.identity ~jobs:[ 1; 4 ] Check.Oracle.cluster inst))

let test_jobs_deterministic () =
  (* A genuinely clustered run must not depend on the pool size. *)
  let inst = circuit "r1" in
  let route jobs =
    let config = { Astskew.Router.ast_default_config with Dme.Engine.jobs } in
    let arena, _, detail = Dme.Cluster.run_arena ~config ~clusters:5 inst in
    (Check.Oracle.observe arena, detail)
  in
  let t1, d1 = route 1 in
  let t4, d4 = route 4 in
  Alcotest.(check (list string)) "trees identical" [] (Check.Oracle.diffs t4 t1);
  Alcotest.(check int) "region count" 5 d1.Dme.Cluster.n_clusters;
  Alcotest.(check int) "region count independent of jobs"
    d1.Dme.Cluster.n_clusters d4.Dme.Cluster.n_clusters;
  Array.iteri
    (fun i (c : Dme.Cluster.cluster_stats) ->
      let c4 = d4.Dme.Cluster.per_cluster.(i) in
      Alcotest.(check int)
        (Printf.sprintf "region %d sink count" i)
        c.n_sinks c4.n_sinks;
      Alcotest.(check int)
        (Printf.sprintf "region %d rounds" i)
        c.stats.rounds c4.stats.rounds)
    d1.Dme.Cluster.per_cluster

(* --- multi-level (depth >= 2) hierarchy ----------------------------------- *)

let test_depth2_matches_flat_partition () =
  (* The leaf regions of a forced depth-2 hierarchy are the flat
     partition: same count, same sizes, same order — only the stitch
     above them is reorganized into a tree of super-merges. *)
  let inst = diagonal ~n_groups:4 200 in
  let flat = Dme.Cluster.partition inst ~clusters:8 in
  let arena, _, d = Dme.Cluster.run_arena ~clusters:8 ~depth:2 inst in
  Alcotest.(check int) "leaf region count" 8 d.Dme.Cluster.n_clusters;
  Alcotest.(check int) "realized depth" 2 d.Dme.Cluster.depth;
  Alcotest.(check bool) "has intermediate super stitches" true
    (Array.length d.Dme.Cluster.super > 0);
  Alcotest.(check (list int)) "leaf region sizes match the flat partition"
    (Array.to_list (Array.map Array.length flat))
    (Array.to_list
       (Array.map
          (fun (c : Dme.Cluster.cluster_stats) -> c.n_sinks)
          d.Dme.Cluster.per_cluster));
  let report = Evaluate.report_of_arena inst arena in
  Alcotest.(check (list string))
    "depth-2 stitch passes the global grouped audit" []
    (List.map
       (fun (v : Check.Audit.violation) -> v.invariant ^ ": " ^ v.detail)
       (Check.Audit.run Check.Audit.Grouped inst arena report))

let test_depth_identity_small () =
  let inst = diagonal ~n_groups:4 60 in
  Alcotest.(check (list string))
    "depth-2 hierarchy: depth-1 identity + jobs determinism" []
    (List.map
       (fun (f : Check.Oracle.finding) -> f.oracle)
       (Check.Oracle.identity ~jobs:[ 2 ] Check.Oracle.cluster_depth inst))

let test_depth_identity_circuit () =
  let inst = circuit "r1" in
  Alcotest.(check (list string))
    "depth-2 hierarchy: depth-1 identity + jobs determinism" []
    (List.map
       (fun (f : Check.Oracle.finding) -> f.oracle)
       (Check.Oracle.identity ~jobs:[ 1; 4 ] Check.Oracle.cluster_depth
          inst))

let test_clustered_audit_clean () =
  let inst = circuit "r2" in
  Alcotest.(check (list string))
    "clustered route passes the global grouped audit" []
    (List.map
       (fun (f : Check.Oracle.finding) -> f.oracle)
       (Check.Oracle.clustered inst))

(* --- clustering is independent of the algorithm ----------------------------- *)

(* A clustered EXT-BST route is the benchmark's hand-built reference
   for it: AST-DME under the baseline's engine defaults, clustered, on
   the instance with every group fused into one at the tightest group
   bound.  Same arena, same engine (gc aside) and repair stats, same
   regions; the reference's tree evaluated against the original groups
   gives the route's report. *)
let test_clustered_ext_bst () =
  let inst = circuit "r2" in
  let open Astskew.Router in
  let config = (Spec.default Ext_bst).config in
  let clustering = { Spec.clusters = Some 4; depth = None } in
  let spec algorithm = Result.get_ok (Spec.make ~config ~clustering algorithm) in
  let ext = route (spec Ext_bst) inst in
  let fused =
    let sinks =
      Array.map (fun (s : Sink.t) -> { s with group = 0 }) inst.sinks
    in
    let bound =
      List.init inst.n_groups (Instance.bound_for inst)
      |> List.fold_left Float.min Float.infinity
    in
    Instance.make ~params:inst.params ~rd:inst.rd ~bound ~source:inst.source
      ~n_groups:1 sinks
  in
  let reference = route (spec Ast_dme) fused in
  Alcotest.(check (list string)) "same arena, report and stats" []
    (Check.Oracle.diffs (Check.Oracle.of_result ext)
       (Check.Oracle.observe
          ~report:(Evaluate.report_of_arena inst reference.routed)
          ~engine:reference.engine ~repair:reference.repair reference.routed));
  let regions (r : result) =
    match r.clustering with
    | None -> Alcotest.fail "route was not clustered"
    | Some d ->
      Array.to_list
        (Array.map
           (fun (c : Dme.Cluster.cluster_stats) -> c.n_sinks)
           d.per_cluster)
  in
  Alcotest.(check int) "four regions" 4 (List.length (regions ext));
  Alcotest.(check (list int)) "same regions" (regions reference) (regions ext)

(* --- cross-cluster violation detection ------------------------------------ *)

let test_cross_cluster_injection_detected () =
  (* The injected snake lengthens one leaf of the stitched tree; its
     group is spread over regions by the spatial partition (r1 is
     intermingled), so the resulting bound violation spans a cluster
     boundary.  The audit runs against the global instance and must
     still see it. *)
  let inst = circuit "r1" in
  let findings = Check.Oracle.clustered ~inject:true inst in
  Alcotest.(check bool)
    "injected cross-cluster skew violation is detected" true
    (List.exists
       (fun (f : Check.Oracle.finding) ->
         f.oracle = "clustered"
         && List.exists
              (fun (v : Check.Audit.violation) ->
                v.invariant = "within-bound")
              f.violations)
       findings)

(* --- Banked fuzz regime --------------------------------------------------- *)

let test_banked_regime () =
  Alcotest.(check bool) "parses" true
    (Check.Gen.regime_of_string "banked" = Some Check.Gen.Banked);
  Alcotest.(check bool) "excluded from the ordinary cycle" false
    (Array.mem Check.Gen.Banked Check.Gen.all_regimes);
  let case =
    Check.Gen.case ~regime:Check.Gen.Banked ~seed:7L ~index:0 ()
  in
  let n = Instance.n_sinks case.instance in
  Alcotest.(check bool) "banked size in range" true (n >= 1000 && n <= 4000);
  (* banked geometry must produce several regions under the default
     cluster count *)
  Alcotest.(check bool) "auto clusters >= 2" true
    (Dme.Cluster.auto_clusters case.instance >= 2)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "cluster"
    [
      ( "split",
        [
          Alcotest.test_case "bipartition" `Quick test_split_bipartition;
          Alcotest.test_case "coincident ties" `Quick test_split_ties;
        ]
        @ qsuite [ median_prop; split_ids_prop ] );
      ( "partition",
        [
          Alcotest.test_case "cover + clamp" `Quick test_partition_cover;
          Alcotest.test_case "deterministic" `Quick
            test_partition_deterministic;
          Alcotest.test_case "auto clusters" `Quick test_auto_clusters;
          Alcotest.test_case "auto depth" `Quick test_auto_depth;
        ]
        @ qsuite [ partition_prop ] );
      ( "identity",
        [
          Alcotest.test_case "small diagonal" `Quick test_identity_small;
          Alcotest.test_case "r1" `Slow (test_identity_circuit "r1");
          Alcotest.test_case "r3" `Slow (test_identity_circuit "r3");
        ] );
      ( "depth",
        [
          Alcotest.test_case "leaves match flat partition" `Quick
            test_depth2_matches_flat_partition;
          Alcotest.test_case "identity small diagonal" `Quick
            test_depth_identity_small;
          Alcotest.test_case "identity r1" `Slow test_depth_identity_circuit;
        ] );
      ( "clustered",
        [
          Alcotest.test_case "jobs-deterministic" `Slow
            test_jobs_deterministic;
          Alcotest.test_case "audit clean" `Slow test_clustered_audit_clean;
          Alcotest.test_case "EXT-BST = fused reference" `Quick
            test_clustered_ext_bst;
          Alcotest.test_case "cross-cluster injection detected" `Slow
            test_cross_cluster_injection_detected;
        ] );
      ( "banked",
        [ Alcotest.test_case "regime" `Quick test_banked_regime ] );
    ]
