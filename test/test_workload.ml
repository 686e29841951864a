(* Tests for the synthetic benchmark generator. *)

open Workload

let test_rng_determinism () =
  let a = Rng.create 123L and b = Rng.create 123L in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.)) "same stream" (Rng.float_range a 0. 1.) (Rng.float_range b 0. 1.)
  done

let test_rng_ranges () =
  let r = Rng.create 5L in
  for _ = 1 to 1000 do
    let f = Rng.float_range r 0. 1. in
    Alcotest.(check bool) "float in [0,1)" true (f >= 0. && f < 1.);
    let i = Rng.int r 7 in
    Alcotest.(check bool) "int in [0,7)" true (i >= 0 && i < 7)
  done

let test_rng_shuffle_is_permutation () =
  let r = Rng.create 9L in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

let test_specs () =
  Alcotest.(check int) "five circuits" 5 (List.length Circuits.specs);
  let names = List.map (fun (s : Circuits.spec) -> s.name) Circuits.specs in
  Alcotest.(check (list string)) "names" [ "r1"; "r2"; "r3"; "r4"; "r5" ] names;
  let sizes = List.map (fun (s : Circuits.spec) -> s.n_sinks) Circuits.specs in
  Alcotest.(check (list int)) "paper sink counts" [ 267; 598; 862; 1903; 3101 ] sizes;
  Alcotest.(check bool) "find r3" true (Circuits.find "r3" <> None);
  Alcotest.(check bool) "find bogus" true (Circuits.find "r9" = None)

let test_instance_determinism () =
  let spec = Option.get (Circuits.find "r1") in
  let mk () =
    Circuits.instance spec ~n_groups:4 ~scheme:Partition.Intermingled
      ~bound:10. ()
  in
  let a = mk () and b = mk () in
  Array.iteri
    (fun i (s : Clocktree.Sink.t) ->
      let t = b.sinks.(i) in
      Alcotest.(check bool) "same sink" true
        (Geometry.Pt.equal s.loc t.loc && s.group = t.group && s.cap = t.cap))
    a.sinks

let test_all_groups_nonempty () =
  let spec = Option.get (Circuits.find "r1") in
  List.iter
    (fun scheme ->
      List.iter
        (fun g ->
          let inst = Circuits.instance spec ~n_groups:g ~scheme ~bound:10. () in
          let sizes = Clocktree.Instance.group_sizes inst in
          Array.iteri
            (fun gi n ->
              Alcotest.(check bool)
                (Printf.sprintf "%s g=%d group %d non-empty"
                   (Partition.scheme_to_string scheme) g gi)
                true (n > 0))
            sizes)
        [ 1; 4; 6; 8; 10 ])
    [ Partition.Clustered; Partition.Intermingled ]

let group_bbox (inst : Clocktree.Instance.t) g =
  Array.fold_left
    (fun acc (s : Clocktree.Sink.t) ->
      if s.group = g then Geometry.Octagon.hull acc (Geometry.Octagon.of_point s.loc)
      else acc)
    Geometry.Octagon.empty inst.sinks

let test_clustered_vs_intermingled_geometry () =
  let spec = Option.get (Circuits.find "r1") in
  let measure scheme =
    let inst = Circuits.instance spec ~n_groups:4 ~scheme ~bound:10. () in
    let spans =
      List.init 4 (fun g -> Geometry.Octagon.diameter (group_bbox inst g))
    in
    List.fold_left Float.max 0. spans
  in
  let clustered = measure Partition.Clustered in
  let intermingled = measure Partition.Intermingled in
  (* Intermingled groups span (almost) the whole die; clustered groups
     are confined to a quadrant-sized box. *)
  Alcotest.(check bool)
    (Printf.sprintf "clustered %.0f < intermingled %.0f" clustered intermingled)
    true
    (clustered < 0.75 *. intermingled)

let test_scheme_strings () =
  Alcotest.(check bool) "roundtrip clustered" true
    (Partition.scheme_of_string "clustered" = Some Partition.Clustered);
  Alcotest.(check bool) "roundtrip intermingled" true
    (Partition.scheme_of_string "intermingled" = Some Partition.Intermingled);
  Alcotest.(check bool) "unknown" true (Partition.scheme_of_string "x" = None)

let () =
  Alcotest.run "workload"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "ranges" `Quick test_rng_ranges;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_is_permutation;
        ] );
      ( "circuits",
        [
          Alcotest.test_case "specs" `Quick test_specs;
          Alcotest.test_case "determinism" `Quick test_instance_determinism;
        ] );
      ( "partition",
        [
          Alcotest.test_case "groups non-empty" `Quick test_all_groups_nonempty;
          Alcotest.test_case "clustered vs intermingled" `Quick
            test_clustered_vs_intermingled_geometry;
          Alcotest.test_case "scheme strings" `Quick test_scheme_strings;
        ] );
    ]
