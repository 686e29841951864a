(* Tests for the experiment harness: the table generator and every figure
   reconstruction, each checked against the paper's qualitative claim. *)

let small =
  (* A reduced circuit keeps the suite fast while exercising the same
     code paths as the full tables. *)
  Workload.Circuits.{ name = "t"; n_sinks = 120; die = 35000. }

let test_tables_structure () =
  let rows =
    Experiments.Tables.run ~circuits:[ small ] ~groups:[ 4; 6 ]
      ~scheme:Workload.Partition.Intermingled ()
  in
  Alcotest.(check int) "1 baseline + 2 ast rows" 3 (List.length rows);
  (match rows with
   | base :: rest ->
     Alcotest.(check string) "baseline algo" "EXT-BST" base.algorithm;
     Alcotest.(check bool) "baseline has no reduction" true
       (base.reduction_pct = None);
     List.iter
       (fun (r : Experiments.Tables.row) ->
         Alcotest.(check string) "ast algo" "AST-DME" r.algorithm;
         Alcotest.(check bool) "reduction present" true (r.reduction_pct <> None);
         Alcotest.(check bool) "wirelength positive" true (r.wirelength > 0.);
         Alcotest.(check bool) "cpu recorded" true (r.cpu_s >= 0.))
       rest
   | [] -> Alcotest.fail "no rows")

let test_tables_intermingled_beats_baseline () =
  let rows =
    Experiments.Tables.run ~circuits:[ small ] ~groups:[ 8 ]
      ~scheme:Workload.Partition.Intermingled ()
  in
  match rows with
  | [ _; ast ] ->
    (match ast.reduction_pct with
     | Some red ->
       Alcotest.(check bool)
         (Printf.sprintf "positive reduction (%.2f%%)" red)
         true (red > 0.)
     | None -> Alcotest.fail "expected reduction")
  | _ -> Alcotest.fail "unexpected row count"

let test_fig1 () =
  let f = Experiments.Figures.fig1 () in
  Alcotest.(check bool) "zst truly zero skew" true (f.zst_skew <= 1e-4);
  Alcotest.(check bool) "bst skew within bound" true (f.bst_skew <= 2. +. 1e-4);
  Alcotest.(check bool) "bounded skew saves wire" true
    (f.bst_wirelength < f.zst_wirelength)

let test_fig2 () =
  let f = Experiments.Figures.fig2 () in
  Alcotest.(check bool) "associative merging saves wire" true
    (f.associative_wirelength < f.stitched_wirelength)

let test_fig3 () =
  let f = Experiments.Figures.fig3 () in
  Alcotest.(check bool) "region non-empty" false (Geometry.Octagon.is_empty f.region);
  Alcotest.(check bool) "has vertices" true (List.length f.vertices >= 1);
  Alcotest.(check bool) "positive child distance" true (f.distance > 0.)

let test_fig4 () =
  let f = Experiments.Figures.fig4 () in
  Alcotest.(check bool) "instance-1 merge kind" true
    (f.kind = Dme.Merge.Shared_one);
  Alcotest.(check (list int)) "groups associated" [ 0; 1; 2 ] f.merged_groups;
  Alcotest.(check bool) "shared group within bound" true
    (f.shared_group_width <= 10. +. 1e-6)

let test_fig5 () =
  let f = Experiments.Figures.fig5 () in
  Alcotest.(check (float 1e-9)) "eq 5.1 residual" 0. f.residual_51;
  Alcotest.(check (float 1e-9)) "eq 5.2 residual" 0. f.residual_52;
  Alcotest.(check (float 1e-6)) "eq 5.3" 8000. (f.alpha +. f.beta)

let test_spice_check () =
  let spec = Workload.Circuits.{ name = "sp"; n_sinks = 60; die = 25000. } in
  let r = Experiments.Spice_check.run ~spec ~n_groups:4 () in
  Alcotest.(check bool) "absolute delay error large" true (r.delay_error_pct > 10.);
  Alcotest.(check bool)
    (Printf.sprintf "skew gap small (%.3f ps)" r.skew_gap)
    true
    (r.skew_gap < 0.2 *. r.max_group_skew_elmore +. 1.);
  Alcotest.(check bool) "transient slower than elmore predicts zero" true
    (r.mean_delay_transient > 0.)

let test_ablation_rows () =
  let spec = Workload.Circuits.{ name = "ab"; n_sinks = 80; die = 30000. } in
  let rows = Experiments.Ablation.run ~spec ~n_groups:4 () in
  Alcotest.(check int) "five variants" 5 (List.length rows);
  (match rows with
   | default :: _ ->
     Alcotest.(check string) "first is default" "default" default.name;
     Alcotest.(check (float 1e-9)) "default is its own reference" 0.
       default.reduction_vs_default_pct
   | [] -> Alcotest.fail "no rows");
  List.iter
    (fun (r : Experiments.Ablation.row) ->
      Alcotest.(check bool)
        (r.name ^ " produced a tree")
        true (r.wirelength > 0.))
    rows

let test_single_merge_ablation_rounds () =
  (* The §V.F-1 ablation: single-merge mode needs ~n rounds, multi-merge
     logarithmically fewer. *)
  let spec = Workload.Circuits.{ name = "ab"; n_sinks = 80; die = 30000. } in
  let rows = Experiments.Ablation.run ~spec ~n_groups:4 () in
  let find name =
    List.find (fun (r : Experiments.Ablation.row) -> r.name = name) rows
  in
  let d = find "default" and s = find "single-merge (no §V.F-1)" in
  Alcotest.(check int) "single-merge rounds = n-1" 79 s.rounds;
  Alcotest.(check bool)
    (Printf.sprintf "multi-merge needs far fewer rounds (%d)" d.rounds)
    true
    (d.rounds < 30)

let () =
  Alcotest.run "experiments"
    [
      ( "tables",
        [
          Alcotest.test_case "structure" `Slow test_tables_structure;
          Alcotest.test_case "intermingled wins" `Slow
            test_tables_intermingled_beats_baseline;
        ] );
      ( "figures",
        [
          Alcotest.test_case "fig1 zst vs bst" `Quick test_fig1;
          Alcotest.test_case "fig2 stitch vs associative" `Quick test_fig2;
          Alcotest.test_case "fig3 merging region" `Quick test_fig3;
          Alcotest.test_case "fig4 instance 1" `Quick test_fig4;
          Alcotest.test_case "fig5 instance 2" `Quick test_fig5;
        ] );
      ( "validation",
        [ Alcotest.test_case "elmore vs transient" `Slow test_spice_check ] );
      ( "ablation",
        [
          Alcotest.test_case "rows" `Slow test_ablation_rows;
          Alcotest.test_case "multi-merge rounds" `Slow
            test_single_merge_ablation_rounds;
        ] );
    ]
