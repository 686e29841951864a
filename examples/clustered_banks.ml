(* Clustered sink groups: register banks in their own floorplan regions
   (Table I's scenario).  Here the associative freedom pays less because
   same-group sinks are already neighbours; the example also verifies the
   skew-constraint semantics by reporting the full per-group skew
   breakdown for both routers.

   Run with: dune exec examples/clustered_banks.exe *)

let () =
  let spec = Workload.Circuits.{ name = "banks"; n_sinks = 400; die = 60000. } in
  let n_groups = 8 in
  let inst =
    Workload.Circuits.instance spec ~n_groups
      ~scheme:Workload.Partition.Clustered ~bound:10. ()
  in
  Format.printf "Clustered banks: %d sinks in %d rectangular bank regions@.@."
    spec.n_sinks n_groups;
  let ext = Astskew.Router.(route (Spec.default Ext_bst) inst) in
  let ast = Astskew.Router.(route (Spec.default Ast_dme) inst) in
  Format.printf "EXT-BST: wirelength %.0f, global skew %.2f ps@."
    ext.evaluation.wirelength ext.evaluation.global_skew;
  Format.printf "AST-DME: wirelength %.0f (%.2f%% less), global skew %.2f ps@.@."
    ast.evaluation.wirelength
    (100. *. Astskew.Router.reduction ~baseline:ext ast)
    ast.evaluation.global_skew;
  Format.printf "%-7s %-8s %-18s %-18s@." "group" "sinks" "EXT-BST skew (ps)"
    "AST-DME skew (ps)";
  let sizes = Clocktree.Instance.group_sizes inst in
  Array.iteri
    (fun g size ->
      Format.printf "%-7d %-8d %-18.3f %-18.3f@." g size
        ext.evaluation.group_skew.(g) ast.evaluation.group_skew.(g))
    sizes;
  Format.printf
    "@.Both routers keep every bank within 10 ps; AST-DME additionally lets@.banks drift against each other, which saves wire at the bank boundaries.@."
