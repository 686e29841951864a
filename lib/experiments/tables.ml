type row = {
  circuit : string;
  n_sinks : int;
  n_groups : int;
  algorithm : string;
  wirelength : float;
  reduction_pct : float option;
  max_skew_ps : float;
  cpu_s : float;
}

let default_groups = [ 4; 6; 8; 10 ]

let run ?(circuits = Workload.Circuits.specs) ?(groups = default_groups)
    ?(bound = 10.) ~scheme () =
  List.concat_map
    (fun (spec : Workload.Circuits.spec) ->
      let route n_groups algorithm =
        let inst = Workload.Circuits.instance spec ~n_groups ~scheme ~bound () in
        Astskew.Router.(route (Spec.default algorithm) inst)
      in
      let row algorithm n_groups reduction_pct (r : Astskew.Router.result) =
        { circuit = spec.name; n_sinks = spec.n_sinks; n_groups; algorithm;
          wirelength = r.evaluation.wirelength; reduction_pct;
          max_skew_ps = r.evaluation.global_skew; cpu_s = r.cpu_seconds }
      in
      (* The baseline does not depend on the grouping, so route it on the
         1-group instance, exactly as "#groups = 1 / EXT-BST" in the
         paper's tables. *)
      let base = route 1 Ext_bst in
      row "EXT-BST" 1 None base
      :: List.map
           (fun g ->
             let ast = route g Ast_dme in
             let reduction = 100. *. Astskew.Router.reduction ~baseline:base ast in
             row "AST-DME" g (Some reduction) ast)
           groups)
    circuits

let print ~title rows =
  Format.printf "@.%s@." title;
  Format.printf
    "%-8s %-8s %-8s %-10s %-10s %-14s %-8s@." "Circuit" "#groups" "Algo"
    "Wirelen" "Reduction" "MaxSkew(ps)" "CPU(s)";
  let last_circuit = ref "" in
  List.iter
    (fun r ->
      let circuit_cell =
        if r.circuit = !last_circuit then ""
        else begin
          last_circuit := r.circuit;
          Printf.sprintf "%s/%d" r.circuit r.n_sinks
        end
      in
      Format.printf "%-8s %-8d %-8s %-10.0f %-10s %-14.1f %-8.2f@."
        circuit_cell r.n_groups r.algorithm r.wirelength
        (match r.reduction_pct with
         | None -> "-"
         | Some p -> Printf.sprintf "%.2f%%" p)
        r.max_skew_ps r.cpu_s)
    rows
