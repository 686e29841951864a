type row = {
  name : string;
  wirelength : float;
  cpu_s : float;
  snaking : float;
  rounds : int;
  reduction_vs_default_pct : float;
}

let variants =
  let d = Astskew.Router.ast_default_config in
  [
    ("default", d);
    ("single-merge (no §V.F-1)", { d with multi_merge = false });
    ("no delay-target order (§V.F-2 off)", { d with delay_order_weight = 0. });
    ("no split slack", { d with split_slack = 0. });
    ("full split slack", { d with split_slack = 1.; width_cap = 1. });
  ]

let run spec =
  let inst =
    Workload.Circuits.instance spec ~n_groups:8
      ~scheme:Workload.Partition.Intermingled ~bound:10. ()
  in
  let results =
    List.map
      (fun (name, config) ->
        let spec = Result.get_ok (Astskew.Router.Spec.make ~config Ast_dme) in
        (name, Astskew.Router.route spec inst))
      variants
  in
  let default_wl =
    match results with
    | (_, first) :: _ -> first.Astskew.Router.evaluation.wirelength
    | [] -> assert false
  in
  List.map
    (fun (name, (r : Astskew.Router.result)) ->
      {
        name;
        wirelength = r.evaluation.wirelength;
        cpu_s = r.cpu_seconds;
        snaking = r.evaluation.snaking;
        rounds = r.engine.rounds;
        reduction_vs_default_pct =
          100. *. (r.evaluation.wirelength -. default_wl) /. default_wl;
      })
    results

let print rows =
  Format.printf "@.Ablation (AST-DME engine variants):@.";
  Format.printf "%-28s %-11s %-9s %-9s %-7s %-10s@." "Variant" "Wirelen"
    "vs default" "Snaking" "Rounds" "CPU(s)";
  List.iter
    (fun r ->
      Format.printf "%-28s %-11.0f %+-9.2f%% %-9.0f %-7d %-10.2f@." r.name
        r.wirelength r.reduction_vs_default_pct r.snaking r.rounds r.cpu_s)
    rows
