open Clocktree

type result = {
  circuit : string;
  n_sinks : int;
  mean_delay_elmore : float;
  mean_delay_transient : float;
  delay_error_pct : float;
  max_group_skew_elmore : float;
  max_group_skew_transient : float;
  skew_gap : float;
}

let group_skews (inst : Instance.t) delays =
  let lo = Array.make inst.n_groups Float.infinity in
  let hi = Array.make inst.n_groups Float.neg_infinity in
  Array.iter
    (fun (s : Sink.t) ->
      lo.(s.group) <- Float.min lo.(s.group) delays.(s.id);
      hi.(s.group) <- Float.max hi.(s.group) delays.(s.id))
    inst.sinks;
  Array.init inst.n_groups (fun g -> hi.(g) -. lo.(g))

let mean arr = Array.fold_left ( +. ) 0. arr /. float_of_int (Array.length arr)

let run ?spec ?(n_groups = 8) ?(bound = 10.) () =
  let spec =
    match spec with
    | Some s -> s
    | None -> Option.get (Workload.Circuits.find "r1")
  in
  let inst =
    Workload.Circuits.instance spec ~n_groups
      ~scheme:Workload.Partition.Intermingled ~bound ()
  in
  let ast = Astskew.Router.(route (Spec.default Ast_dme) inst) in
  let rct, sink_index =
    Tree.to_rctree inst.params ~rd:inst.rd ~n_sinks:(Instance.n_sinks inst)
      (Arena.to_routed ast.routed)
  in
  let elmore_nodes = Rc.Rctree.elmore rct in
  let sim = Rc.Transient.step_response_auto ~resolution:3000 rct in
  let delays_e = Array.map (fun i -> elmore_nodes.(i)) sink_index in
  let delays_t = Array.map (fun i -> sim.crossing.(i)) sink_index in
  let skews_e = group_skews inst delays_e in
  let skews_t = group_skews inst delays_t in
  let max_e = Array.fold_left Float.max 0. skews_e in
  let max_t = Array.fold_left Float.max 0. skews_t in
  let gap =
    Array.fold_left Float.max 0.
      (Array.mapi (fun g se -> Float.abs (se -. skews_t.(g))) skews_e)
  in
  {
    circuit = spec.name;
    n_sinks = spec.n_sinks;
    mean_delay_elmore = mean delays_e;
    mean_delay_transient = mean delays_t;
    delay_error_pct =
      100.
      *. Float.abs (mean delays_e -. mean delays_t)
      /. mean delays_t;
    max_group_skew_elmore = max_e;
    max_group_skew_transient = max_t;
    skew_gap = gap;
  }

let print r =
  Format.printf
    "@.Elmore vs transient on %s (%d sinks):@.  mean delay: %.1f ps (Elmore) vs %.1f ps (transient) — %.1f%% absolute error@.  max intra-group skew: %.2f ps (Elmore) vs %.2f ps (transient) — gap %.2f ps@.  => delay error is large, skew error is small (Chapter III claim)@."
    r.circuit r.n_sinks r.mean_delay_elmore r.mean_delay_transient
    r.delay_error_pct r.max_group_skew_elmore r.max_group_skew_transient
    r.skew_gap
