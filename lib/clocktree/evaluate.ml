type report = {
  wirelength : float;
  snaking : float;
  delays : float array;
  min_delay : float;
  max_delay : float;
  global_skew : float;
  group_skew : float array;
  max_group_skew : float;
}

(* Acceptance slack shared with Repair.run_arena and the auditor's bound
   check: a group skew within it of its bound counts as satisfied. *)
let default_slack = 1e-4

(* The grouped fold of per-sink delays (indexed by sink id) into the
   report; wirelength and snaking are read off the arena. *)
let of_delays (inst : Instance.t) (a : Arena.t) delays =
  let min_delay = Array.fold_left Float.min Float.infinity delays in
  let max_delay = Array.fold_left Float.max Float.neg_infinity delays in
  let lo = Array.make inst.n_groups Float.infinity in
  let hi = Array.make inst.n_groups Float.neg_infinity in
  Array.iter
    (fun (s : Sink.t) ->
      lo.(s.group) <- Float.min lo.(s.group) delays.(s.id);
      hi.(s.group) <- Float.max hi.(s.group) delays.(s.id))
    inst.sinks;
  let group_skew =
    Array.init inst.n_groups (fun g ->
        if lo.(g) > hi.(g) then 0. else hi.(g) -. lo.(g))
  in
  {
    wirelength = Arena.wirelength a;
    snaking = Arena.total_snaking a;
    delays;
    min_delay;
    max_delay;
    global_skew = max_delay -. min_delay;
    group_skew;
    max_group_skew = Array.fold_left Float.max 0. group_skew;
  }

(* The serial reference sweep, through the arena's RC kernels: bit for
   bit the Tree.to_rctree + Rc.Rctree.elmore pipeline (so Elmore and
   "SPICE" numbers describe one circuit), but iterative, so 10^6-node
   combs evaluate without overflowing the stack.  [jobs] is ignored. *)
let report_of_arena ?jobs:(_ : int option) (inst : Instance.t) (a : Arena.t) =
  let down = Array.make a.Arena.n 0. in
  let node_delay = Array.make a.Arena.n 0. in
  let delays = Array.make (Instance.n_sinks inst) 0. in
  let down0 = Arena.downstream_rc ~into:down a in
  Arena.elmore ~down ~down0 ~into:node_delay a;
  Arena.delays_by_sink ~delay:node_delay ~into:delays a;
  of_delays inst a delays

let pp_report ppf r =
  Format.fprintf ppf
    "wirelength %.0f (snaking %.0f), delay [%.2f, %.2f] ps, global skew %.2f ps, max group skew %.3f ps"
    r.wirelength r.snaking r.min_delay r.max_delay r.global_skew
    r.max_group_skew
