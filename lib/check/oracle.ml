module Instance = Clocktree.Instance
module Sink = Clocktree.Sink
module Tree = Clocktree.Tree
module Evaluate = Clocktree.Evaluate
module Arena = Clocktree.Arena
module Repair = Clocktree.Repair
module Router = Astskew.Router

type finding = { oracle : string; violations : Audit.violation list }

let pp_finding ppf f =
  Format.fprintf ppf "@[<v 2>%s:@ %a@]" f.oracle
    (Format.pp_print_list Audit.pp_violation)
    f.violations

let guard oracle f =
  match f () with
  | [] -> []
  | violations -> [ { oracle; violations } ]
  | exception exn ->
    [
      {
        oracle = "exception";
        violations =
          [
            {
              Audit.invariant = oracle;
              detail = Printexc.to_string exn;
            };
          ];
      };
    ]

(* --- deliberate fault injection ------------------------------------------ *)

(* Snake the leaf edge of one sink that shares a group with another sink,
   on a copy of the arena: the extra wire delays that sink past its
   group's bound, so a correct auditor must flag [within-bound].
   Singleton groups cannot violate an intra-group bound, so if every
   group is a singleton the copy is unchanged.  Returns the copy and its
   evaluation. *)
let inject_skew_violation (inst : Instance.t) (a : Arena.t) =
  let sizes = Instance.group_sizes inst in
  let len = Array.copy a.len in
  (match Array.find_opt (fun (s : Sink.t) -> sizes.(s.group) >= 2) inst.sinks with
   | None -> ()
   | Some victim ->
     let delta = Instance.bound_for inst victim.group +. 25. in
     Array.iteri
       (fun u id ->
         if id = victim.id then begin
           let load = a.scap.(u) in
           let w = Rc.Elmore.wire_delay inst.params ~len:len.(u) ~load in
           len.(u) <- Rc.Elmore.wire_for_delay inst.params ~load ~delay:(w +. delta)
         end)
       a.sink);
  let a = { a with len } in
  (a, Evaluate.report_of_arena inst a)

(* --- router contracts ---------------------------------------------------- *)

let min_bound (inst : Instance.t) =
  List.init inst.n_groups (Instance.bound_for inst)
  |> List.fold_left Float.min Float.infinity

(* Each algorithm's default route, audited under the contract it was
   routed under; the finding is named after the router ("ast-dme"). *)
let routers ?(inject = false) inst =
  List.concat_map
    (fun (algorithm : Router.Spec.algorithm) ->
      let contract =
        match algorithm with
        | Ast_dme | Mmm_dme -> Audit.Grouped
        | Ext_bst -> Audit.Global (min_bound inst)
        | Greedy_dme -> Audit.Global 0.
      in
      let oracle =
        String.map (function '_' -> '-' | c -> c) (Router.Spec.name algorithm)
      in
      guard oracle (fun () ->
          let result = Router.route (Router.Spec.default algorithm) inst in
          let routed, report =
            if inject && contract = Audit.Grouped then
              inject_skew_violation inst result.routed
            else (result.routed, result.evaluation)
          in
          Audit.run contract inst routed report))
    Router.Spec.algorithms

let ast ?(jobs = Router.ast_default_config.jobs) ?clustering ?run inst =
  let config = { Router.ast_default_config with jobs } in
  let spec = Router.Spec.make ~config ?clustering Ast_dme in
  Router.route ?run (Result.get_ok spec) inst

(* --- clustered routing ----------------------------------------------------- *)

let clustered ?(inject = false) inst =
  let k = Int.max 2 (Int.min 4 (Instance.n_sinks inst)) in
  guard "clustered" (fun () ->
      let part =
        Audit.partition_cover inst (Dme.Cluster.partition inst ~clusters:k)
      in
      let result = ast ~clustering:{ clusters = Some k; depth = None } inst in
      let routed, report =
        (* The victim's group is spread over regions by the spatial
           partition, so the snaked leaf violates the bound across a
           cluster boundary — the auditor must still see it: the skew
           contract is global to the stitched tree, not per region. *)
        if inject then inject_skew_violation inst result.Router.routed
        else (result.Router.routed, result.Router.evaluation)
      in
      part @ Audit.run Audit.Grouped inst routed report)

(* --- Elmore vs transient ------------------------------------------------- *)

let delay_models ?(resolution = 300) inst =
  guard "delay-models" (fun () ->
      let r = ast inst in
      let rct, sink_index =
        Tree.to_rctree inst.params ~rd:inst.rd ~n_sinks:(Instance.n_sinks inst)
          (Arena.to_routed r.routed)
      in
      let elmore = Rc.Rctree.elmore rct in
      let sim = Rc.Transient.step_response_auto ~resolution rct in
      let max_elmore = Array.fold_left Float.max 0. elmore in
      (* Discretization slack: the simulator reports crossings on a grid
         of pitch max_elmore / resolution. *)
      let dt = max_elmore /. float_of_int resolution in
      let slack = (3. *. dt) +. 1e-9 in
      let out = ref [] in
      let add invariant fmt =
        Printf.ksprintf
          (fun detail -> out := { Audit.invariant; detail } :: !out)
          fmt
      in
      Array.iteri
        (fun sink idx ->
          let te = elmore.(idx) in
          let tt = sim.crossing.(idx) in
          if Float.is_nan tt then
            add "transient-crossed" "sink %d never reached 50%%" sink
          else if tt > te +. slack then
            (* Elmore bounds the 50% crossing from above (Gupta et al.);
               no useful universal lower bound exists — resistance
               shielding can push the true crossing to a tiny fraction of
               the Elmore estimate. *)
            add "elmore-upper-bound"
              "sink %d: transient %.6g ps exceeds Elmore %.6g ps" sink tt te)
        sink_index;
      (* Charging an RC tree from the root, every node's voltage trails
         its parent's, so 50% crossings are non-decreasing downstream. *)
      for i = 1 to Rc.Rctree.size rct - 1 do
        let p = Rc.Rctree.parent rct i in
        let tp = sim.crossing.(p) and ti = sim.crossing.(i) in
        if Float.is_finite tp && Float.is_finite ti && ti < tp -. slack then
          add "crossing-monotone"
            "node %d crosses at %.6g ps before its parent %d at %.6g ps" i ti
            p tp
      done;
      (* Chapter III: intra-group skews agree between the models far more
         tightly than absolute delays do.  The claim is about realistic
         interconnect; under adversarial electrical parameters (near-zero
         driver resistance, fF-to-pF load spreads) higher-order effects
         legitimately skew Elmore-balanced trees, so the check is gated
         to the envelope the thesis speaks to. *)
      let realistic =
        inst.params = Rc.Wire.default
        && inst.rd >= 10.
        && Array.for_all
             (fun (s : Sink.t) -> s.cap >= 1. && s.cap <= 1000.)
             inst.sinks
      in
      if !out = [] && realistic then begin
        let skews delays =
          let lo = Array.make inst.n_groups Float.infinity in
          let hi = Array.make inst.n_groups Float.neg_infinity in
          Array.iter
            (fun (s : Sink.t) ->
              lo.(s.group) <- Float.min lo.(s.group) delays.(s.id);
              hi.(s.group) <- Float.max hi.(s.group) delays.(s.id))
            inst.sinks;
          Array.init inst.n_groups (fun g -> Float.max 0. (hi.(g) -. lo.(g)))
        in
        let per_sink arr = Array.map (fun i -> arr.(i)) sink_index in
        let sk_e = skews (per_sink elmore) in
        let sk_t = skews (per_sink sim.crossing) in
        Array.iteri
          (fun g se ->
            let st = sk_t.(g) in
            let tol = (0.25 *. Float.max se st) +. (6. *. dt) +. 1e-9 in
            if Float.abs (se -. st) > tol then
              add "skew-agreement"
                "group %d: Elmore skew %.6g ps vs transient %.6g ps" g se st)
          sk_e
      end;
      List.rev !out)

(* --- the invariance table ------------------------------------------------ *)

type obs = {
  arena : Arena.t;
  report : Evaluate.report option;
  engine : Dme.Engine.stats option;
  repair : Repair.stats option;
  extra : string list;
}

let observe ?report ?engine ?repair arena =
  let degc (s : Dme.Engine.stats) = { s with gc = Obs.Gcstat.zero } in
  { arena; report; engine = Option.map degc engine; repair; extra = [] }

let of_result (r : Router.result) =
  observe ~report:r.evaluation ~engine:r.engine ~repair:r.repair r.routed

(* Every compared field as a named column of floats (ints are exact
   below 2^53); a scalar is a one-entry column. *)
let columns (o : obs) =
  let a = o.arena and f = float in
  let ints = Array.map f and one p = List.map (fun (n, x) -> (p ^ n, [| x |])) in
  [ ("arena.left", ints a.left); ("arena.right", ints a.right);
    ("arena.parent", ints a.parent); ("arena.size", ints a.size);
    ("arena.sink", ints a.sink); ("arena.group", ints a.group);
    ("arena.scap", a.scap); ("arena.len", a.len);
    ("arena.pos.x", Array.map (fun (p : Geometry.Pt.t) -> p.x) a.pos);
    ("arena.pos.y", Array.map (fun (p : Geometry.Pt.t) -> p.y) a.pos);
    ("arena.source", [| a.source.x; a.source.y |]);
    ("arena.source_len", [| a.source_len |]) ]
  @ (match o.report with
     | None -> []
     | Some r ->
       ("report.delays", r.delays) :: ("report.group_skew", r.group_skew)
       :: one "report."
            [ ("wirelength", r.wirelength); ("snaking", r.snaking);
              ("min_delay", r.min_delay); ("max_delay", r.max_delay);
              ("global_skew", r.global_skew);
              ("max_group_skew", r.max_group_skew) ])
  @ (match o.engine with
     | None -> []
     | Some s ->
       let t = s.trial in
       one "engine."
         [ ("rounds", f s.rounds); ("same_group", f s.same_group);
           ("cross_group", f s.cross_group); ("shared_one", f s.shared_one);
           ("shared_multi", f s.shared_multi);
           ("planned_snake", s.planned_snake);
           ("infeasible_merges", f s.infeasible_merges);
           ("nn_reprobes", f s.nn_reprobes);
           ("nn_queries", f s.nn_queries); ("nn_cells", f s.nn_cells);
           ("nn_entries", f s.nn_entries);
           ("trial_merges", f t.trial_merges);
           ("elided_trials", f t.elided_trials) ])
  @
  match o.repair with
  | None -> []
  | Some s ->
    one "repair."
      [ ("added_wire", s.added_wire); ("adjusted_edges", f s.adjusted_edges);
        ("conflict_nodes", f s.conflict_nodes);
        ("lift_iterations", f s.lift_iterations);
        ("unresolved_groups", f s.unresolved_groups); ("cycles", f s.cycles);
        ("budget_exhausted", if s.budget_exhausted then 1. else 0.) ]
    @ [ ("repair.delays", s.delays) ]

let diffs v r =
  let expected = columns r in
  List.concat_map
    (fun (name, x) ->
      match List.assoc_opt name expected with
      | None -> []
      | Some y when Array.length x <> Array.length y ->
        [ Printf.sprintf "%s has %d entries, expected %d" name
            (Array.length x) (Array.length y) ]
      | Some y ->
        let out = ref [] in
        for k = Array.length x - 1 downto 0 do
          if Int64.bits_of_float x.(k) <> Int64.bits_of_float y.(k) then
            let at =
              if Array.length x > 1 then Printf.sprintf "%s[%d]" name k else name
            in
            out := Printf.sprintf "%s: %.17g, expected %.17g" at x.(k) y.(k) :: !out
        done;
        !out)
    (columns v)

(* One case's shared runs, memoised by jobs. *)
type ctx = {
  inst : Instance.t;
  plans : (int, Dme.Subtree.t * obs) Hashtbl.t;
  routes : (int, obs) Hashtbl.t;
}

let memo tbl jobs run =
  match Hashtbl.find_opt tbl jobs with
  | Some x -> x
  | None -> let x = run () in Hashtbl.replace tbl jobs x; x

(* On a pool of [jobs] domains (none at 1): the router plans 1000 sinks or
   fewer serially whatever its jobs. *)
let plan_embed ?(config = Router.ast_default_config) ?run ~jobs inst =
  Par.Pool.with_pool ~jobs (fun pool ->
      let root, stats = Dme.Engine.plan ~config ?run ?pool inst in
      let arena = Dme.Embed.run_arena ?pool ?run inst root in
      (root, observe ~engine:stats arena))

(* The default-config plan; a pooled one must have ranked on its pool. *)
let plan c jobs =
  memo c.plans jobs (fun () ->
      let sched = if jobs > 1 then Obs.Sched.create () else Obs.Sched.null in
      let root, o = plan_embed ~run:{ Obs.Run.null with sched } ~jobs c.inst in
      let rank (p : Obs.Sched.phase_report) =
        List.exists (fun (l : Obs.Sched.label_report) -> l.label = "engine.rank") p.labels
      in
      let ranked =
        Option.fold ~none:false (Obs.Sched.report sched)
          ~some:(fun (r : Obs.Sched.report) -> List.exists rank r.phases)
      in
      let idle = jobs > 1 && Instance.n_sinks c.inst > 1 && not ranked in
      (root, if idle then { o with extra = [ "ranked on no pool" ] } else o))

let route c jobs =
  memo c.routes jobs (fun () ->
      let r = ast ~jobs c.inst in
      let extra = if r.sched = None then [] else [ "unrecorded sched report" ] in
      { (of_result r) with extra })

type row = {
  name : string;
  label : string;  (* the variant against the reference *)
  jobs : int list;
  reference : ctx -> obs;
  variant : ctx -> obs -> int -> obs;
}

let name row = row.name
let said = List.map (fun (v : Audit.violation) -> v.invariant ^ ": " ^ v.detail)

let par =
  { name = "par-identity"; label = "pooled vs serial"; jobs = [ 2; 4 ];
    reference = (fun c -> snd (plan c 1)); variant = (fun c _ j -> snd (plan c j)) }

let trace =
  { name = "trace-identity"; label = "traced vs untraced"; jobs = [ 1; 2 ];
    reference = (fun c -> snd (plan c 1));
    variant =
      (fun c _ j ->
        let trace = Obs.Trace.create () in
        let run = { Obs.Run.null with trace } in
        let o = snd (plan_embed ~run ~jobs:j c.inst) in
        { o with extra = said (Audit.journal trace (Option.get o.engine)) }) }

let devnull = lazy (open_out "/dev/null")

let sched =
  { name = "sched-identity"; label = "recorded vs unrecorded jobs=1";
    jobs = [ 1; 2; 4 ]; reference = (fun c -> route c 1);
    variant =
      (fun c _ j ->
        let run =
          { Obs.Run.null with
            sched = Obs.Sched.create ();
            progress = Obs.Progress.create ~out:(Lazy.force devnull) () }
        in
        let r = ast ~jobs:j ~run c.inst in
        let extra = said (Audit.sched_report ~jobs:j r.sched) in
        { (of_result r) with extra }) }

let cluster =
  { name = "cluster-identity"; label = "clusters=1 vs flat"; jobs = [ 1; 2 ];
    reference = (fun c -> route c 1);
    variant =
      (fun c _ j ->
        let clustering = { Router.Spec.clusters = Some 1; depth = None } in
        let r = ast ~jobs:j ~clustering c.inst in
        let extra = said (Audit.clustering c.inst ~clusters:1 r.clustering) in
        { (of_result r) with extra }) }

let clustered_route ?depth c jobs =
  ast ~jobs ~clustering:{ clusters = Some 4; depth } c.inst

let cluster_depth =
  { name = "cluster-depth-identity"; label = "depth=2 vs depth=2 jobs=1";
    jobs = [ 2; 4 ];
    reference =
      (fun c ->
        let d2 = clustered_route ~depth:2 c 1 in
        let depth1 =
          diffs
            (of_result (clustered_route ~depth:1 c 1))
            (of_result (clustered_route c 1))
        in
        { (of_result d2) with
          extra =
            List.map (( ^ ) "depth=1 vs auto ") depth1
            @ said (Audit.clustering c.inst ~clusters:4 ~depth:2 d2.clustering)
            @ said (Audit.run Audit.Grouped c.inst d2.routed d2.evaluation) });
    variant = (fun c _ j -> of_result (clustered_route ~depth:2 c j)) }

(* Repair mutates only the [len] column, so each run gets a copy; the
   report is repair's last evaluation, as a route's is. *)
let repaired c ~jobs ~incremental regions =
  let planned = (snd (plan c 1)).arena in
  let arena = { planned with len = Array.copy planned.len } in
  let config = { Repair.default_config with jobs; incremental; regions } in
  let repair = Repair.run_arena ~config c.inst arena in
  observe ~report:(Evaluate.of_delays c.inst arena repair.delays) ~repair arena

let repair_row family regions =
  { name = "repair-identity";
    label = family ^ " incremental vs serial from-scratch"; jobs = [ 1; 2; 4 ];
    reference = (fun c -> repaired c ~jobs:1 ~incremental:false regions);
    variant = (fun c _ j -> repaired c ~jobs:j ~incremental:true regions) }

let repair = repair_row "auto-regions" None
let repair_regional = repair_row "forced-regions" (Some 4)

let swept c o = { o with report = Some (Evaluate.report_of_arena c.inst o.arena) }

(* The route's report against the serial sweep of the jobs-1 route's
   tree; extras: repair at [j] with 4 forced windows, incremental and
   from scratch, each against the sweep of the tree it left. *)
let evaluate =
  { name = "evaluate-identity"; label = "route report vs serial sweep";
    jobs = [ 1; 2; 4 ]; reference = (fun c -> swept c (route c 1));
    variant =
      (fun c _ j ->
        let forced incremental =
          let o = repaired c ~jobs:j ~incremental (Some 4) in
          List.map
            (Printf.sprintf "regions=4 incremental=%b %s" incremental)
            (diffs o (swept c o))
        in
        let o = route c j in
        { o with extra = o.extra @ forced true @ forced false }) }

let embed =
  { name = "embed-identity"; label = "direct vs reference"; jobs = [ 1; 2; 4 ];
    reference =
      (fun c ->
        let tree = Dme.Embed.run_reference c.inst (fst (plan c 1)) in
        observe (Arena.of_routed c.inst.params ~rd:c.inst.rd tree));
    variant =
      (fun c _ j ->
        Par.Pool.with_pool ~jobs:j (fun pool ->
            observe (Dme.Embed.run_arena ?pool c.inst (fst (plan c 1))))) }

let invariants =
  [ par; trace; sched; cluster; cluster_depth; repair; repair_regional;
    evaluate; embed ]

let identities rows inst =
  let c = { inst; plans = Hashtbl.create 4; routes = Hashtbl.create 4 } in
  List.concat_map
    (fun (row, jobs) ->
      guard row.name (fun () ->
          let r = row.reference c in
          let at j =
            let v = row.variant c r j in
            List.map
              (Printf.sprintf "jobs=%d %s: %s" j row.label)
              (v.extra @ diffs v r)
          in
          List.map
            (fun detail -> { Audit.invariant = row.name; detail })
            (r.extra @ List.concat_map at jobs)))
    rows

let identity ?jobs row inst =
  identities [ (row, Option.value jobs ~default:row.jobs) ] inst

let all ?(inject = false) inst =
  routers ~inject inst
  @ identities (List.map (fun row -> (row, row.jobs)) invariants) inst
  @ clustered ~inject inst @ delay_models inst

let reproduces ?inject ~of_run inst =
  let names = List.map (fun f -> f.oracle) of_run in
  let relevant name = List.mem name names in
  let findings = all ?inject inst in
  List.exists (fun f -> relevant f.oracle) findings
