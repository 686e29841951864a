module Pt = Geometry.Pt
module Instance = Clocktree.Instance
module Sink = Clocktree.Sink
module Tree = Clocktree.Tree
module Evaluate = Clocktree.Evaluate

type violation = { invariant : string; detail : string }

let pp_violation ppf v = Format.fprintf ppf "%s: %s" v.invariant v.detail

type contract = Grouped | Global of float

(* Geometric slack matching Tree.node's constructor check; skew slack
   matching Evaluate.within_bound's default. *)
let geom_tol = 1e-4
let skew_slack = 1e-4

let v invariant fmt = Printf.ksprintf (fun detail -> { invariant; detail }) fmt

let finite_pt p = Float.is_finite p.Pt.x && Float.is_finite p.Pt.y

(* --- structure ----------------------------------------------------------- *)

let structure (inst : Instance.t) (r : Tree.routed) =
  let out = ref [] in
  let add x = out := x :: !out in
  let n = Instance.n_sinks inst in
  let seen = Array.make n 0 in
  let check_edge ~what parent child len =
    if not (Float.is_finite len) then
      add (v "finite-edges" "%s edge length is %g" what len)
    else begin
      if len < 0. then add (v "finite-edges" "%s edge length %g < 0" what len);
      if finite_pt parent && finite_pt child then begin
        let d = Pt.dist parent child in
        if len < d -. geom_tol then
          add
            (v "edge-covers-distance"
               "%s edge length %g < L1 distance %g of its endpoints" what len
               d)
      end
    end
  in
  let rec walk = function
    | Tree.Leaf (s : Sink.t) ->
      if s.id < 0 || s.id >= n then
        add (v "sink-coverage" "leaf sink id %d outside [0, %d)" s.id n)
      else begin
        seen.(s.id) <- seen.(s.id) + 1;
        let orig = inst.sinks.(s.id) in
        (* Group is deliberately not compared: the fused baselines route a
           copy of the instance with all groups collapsed to 0, and
           evaluation looks groups up by sink id in the instance anyway. *)
        if not (Pt.equal s.loc orig.loc && s.cap = orig.cap) then
          add
            (v "sink-coverage" "leaf sink %d differs from the instance's" s.id)
      end
    | Tree.Node nd ->
      if not (finite_pt nd.pos) then
        add (v "finite-edges" "node position %s is not finite" (Pt.to_string nd.pos));
      check_edge ~what:"left" nd.pos (Tree.pos nd.left) nd.llen;
      check_edge ~what:"right" nd.pos (Tree.pos nd.right) nd.rlen;
      walk nd.left;
      walk nd.right
  in
  walk r.tree;
  Array.iteri
    (fun id k ->
      if k = 0 then add (v "sink-coverage" "sink %d is unreachable" id)
      else if k > 1 then
        add (v "sink-coverage" "sink %d appears %d times" id k))
    seen;
  if not (finite_pt r.source) then
    add (v "finite-edges" "source position is not finite");
  check_edge ~what:"source" r.source (Tree.pos r.tree) r.source_len;
  (* The electrical view must be sane too: one pass through the same
     conversion Evaluate and the transient simulator use. *)
  if !out = [] then begin
    let rct, _ = Tree.to_rctree inst.params ~rd:inst.rd ~n_sinks:n r in
    List.iter (fun msg -> add (v "rc-tree" "%s" msg)) (Rc.Rctree.audit rct)
  end;
  List.rev !out

(* --- semantics ----------------------------------------------------------- *)

(* The report must match an independent recomputation bit-for-bit up to a
   tiny relative tolerance (both paths use the identical arithmetic, so in
   practice they agree exactly; the tolerance only guards compiler
   re-association differences). *)
let close a b =
  a = b
  || Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

let semantics (inst : Instance.t) (r : Tree.routed) (rep : Evaluate.report) =
  let out = ref [] in
  let add x = out := x :: !out in
  let n = Instance.n_sinks inst in
  if Array.length rep.delays <> n then
    add
      (v "delays-match" "report has %d delays for %d sinks"
         (Array.length rep.delays) n)
  else begin
    Array.iteri
      (fun i d ->
        if not (Float.is_finite d) then
          add (v "delays-match" "sink %d delay is %g" i d))
      rep.delays;
    let fresh = Evaluate.delays inst r in
    Array.iteri
      (fun i d ->
        if not (close d rep.delays.(i)) then
          add
            (v "delays-match" "sink %d: reported %.17g, recomputed %.17g" i
               rep.delays.(i) d))
      fresh;
    (* Aggregates recomputed from the reported delays themselves. *)
    let min_d = Array.fold_left Float.min Float.infinity rep.delays in
    let max_d = Array.fold_left Float.max Float.neg_infinity rep.delays in
    if not (close min_d rep.min_delay && close max_d rep.max_delay) then
      add (v "skew-aggregates" "min/max delay do not match the delay array");
    if not (close (max_d -. min_d) rep.global_skew) then
      add
        (v "skew-aggregates" "global skew %.17g <> max - min %.17g"
           rep.global_skew (max_d -. min_d));
    if Array.length rep.group_skew <> inst.n_groups then
      add (v "skew-aggregates" "group_skew length mismatch")
    else begin
      let lo = Array.make inst.n_groups Float.infinity in
      let hi = Array.make inst.n_groups Float.neg_infinity in
      Array.iter
        (fun (s : Sink.t) ->
          lo.(s.group) <- Float.min lo.(s.group) rep.delays.(s.id);
          hi.(s.group) <- Float.max hi.(s.group) rep.delays.(s.id))
        inst.sinks;
      Array.iteri
        (fun g w ->
          let expect = if lo.(g) > hi.(g) then 0. else hi.(g) -. lo.(g) in
          if not (close expect w) then
            add
              (v "skew-aggregates" "group %d skew %.17g, recomputed %.17g" g w
                 expect))
        rep.group_skew;
      let max_gs = Array.fold_left Float.max 0. rep.group_skew in
      if not (close max_gs rep.max_group_skew) then
        add (v "skew-aggregates" "max_group_skew does not match group_skew")
    end
  end;
  if not (close (Tree.wirelength r) rep.wirelength) then
    add
      (v "wirelength-match" "reported %.17g, tree has %.17g" rep.wirelength
         (Tree.wirelength r));
  if not (close (Tree.total_snaking r) rep.snaking) then
    add
      (v "wirelength-match" "reported snaking %.17g, tree has %.17g"
         rep.snaking (Tree.total_snaking r));
  List.rev !out

(* --- bound --------------------------------------------------------------- *)

let bound contract (inst : Instance.t) (rep : Evaluate.report) =
  match contract with
  | Grouped ->
    let out = ref [] in
    Array.iteri
      (fun g w ->
        let b = Instance.bound_for inst g in
        if w > b +. skew_slack then
          out :=
            v "within-bound" "group %d skew %.6g ps exceeds bound %g ps" g w b
            :: !out)
      rep.group_skew;
    List.rev !out
  | Global b ->
    if rep.global_skew > b +. skew_slack then
      [ v "within-bound" "global skew %.6g ps exceeds bound %g ps"
          rep.global_skew b ]
    else []

let run contract inst r rep =
  structure inst r @ semantics inst r rep @ bound contract inst rep

(* --- partition cover ------------------------------------------------------ *)

let partition_cover (inst : Instance.t) (regions : int array array) =
  let out = ref [] in
  let add x = out := x :: !out in
  let n = Instance.n_sinks inst in
  if n > 0 && Array.length regions = 0 then
    add (v "partition-cover" "no regions for %d sinks" n);
  let seen = Array.make n 0 in
  Array.iteri
    (fun r ids ->
      if Array.length ids = 0 then
        add (v "partition-nonempty" "region %d is empty" r);
      Array.iter
        (fun id ->
          if id < 0 || id >= n then
            add (v "partition-cover" "region %d holds sink id %d outside [0, %d)" r id n)
          else seen.(id) <- seen.(id) + 1)
        ids)
    regions;
  Array.iteri
    (fun id k ->
      if k = 0 then add (v "partition-cover" "sink %d is in no region" id)
      else if k > 1 then
        add (v "partition-cover" "sink %d is in %d regions" id k))
    seen;
  List.rev !out

(* --- tree equality ------------------------------------------------------- *)

let tree_equal (a : Tree.routed) (b : Tree.routed) =
  let rec eq a b =
    match (a, b) with
    | Tree.Leaf sa, Tree.Leaf sb -> sa.Sink.id = sb.Sink.id
    | Tree.Node na, Tree.Node nb ->
      Pt.equal na.pos nb.pos && na.llen = nb.llen && na.rlen = nb.rlen
      && eq na.left nb.left && eq na.right nb.right
    | _ -> false
  in
  Pt.equal a.source b.source
  && a.source_len = b.source_len
  && eq a.tree b.tree

(* --- a run's own accounts -------------------------------------------------- *)

let journal trace (s : Dme.Engine.stats) =
  let open Obs.Json in
  let rounds =
    List.filter_map
      (function
        | Obj f when List.assoc_opt "type" f = Some (String "round") -> Some f
        | _ -> None)
      (Obs.Trace.journal_records trace)
  in
  let sum key =
    List.fold_left
      (fun n f -> match List.assoc_opt key f with Some (Int i) -> n + i | _ -> n)
      0 rounds
  in
  let events =
    match of_string (to_string (Obs.Trace.to_chrome trace)) with
    | Obj f -> List.assoc_opt "traceEvents" f
    | _ | (exception Parse_error _) -> None
  in
  List.filter_map
    (fun (what, got, want) ->
      if got = want then None
      else Some (v "journal" "%s: journal %d <> engine %d" what got want))
    [
      ("rounds", List.length rounds, s.rounds);
      ("probes", sum "probes", s.nn_reprobes);
      ("nn_queries", sum "nn_queries", s.nn_queries);
      ("trial_merges", sum "trial_merges", s.trial.trial_merges);
      ("trial_elided", sum "trial_elided", s.trial.elided_trials);
    ]
  @
  match events with
  | Some (List (_ :: _)) -> []
  | _ -> [ v "journal" "chrome export does not re-parse with traceEvents" ]

let sched_report ~jobs = function
  | None -> [ v "sched-report" "recorded run yields no report" ]
  | Some (r : Obs.Sched.report) ->
    let s = r.serial_fraction in
    List.concat
      [
        (if r.jobs < 1 || r.jobs > jobs then
           [ v "sched-report" "report claims jobs=%d of %d" r.jobs jobs ]
         else []);
        (if s >= 0. && s <= 1. then []
         else [ v "sched-report" "serial fraction %.17g outside [0,1]" s ]);
        (if r.wall_s >= r.par_wall_s then []
         else
           [
             v "sched-report" "phase walls %.17g < parallel walls %.17g"
               r.wall_s r.par_wall_s;
           ]);
      ]

let clustering (inst : Instance.t) ~clusters ?depth = function
  | None -> [ v "clustering" "run reports no clustering detail" ]
  | Some (d : Dme.Cluster.stats) ->
    let out = ref [] in
    let add x = out := x :: !out in
    let n = Instance.n_sinks inst in
    let k = Int.min clusters (Int.max 1 n) in
    if d.n_clusters <> k then
      add (v "clustering" "%d regions, expected %d" d.n_clusters k);
    let covered = ref 0 in
    Array.iter
      (fun (c : Dme.Cluster.cluster_stats) ->
        covered := !covered + c.n_sinks;
        if c.n_sinks = 0 then
          add (v "clustering" "region %d is empty" c.cluster))
      d.per_cluster;
    if !covered <> n then
      add (v "clustering" "regions cover %d sinks of %d" !covered n);
    (* A forced depth is realized only once the regions can fill it. *)
    (match depth with
     | Some depth when k >= 1 lsl depth ->
       if d.depth <> depth then
         add (v "clustering" "realized depth %d, expected %d" d.depth depth);
       if depth >= 2 && d.super = [||] then
         add (v "clustering" "depth %d reports no super-stitch plans" depth)
     | _ -> ());
    List.rev !out
