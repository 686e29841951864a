module Pt = Geometry.Pt
module Instance = Clocktree.Instance
module Sink = Clocktree.Sink
module Tree = Clocktree.Tree
module Evaluate = Clocktree.Evaluate
module Arena = Clocktree.Arena

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

(* The arena's own invariants, read straight off its columns.  Post order
   puts node [u]'s right child at [u - 1] and its left child just below
   the right subtree, at [u - 1 - size (u - 1)]; with both children
   naming [u] as parent, [size u] counting the subtree and the root's
   size [n], the columns hold exactly one binary tree. *)
let columns (inst : Instance.t) (a : Arena.t) =
  let out = ref [] in
  let add x = out := x :: !out in
  let n = a.n and ns = Instance.n_sinks inst in
  let seen = Array.make ns 0 in
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
  for u = 0 to n - 1 do
    let l = a.left.(u) and r = a.right.(u) in
    if not (finite_pt a.pos.(u)) then
      add
        (v "finite-edges" "node %d position %s is not finite" u
           (Pt.to_string a.pos.(u)));
    if l < 0 then begin
      if r >= 0 || a.size.(u) <> 1 then
        add (v "topology" "leaf %d has right child %d and size %d" u r a.size.(u));
      let id = a.sink.(u) in
      if id < 0 || id >= ns then
        add (v "sink-coverage" "leaf sink id %d outside [0, %d)" id ns)
      else begin
        seen.(id) <- seen.(id) + 1;
        let orig = inst.sinks.(id) in
        (* Group is deliberately not compared: the fused baselines route a
           copy of the instance with all groups collapsed to 0, and
           evaluation looks groups up by sink id in the instance anyway. *)
        if not (Pt.equal a.pos.(u) orig.loc && a.scap.(u) = orig.cap) then
          add (v "sink-coverage" "leaf sink %d differs from the instance's" id)
      end
    end
    else if r <> u - 1 then
      add (v "topology" "node %d has right child %d, not %d" u r (u - 1))
    else if l >= r || l <> r - a.size.(r) then
      add (v "topology" "node %d has left child %d, not %d" u l (r - a.size.(r)))
    else begin
      if a.size.(u) <> a.size.(l) + a.size.(r) + 1 then
        add
          (v "topology" "node %d has size %d, its children %d and %d" u
             a.size.(u) a.size.(l) a.size.(r));
      if a.parent.(l) <> u || a.parent.(r) <> u then
        add
          (v "topology" "children of node %d name parents %d and %d" u
             a.parent.(l) a.parent.(r));
      check_edge ~what:(Printf.sprintf "node %d" l) a.pos.(u) a.pos.(l) a.len.(l);
      check_edge ~what:(Printf.sprintf "node %d" r) a.pos.(u) a.pos.(r) a.len.(r)
    end
  done;
  if a.parent.(n - 1) <> -1 || a.size.(n - 1) <> n then
    add
      (v "topology" "root has parent %d and size %d of %d" a.parent.(n - 1)
         a.size.(n - 1) n);
  Array.iteri
    (fun id k ->
      if k = 0 then add (v "sink-coverage" "sink %d is unreachable" id)
      else if k > 1 then
        add (v "sink-coverage" "sink %d appears %d times" id k))
    seen;
  if not (finite_pt a.source) then
    add (v "finite-edges" "source position is not finite");
  check_edge ~what:"source" a.source a.pos.(n - 1) a.source_len;
  List.rev !out

(* The boxed tree and its RC tree: built once per audit, only from an
   arena whose [columns] passed, for the checks that must not share code
   with the arena kernels that produced the report. *)
type view = { routed : Tree.routed; rct : Rc.Rctree.t; sink_index : int array }

let checked (inst : Instance.t) a =
  match columns inst a with
  | [] ->
    let routed = Arena.to_routed a in
    let rct, sink_index =
      Tree.to_rctree inst.params ~rd:inst.rd ~n_sinks:(Instance.n_sinks inst)
        routed
    in
    ([], Some { routed; rct; sink_index })
  | out -> (out, None)

(* The electrical view must be sane too: the conversion the transient
   simulator uses. *)
let rc_tree = function
  | None -> []
  | Some w -> List.map (fun msg -> v "rc-tree" "%s" msg) (Rc.Rctree.audit w.rct)

let structure inst a =
  let out, w = checked inst a in
  out @ rc_tree w

(* --- semantics ----------------------------------------------------------- *)

(* The report must match an independent recomputation bit-for-bit up to a
   tiny relative tolerance (both paths use the identical arithmetic, so in
   practice they agree exactly; the tolerance only guards compiler
   re-association differences). *)
let close a b =
  a = b
  || Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

let semantics_of view (inst : Instance.t) (rep : Evaluate.report) =
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
    Option.iter
      (fun w ->
        let fresh = Rc.Rctree.elmore w.rct in
        Array.iteri
          (fun i idx ->
            let d = fresh.(idx) in
            if not (close d rep.delays.(i)) then
              add
                (v "delays-match" "sink %d: reported %.17g, recomputed %.17g"
                   i rep.delays.(i) d))
          w.sink_index)
      view;
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
  (match view with
   | None ->
     add (v "delays-match" "the tree is malformed; nothing was recomputed")
   | Some w ->
     if not (close (Tree.wirelength w.routed) rep.wirelength) then
       add
         (v "wirelength-match" "reported %.17g, tree has %.17g" rep.wirelength
            (Tree.wirelength w.routed));
     if not (close (Tree.total_snaking w.routed) rep.snaking) then
       add
         (v "wirelength-match" "reported snaking %.17g, tree has %.17g"
            rep.snaking (Tree.total_snaking w.routed)));
  List.rev !out

let semantics inst a rep = semantics_of (snd (checked inst a)) inst rep

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

let run contract inst a rep =
  let out, w = checked inst a in
  out @ rc_tree w @ semantics_of w inst rep @ bound contract inst rep

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
