module Pt = Geometry.Pt
module Octagon = Geometry.Octagon
open Clocktree

let pt = Pt.make
let sink id x y ?(cap = 20.) group = Sink.make ~id ~loc:(pt x y) ~cap ~group

type fig1 = {
  zst_wirelength : float;
  zst_skew : float;
  bst_wirelength : float;
  bst_skew : float;
}

(* A wide two-sink pair (large internal delay) merged with a sink sitting
   right next to their merging segment, using the figure's own topology:
   zero skew must snake the near sink's wire to match the pair's internal
   delay; a 2 ps bound absorbs most of it.  Same instance, same topology
   — only the skew constraint differs, as in Fig. 1. *)
let fig1 () =
  let route bound =
    let sinks =
      [| sink 0 0. 0. 0; sink 1 20000. 0. 0; sink 2 10000. 2000. 0 |]
    in
    let inst =
      Instance.make ~bound ~source:(pt 10000. 1000.) ~n_groups:1 sinks
    in
    let merge id a b =
      (Dme.Merge.run inst ~split_slack:0.25 ~width_cap:0.7 ~id a b)
        .subtree
    in
    let leaf i = Dme.Subtree.leaf inst.sinks.(i) in
    let pair = merge 10 (leaf 0) (leaf 1) in
    let root = merge 11 pair (leaf 2) in
    let a = Dme.Embed.run_arena inst root in
    ignore (Repair.run_arena inst a);
    Evaluate.report_of_arena inst a
  in
  let zst = route 0. in
  let bst = route 2. in
  {
    zst_wirelength = zst.wirelength;
    zst_skew = zst.global_skew;
    bst_wirelength = bst.wirelength;
    bst_skew = bst.global_skew;
  }

type fig2 = { stitched_wirelength : float; associative_wirelength : float }

(* Interleaved groups on a line, as in Fig. 2: rectangles at 0 and 2000,
   circles at 1000 and 3000. *)
let fig2 () =
  let sinks =
    [| sink 0 0. 0. 0; sink 1 1000. 0. 1; sink 2 2000. 0. 0; sink 3 3000. 0. 1 |]
  in
  let inst = Instance.make ~bound:0. ~source:(pt 1500. 0.) ~n_groups:2 sinks in
  (* (a) route each group separately as a zero-skew tree and stitch the
     two roots together at the source. *)
  let route_group g =
    let members =
      Array.of_list
        (List.mapi
           (fun i (s : Sink.t) -> { s with id = i })
           (Instance.group_sinks inst g))
    in
    let sub = Instance.make ~bound:0. ~source:inst.source ~n_groups:1
        (Array.map (fun (s : Sink.t) -> { s with group = 0 }) members)
    in
    let zst = Astskew.Router.(route (Spec.default Greedy_dme) sub) in
    (Arena.to_routed zst.routed).tree
  in
  let a = route_group 0 and b = route_group 1 in
  let stitch =
    Pt.dist inst.source (Tree.pos a) +. Pt.dist inst.source (Tree.pos b)
  in
  let stitched = Tree.tree_wirelength a +. Tree.tree_wirelength b +. stitch in
  (* (b) associative merging on the full instance. *)
  let ast = Astskew.Router.(route (Spec.default Ast_dme) inst) in
  {
    stitched_wirelength = stitched;
    associative_wirelength = Tree.wirelength (Arena.to_routed ast.routed);
  }

type fig3 = {
  region : Octagon.t;
  vertices : Pt.t list;
  distance : float;
}

let fig3 () =
  let sinks =
    [| sink 0 0. 0. 0; sink 1 0. 2000. 0; sink 2 5000. 500. 1; sink 3 5000. 2500. 1 |]
  in
  let inst = Instance.make ~bound:10. ~source:(pt 0. 0.) ~n_groups:2 sinks in
  let merge id a b =
    (Dme.Merge.run inst ~split_slack:0.25 ~width_cap:0.7 ~id a b)
      .subtree
  in
  let leaf i = Dme.Subtree.leaf inst.sinks.(i) in
  let ta = merge 10 (leaf 0) (leaf 1) in
  let tb = merge 11 (leaf 2) (leaf 3) in
  let distance = Octagon.dist ta.region tb.region in
  let merged = merge 12 ta tb in
  {
    region = merged.region;
    vertices = Octagon.vertices merged.region;
    distance;
  }

type fig4 = {
  kind : Dme.Merge.kind;
  merged_groups : int list;
  shared_group_width : float;
}

let fig4 () =
  (* Ta and Td from G0, Tb from G1, Te from G2 (groups 0/1/2 standing in
     for the figure's G1/G2/G3). *)
  let sinks =
    [|
      sink 0 0. 0. 0 (* a *);
      sink 1 800. 0. 1 (* b *);
      sink 2 4000. 0. 0 (* d *);
      sink 3 4800. 0. 2 (* e *);
    |]
  in
  let inst = Instance.make ~bound:10. ~source:(pt 0. 0.) ~n_groups:3 sinks in
  let merge id a b =
    Dme.Merge.run inst ~split_slack:0.25 ~width_cap:0.7 ~id a b
  in
  let leaf i = Dme.Subtree.leaf inst.sinks.(i) in
  let tc = (merge 10 (leaf 0) (leaf 1)).subtree in
  let tf = (merge 11 (leaf 2) (leaf 3)).subtree in
  let r = merge 12 tc tf in
  let width =
    Geometry.Interval.width (Option.get (Dme.Subtree.window r.subtree 0))
  in
  {
    kind = r.kind;
    merged_groups = Dme.Subtree.groups r.subtree;
    shared_group_width = width;
  }

type fig5 = {
  alpha : float;
  beta : float;
  gamma : float;
  residual_51 : float;
  residual_52 : float;
}

let fig5 () =
  let params = Rc.Wire.default in
  let l_cf = 8000. and l_ac = 1500. and l_bc = 2500. in
  let l_df = 1200. and l_ef = 2000. in
  let cap_a = 40. and cap_b = 60. and cap_c = 150. in
  let cap_d = 30. and cap_e = 50. and cap_f = 140. in
  let alpha, beta, gamma =
    Rc.Balance.instance2 params ~l_cf ~l_ac ~l_bc ~l_df ~l_ef ~cap_a ~cap_b
      ~cap_c ~cap_d ~cap_e ~cap_f
  in
  let w len load = Rc.Elmore.wire_delay params ~len ~load in
  let residual_51 =
    w alpha cap_c +. w l_ac cap_a -. (w beta cap_f +. w l_df cap_d)
  in
  let residual_52 =
    w alpha cap_c +. w l_bc cap_b -. (w beta cap_f +. w (gamma +. l_ef) cap_e)
  in
  { alpha; beta; gamma; residual_51; residual_52 }

let print_all () =
  let f1 = fig1 () in
  Format.printf
    "@.Fig 1 (zero-skew vs bounded-skew): ZST wl=%.0f skew=%.2fps | BST wl=%.0f skew=%.2fps | saving %.1f%%@."
    f1.zst_wirelength f1.zst_skew f1.bst_wirelength f1.bst_skew
    (100. *. (f1.zst_wirelength -. f1.bst_wirelength) /. f1.zst_wirelength);
  let f2 = fig2 () in
  Format.printf
    "Fig 2 (stitching vs associative): stitched wl=%.0f | associative wl=%.0f | saving %.1f%%@."
    f2.stitched_wirelength f2.associative_wirelength
    (100.
    *. (f2.stitched_wirelength -. f2.associative_wirelength)
    /. f2.stitched_wirelength);
  let f3 = fig3 () in
  Format.printf
    "Fig 3 (cross-group merging region): child distance %.0f, region %a with %d vertices@."
    f3.distance Octagon.pp f3.region (List.length f3.vertices);
  let f4 = fig4 () in
  Format.printf
    "Fig 4 (instance 1): merge kind %a, association {%s}, shared-group width %.3fps@."
    Dme.Merge.pp_kind f4.kind
    (String.concat ", " (List.map string_of_int f4.merged_groups))
    f4.shared_group_width;
  let f5 = fig5 () in
  Format.printf
    "Fig 5 (instance 2, eqs 5.1-5.3): alpha=%.1f beta=%.1f gamma=%.1f, residuals %.2e / %.2e ps@."
    f5.alpha f5.beta f5.gamma f5.residual_51 f5.residual_52
