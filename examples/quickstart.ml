(* Quickstart: build a small associative-skew instance by hand, route it
   with all three routers and print the comparison.

   Run with: dune exec examples/quickstart.exe *)

module Pt = Geometry.Pt
open Clocktree

let () =
  (* 12 flip-flops in two clock domains scattered over a 20x20 mm die.
     Skew matters only between sequentially-adjacent registers, i.e.
     within each domain. *)
  let sinks =
    [|
      (* domain 0 *)
      (1000., 2000., 0); (6000., 1000., 0); (11000., 3000., 0);
      (16000., 2500., 0); (3000., 9000., 0); (14000., 11000., 0);
      (* domain 1 *)
      (2000., 16000., 1); (8000., 18000., 1); (15000., 17000., 1);
      (5000., 12000., 1); (12000., 14000., 1); (18000., 9000., 1);
    |]
    |> Array.mapi (fun id (x, y, group) ->
           Sink.make ~id ~loc:(Pt.make x y) ~cap:35. ~group)
  in
  let inst =
    Instance.make
      ~bound:10. (* 10 ps intra-domain skew bound *)
      ~source:(Pt.make 10000. 10000.)
      ~n_groups:2 sinks
  in
  Format.printf "Instance: %a@.@." Instance.pp inst;
  let show name (r : Astskew.Router.result) =
    Format.printf "%-11s wirelength %8.0f | global skew %6.2f ps | max intra-group skew %5.2f ps@."
      name r.evaluation.wirelength r.evaluation.global_skew
      r.evaluation.max_group_skew
  in
  let route algorithm = Astskew.Router.(route (Spec.default algorithm) inst) in
  let zst = route Greedy_dme in
  let ext = route Ext_bst in
  let ast = route Ast_dme in
  show "greedy-DME" zst;
  show "EXT-BST" ext;
  show "AST-DME" ast;
  Format.printf "@.AST-DME saves %.1f%% wire vs EXT-BST and %.1f%% vs greedy-DME,@."
    (100. *. Astskew.Router.reduction ~baseline:ext ast)
    (100. *. Astskew.Router.reduction ~baseline:zst ast);
  Format.printf "while keeping each domain's internal skew within the 10 ps bound.@."
