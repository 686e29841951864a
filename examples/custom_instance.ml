(* Driving the lower-level engine API directly: build subtrees, inspect
   merging regions and delay windows, choose a custom configuration, and
   embed manually.  Useful as a template for experimenting with new merge
   heuristics.

   Run with: dune exec examples/custom_instance.exe *)

module Pt = Geometry.Pt
module Octagon = Geometry.Octagon
open Clocktree

let () =
  let sink id x y group = Sink.make ~id ~loc:(Pt.make x y) ~cap:30. ~group in
  let sinks =
    [| sink 0 0. 0. 0; sink 1 4000. 0. 0; sink 2 1000. 3000. 1; sink 3 5000. 3000. 1 |]
  in
  let inst = Instance.make ~bound:5. ~source:(Pt.make 2500. 1500.) ~n_groups:2 sinks in
  (* Merge by hand: first within groups, then across.  Each merge is
     recorded in the plan store the embedding reads, under the next id
     (merge ids follow the leaves' and exceed their children's). *)
  let leaves = Array.map Dme.Subtree.leaf inst.sinks in
  let store = Dme.Subtree.store leaves in
  let merge (a : Dme.Subtree.t) (b : Dme.Subtree.t) =
    let id = Dme.Subtree.leaves store + store.merges in
    let r = Dme.Merge.run inst ~split_slack:0.25 ~width_cap:0.7 ~id a b in
    Dme.Subtree.record store r.subtree ~left:a.id ~right:b.id;
    r
  in
  let g0 = merge leaves.(0) leaves.(1) in
  let g1 = merge leaves.(2) leaves.(3) in
  Format.printf "group-0 merge: %a@.  region %a@." Dme.Merge.pp_kind g0.kind
    Octagon.pp g0.subtree.region;
  Format.printf "group-1 merge: %a@.  region %a@." Dme.Merge.pp_kind g1.kind
    Octagon.pp g1.subtree.region;
  let top = merge g0.subtree g1.subtree in
  Format.printf "top merge: %a (no skew constraint between the groups)@."
    Dme.Merge.pp_kind top.kind;
  Format.printf "  merging region (SDR): %a@." Octagon.pp top.subtree.region;
  List.iter
    (fun g ->
      let iv = Option.get (Dme.Subtree.window top.subtree g) in
      Format.printf "  group %d nominal delay window: %a (width %.3f ps)@." g
        Geometry.Interval.pp iv (Geometry.Interval.width iv))
    (Dme.Subtree.groups top.subtree);
  (* Embed, repair, evaluate. *)
  let a = Dme.Embed.run_arena inst (Dme.Subtree.stored store top.subtree) in
  let repair = Repair.run_arena inst a in
  let report = Evaluate.report_of_arena inst a in
  Format.printf "@.embedded: %a@." Evaluate.pp_report report;
  Format.printf "repair: %+.1f wire on %d edges@." repair.added_wire
    repair.adjusted_edges;
  (* And the engine end-to-end with a custom configuration. *)
  let config = { Dme.Engine.default with multi_merge = false; knn = 4 } in
  let spec = Result.get_ok (Astskew.Router.Spec.make ~config Ast_dme) in
  let auto = Astskew.Router.route spec inst in
  Format.printf "engine (single-merge mode): %a@." Evaluate.pp_report
    auto.evaluation
