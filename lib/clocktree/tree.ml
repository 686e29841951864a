module Pt = Geometry.Pt

type t =
  | Leaf of Sink.t
  | Node of { pos : Pt.t; left : t; right : t; llen : float; rlen : float }

type routed = { tree : t; source : Pt.t; source_len : float }

let pos = function Leaf s -> s.Sink.loc | Node n -> n.pos
let edge_tol = 1e-4

let node p left right ~llen ~rlen =
  let check name len child =
    let d = Pt.dist p (pos child) in
    if len < d -. edge_tol then
      invalid_arg
        (Format.asprintf "Tree.node: %s length %g < distance %g" name len d)
  in
  check "left" llen left;
  check "right" rlen right;
  Node { pos = p; left; right; llen; rlen }

let route source tree =
  { tree; source; source_len = Pt.dist source (pos tree) }

let rec tree_wirelength = function
  | Leaf _ -> 0.
  | Node n -> n.llen +. n.rlen +. tree_wirelength n.left +. tree_wirelength n.right

let wirelength r = r.source_len +. tree_wirelength r.tree

let total_snaking r =
  let rec go = function
    | Leaf _ -> 0.
    | Node n ->
      let sl = n.llen -. Pt.dist n.pos (pos n.left) in
      let sr = n.rlen -. Pt.dist n.pos (pos n.right) in
      Float.max 0. sl +. Float.max 0. sr +. go n.left +. go n.right
  in
  Float.max 0. (r.source_len -. Pt.dist r.source (pos r.tree)) +. go r.tree

let to_rctree (params : Rc.Wire.params) ~rd ~n_sinks:nsinks r =
  (* RC node 0 models the source end of the source wire; every tree node
     becomes an RC node; each edge is one pi segment: R = r·len with
     c·len/2 lumped at each end. *)
  let specs = ref [] in
  let count = ref 0 in
  let sink_index = Array.make nsinks (-1) in
  let add parent res cap =
    let idx = !count in
    incr count;
    specs := (idx, parent, res, cap) :: !specs;
    idx
  in
  let half len = params.c *. len /. 2. in
  let src_idx = add (-1) 0. (half r.source_len) in
  let rec go parent len t =
    let res = params.r *. len in
    match t with
    | Leaf s ->
      let idx = add parent res (s.Sink.cap +. half len) in
      sink_index.(s.Sink.id) <- idx
    | Node n ->
      let idx = add parent res (half len +. half n.llen +. half n.rlen) in
      go idx n.llen n.left;
      go idx n.rlen n.right
  in
  go src_idx r.source_len r.tree;
  let arr = Array.make !count (-1, 0., 0.) in
  List.iter (fun (i, p, res, cap) -> arr.(i) <- (p, res, cap)) !specs;
  (Rc.Rctree.build ~rd arr, sink_index)
