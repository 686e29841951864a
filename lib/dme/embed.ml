module Octagon = Geometry.Octagon
module Pt = Geometry.Pt
module Eps = Geometry.Eps
module Tree = Clocktree.Tree
module Arena = Clocktree.Arena

(* The one edge-length formula of the embedding, shared by the serial
   fill, the parallel prefix expansion and the reference walk: committed
   lengths are honoured exactly (shortfall is snaked), shortest-path
   merges consume exactly the planned total, split at the clamped
   distance to the left child. *)
let edge_lengths lengths (p : Pt.t) (pl : Pt.t) (pr : Pt.t) =
  match lengths with
  | Subtree.Committed { ea; eb } ->
    (Float.max ea (Pt.dist p pl), Float.max eb (Pt.dist p pr))
  | Subtree.Split { total; split_lo; split_hi } ->
    let la = Eps.clamp split_lo split_hi (Pt.dist p pl) in
    (Float.max la (Pt.dist p pl), Float.max (total -. la) (Pt.dist p pr))

(* Write one leaf's arena slot.  [size], [left]/[right]/[parent] and
   [len] keep their initial values (1 / -1 / parent-assigned). *)
let emit_leaf (a : Arena.t) v (s : Clocktree.Sink.t) =
  a.Arena.sink.(v) <- s.Clocktree.Sink.id;
  a.Arena.group.(v) <- s.Clocktree.Sink.group;
  a.Arena.scap.(v) <- s.Clocktree.Sink.cap;
  a.Arena.pos.(v) <- s.Clocktree.Sink.loc

(* The explicit stack of {!fill_window}: one frame per node on the path
   from the window's root to the node being visited, so at most the
   plan's height + 1 of them, in parallel arrays doubled on demand. *)
type frames = {
  mutable sub : Subtree.t array;
  mutable p : Pt.t array;
  mutable pr : Pt.t array;
  mutable stage : int array;
  mutable left : int array;
  mutable llen : floatarray;
  mutable rlen : floatarray;
}

let frames sub p =
  let cap = 64 in
  {
    sub = Array.make cap sub;
    p = Array.make cap p;
    pr = Array.make cap p;
    stage = Array.make cap 0;
    left = Array.make cap (-1);
    llen = Float.Array.make cap 0.;
    rlen = Float.Array.make cap 0.;
  }

let grow fr =
  let n = Array.length fr.sub in
  let ext a = Array.append a (Array.make n a.(0)) in
  let extf a = Float.Array.append a (Float.Array.make n 0.) in
  fr.sub <- ext fr.sub;
  fr.p <- ext fr.p;
  fr.pr <- ext fr.pr;
  fr.stage <- ext fr.stage;
  fr.left <- ext fr.left;
  fr.llen <- extf fr.llen;
  fr.rlen <- extf fr.rlen

(* Embed [sub] placed at [p] straight into the arena window ending at
   [base + 2 * n_sinks sub - 2], in post order — index for index what
   [Arena.of_routed] would assign flattening the boxed embedding.
   Iterative like [Arena.of_routed]: an explicit frame stack with the
   same three-visit protocol (descend left, descend right, emit), so
   degenerate 10^5-deep merge plans embed without touching the OCaml
   stack.  Child placements and edge lengths are computed at first
   visit (the children's frames need them) and carried in the frame. *)
let fill_window (a : Arena.t) (sub : Subtree.t) (p : Pt.t) ~base =
  let fr = frames sub p in
  let sp = ref 0 in
  let push sub p =
    if !sp = Array.length fr.sub then grow fr;
    fr.sub.(!sp) <- sub;
    fr.p.(!sp) <- p;
    fr.stage.(!sp) <- 0;
    incr sp
  in
  let next = ref base in
  push sub p;
  while !sp > 0 do
    let f = !sp - 1 in
    match fr.sub.(f).Subtree.build with
    | Subtree.Leaf s ->
      let v = !next in
      incr next;
      decr sp;
      emit_leaf a v s
    | Subtree.Merge { left; right; lengths } ->
      if fr.stage.(f) = 0 then begin
        let p = fr.p.(f) in
        let pl = Octagon.nearest_point left.Subtree.region p in
        let pr = Octagon.nearest_point right.Subtree.region p in
        let llen, rlen = edge_lengths lengths p pl pr in
        fr.pr.(f) <- pr;
        Float.Array.set fr.llen f llen;
        Float.Array.set fr.rlen f rlen;
        fr.stage.(f) <- 1;
        push left pl
      end
      else if fr.stage.(f) = 1 then begin
        fr.left.(f) <- !next - 1;
        fr.stage.(f) <- 2;
        push right fr.pr.(f)
      end
      else begin
        let l = fr.left.(f) and rc = !next - 1 in
        let v = !next in
        incr next;
        decr sp;
        a.Arena.left.(v) <- l;
        a.Arena.right.(v) <- rc;
        a.Arena.parent.(l) <- v;
        a.Arena.parent.(rc) <- v;
        a.Arena.size.(v) <- a.Arena.size.(l) + a.Arena.size.(rc) + 1;
        a.Arena.pos.(v) <- fr.p.(f);
        a.Arena.len.(l) <- Float.Array.get fr.llen f;
        a.Arena.len.(rc) <- Float.Array.get fr.rlen f
      end
  done

(* One worker task of the parallel embedding: a pending subtree, its
   placement point and the start of its (precomputed) arena window. *)
type task = { t_sub : Subtree.t; t_p : Pt.t; t_base : int }

(* Parallel arena fill: walk the top of the plan on the calling domain
   with the exact expressions of [fill_window], but — since a subtree
   with [s] sinks occupies exactly [2s - 1] contiguous slots — every
   prefix node's index and both children's windows are known at visit
   time.  Prefix nodes (the "graft") are therefore emitted immediately;
   pending subtrees become tasks whose disjoint windows the pool's
   domains fill concurrently.  Workers write only inside their window
   (a task's root [len]/[parent] belong to its prefix parent, which the
   caller wrote), so no two domains touch the same array element, and
   every element is computed by the serial expressions from the same
   operands: the arena is bit-identical to the serial fill for any jobs
   count.  The expansion itself is an iterative explicit-stack walk. *)
let embed_parallel pool sched (a : Arena.t) (root : Subtree.t)
    (root_pt : Pt.t) =
  let depth_limit =
    let target = 4 * Par.Pool.jobs pool in
    let d = ref 0 in
    while 1 lsl !d < target do
      incr d
    done;
    !d
  in
  let tasks = ref [] in
  let stack = ref [ (root, root_pt, 0, depth_limit) ] in
  let continue = ref true in
  while !continue do
    match !stack with
    | [] -> continue := false
    | (sub, p, base, depth) :: rest ->
      stack := rest;
      (match sub.Subtree.build with
       | Subtree.Leaf s -> emit_leaf a base s
       | Subtree.Merge _ when depth = 0 ->
         tasks := { t_sub = sub; t_p = p; t_base = base } :: !tasks
       | Subtree.Merge { left; right; lengths } ->
         let pl = Octagon.nearest_point left.Subtree.region p in
         let pr = Octagon.nearest_point right.Subtree.region p in
         let llen, rlen = edge_lengths lengths p pl pr in
         let lsize = (2 * left.Subtree.n_sinks) - 1 in
         let rsize = (2 * right.Subtree.n_sinks) - 1 in
         let l = base + lsize - 1 in
         let rc = base + lsize + rsize - 1 in
         let v = rc + 1 in
         a.Arena.left.(v) <- l;
         a.Arena.right.(v) <- rc;
         a.Arena.parent.(l) <- v;
         a.Arena.parent.(rc) <- v;
         a.Arena.size.(v) <- lsize + rsize + 1;
         a.Arena.pos.(v) <- p;
         a.Arena.len.(l) <- llen;
         a.Arena.len.(rc) <- rlen;
         (* Left on top: tasks and prefix slots are emitted in the
            serial fill's order, though nothing downstream depends on
            it — results land by index, not by gather order. *)
         stack :=
           (left, pl, base, depth - 1)
           :: (right, pr, base + lsize, depth - 1)
           :: !stack)
  done;
  let tasks = Array.of_list (List.rev !tasks) in
  if Array.length tasks = 0 then ()
  else
    let (_ : unit array) =
      Par.Pool.map_chunked pool ~sched ~label:"engine.embed" ~chunk:1
        (fun { t_sub; t_p; t_base } -> fill_window a t_sub t_p ~base:t_base)
        tasks
    in
    ()

let run_arena ?pool ?(run = Obs.Run.null) (inst : Clocktree.Instance.t)
    (root : Subtree.t) =
  let n_sinks = root.Subtree.n_sinks in
  let n = (2 * n_sinks) - 1 in
  let root_pt = Octagon.nearest_point root.Subtree.region inst.source in
  let source_len = Pt.dist inst.source root_pt in
  let a =
    {
      Arena.n;
      n_sinks;
      source = inst.source;
      source_len;
      rd = inst.rd;
      params = inst.params;
      left = Array.make n (-1);
      right = Array.make n (-1);
      parent = Array.make n (-1);
      size = Array.make n 1;
      sink = Array.make n (-1);
      group = Array.make n (-1);
      scap = Array.make n 0.;
      pos = Array.make n inst.source;
      len = Array.make n 0.;
    }
  in
  let body () =
    (match pool with
     | Some pool when Par.Pool.jobs pool > 1 ->
       embed_parallel pool run.Obs.Run.sched a root root_pt
     | _ -> fill_window a root root_pt ~base:0);
    (* The root edge is the source wire, exactly as [Arena.of_routed]
       records it. *)
    a.Arena.len.(n - 1) <- source_len;
    a
  in
  if Obs.Trace.enabled run.trace then
    Obs.Trace.span run.trace ~cat:"dme.embed" "embed" body
  else body ()

(* Executable specification: the original recursive boxed-tree walk,
   kept as the independent reference the arena-direct identity oracle
   and tests compare against.  Goes through [Tree.node], so committed
   lengths are re-checked against child distances.  Recursive — only
   for oracle/test-sized instances; production paths use {!run_arena}. *)
let run_reference (inst : Clocktree.Instance.t) (root : Subtree.t) =
  let rec go (sub : Subtree.t) (p : Pt.t) =
    match sub.Subtree.build with
    | Subtree.Leaf s -> Tree.Leaf s
    | Subtree.Merge { left; right; lengths } ->
      let pl = Octagon.nearest_point left.Subtree.region p in
      let pr = Octagon.nearest_point right.Subtree.region p in
      let llen, rlen = edge_lengths lengths p pl pr in
      Tree.node p (go left pl) (go right pr) ~llen ~rlen
  in
  let root_pt = Octagon.nearest_point root.Subtree.region inst.source in
  Tree.route inst.source (go root root_pt)
