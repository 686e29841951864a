module Octagon = Geometry.Octagon
module Octslab = Geometry.Octslab
module Pt = Geometry.Pt
module Eps = Geometry.Eps
module Tree = Clocktree.Tree
module Arena = Clocktree.Arena

(* The reference's edge lengths of merge slot [m] placed at [p] with
   its children at [pl] and [pr]: committed lengths are honoured exactly
   (shortfall is snaked), shortest-path merges consume exactly the
   planned total, split at the clamped distance to the left child. *)
let edge_lengths (st : Subtree.store) m (p : Pt.t) (pl : Pt.t) (pr : Pt.t) =
  let f i = Float.Array.get st.lengths ((3 * m) + i) in
  if Bytes.get st.rule m = 'c' then
    (Float.max (f 0) (Pt.dist p pl), Float.max (f 1) (Pt.dist p pr))
  else
    let la = Eps.clamp (f 1) (f 2) (Pt.dist p pl) in
    (Float.max la (Pt.dist p pl), Float.max (f 0 -. la) (Pt.dist p pr))

(* The placed point, [p] itself when the nearest-point kernel kept it. *)
let placed inside (p : Pt.t) xy =
  if inside then p
  else { Pt.x = Float.Array.unsafe_get xy 0; y = Float.Array.unsafe_get xy 1 }

(* One window of the embedding: store [st], its root placed at [p] and
   written at arena slot [top]. *)
type task = { st : Subtree.store; p : Pt.t; top : int }

(* Place child [c] of [st] at slot [sc] below the point [q], its point
   written to [xy]: a merge gets its slot and its point in the arena, a
   sink its slot's fields ([size], [left], [right] and [len] keep their
   initial or parent-assigned values), a sub-plan becomes a task.  Each
   placement is [Octagon.nearest_point]'s kernel on the child's region:
   the merge's slab slot, the sink's point, the sub-plan's root. *)
let place (a : Arena.t) (st : Subtree.store) slot c sc q xy tasks =
  let nl = Subtree.leaves st in
  if c >= nl then begin
    let inside = Octslab.nearest st.bounds (c - nl) q xy in
    a.pos.(sc) <- placed inside q xy;
    slot.(c - nl) <- sc
  end
  else if Array.length st.sinks > 0 then begin
    let s = st.sinks.(c) in
    ignore (Octagon.point_nearest s.loc q xy : bool);
    a.sink.(sc) <- s.id;
    a.group.(sc) <- s.group;
    a.scap.(sc) <- s.cap;
    a.pos.(sc) <- s.loc
  end
  else begin
    let sub = st.subs.(c) in
    let inside = Octagon.nearest_into (Subtree.region sub (Subtree.root sub)) q xy in
    tasks := { st = sub; p = placed inside q xy; top = sc } :: !tasks
  end

(* [Pt.dist q] of the point in [xy]. *)
let[@inline] dist (q : Pt.t) xy =
  Float.abs (q.x -. Float.Array.unsafe_get xy 0)
  +. Float.abs (q.y -. Float.Array.unsafe_get xy 1)

(* Embed one task in post order, index for index what [Arena.of_routed]
   would assign flattening the boxed embedding, and return its
   sub-plan leaves as tasks.  Ids descend from the root, so a merge's
   slot and placement are known before it is visited: its parent wrote
   them.  The right child's window ends just below the merge, the left
   child's just below the right's, [2 s - 1] slots each for [s] sinks.
   No stack, no recursion. *)
let fill (a : Arena.t) { st; p; top } =
  let nm = st.merges in
  let xy = Float.Array.create 2 in
  let tasks = ref [] in
  let slot = Array.make nm top in
  (* A one-leaf store is its leaf, already placed at [p]. *)
  if nm > 0 then a.pos.(top) <- p
  else if Array.length st.subs > 0 then tasks := [ { st = st.subs.(0); p; top } ]
  else place a st slot 0 top p xy tasks;
  for m = nm - 1 downto 0 do
    let v = slot.(m) and l = st.kids.(2 * m) and r = st.kids.((2 * m) + 1) in
    let q = a.pos.(v) and sr = v - 1 in
    let sl = sr - ((2 * Subtree.sinks_at st r) - 1) in
    place a st slot l sl q xy tasks;
    let dl = dist q xy in
    place a st slot r sr q xy tasks;
    let dr = dist q xy in
    let o = 3 * m in
    let f0 = Float.Array.unsafe_get st.lengths o in
    let f1 = Float.Array.unsafe_get st.lengths (o + 1) in
    if Bytes.unsafe_get st.rule m = 'c' then begin
      a.len.(sl) <- Eps.fmax f0 dl;
      a.len.(sr) <- Eps.fmax f1 dr
    end
    else begin
      let la = Eps.clamp f1 (Float.Array.unsafe_get st.lengths (o + 2)) dl in
      a.len.(sl) <- Eps.fmax la dl;
      a.len.(sr) <- Eps.fmax (f0 -. la) dr
    end;
    a.left.(v) <- sl;
    a.right.(v) <- sr;
    a.parent.(sl) <- v;
    a.parent.(sr) <- v;
    a.size.(v) <- (2 * st.n_sinks.(m)) - 1
  done;
  Array.of_list (List.rev !tasks)

let run_arena ?pool ?(run = Obs.Run.null) (inst : Clocktree.Instance.t)
    (root : Subtree.t) =
  let st = Subtree.store_of root in
  let n_sinks = root.n_sinks in
  let n = (2 * n_sinks) - 1 in
  let root_pt = Octagon.nearest_point root.region inst.source in
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
      pos = Array.make n Pt.zero;
      len = Array.make n 0.;
    }
  in
  (* Level by level: the plan's own store, then the sub-plans its leaves
     hold (one pool task each), then theirs.  Tasks write disjoint
     windows, and every element is the serial expression of the same
     operands, so the arena is the same for any pool. *)
  let rec drain tasks =
    if Array.length tasks > 0 then
      drain
        (Array.concat
           (Array.to_list
              (Par.Pool.map_each pool ~sched:run.sched ~label:"engine.embed" (fill a)
                 tasks)))
  in
  let body () =
    drain [| { st; p = root_pt; top = n - 1 } |];
    (* The root edge is the source wire, exactly as [Arena.of_routed]
       records it. *)
    a.len.(n - 1) <- source_len;
    a
  in
  if Obs.Trace.enabled run.trace then
    Obs.Trace.span run.trace ~cat:"dme.embed" "embed" body
  else body ()

(* Executable specification: the recursive boxed-tree walk over the
   store, with [Octagon.nearest_point] on each child's region, kept as
   the independent reference the arena-direct identity oracle and tests
   compare against.  Goes through [Tree.node], so committed lengths are
   re-checked against child distances.  Recursive — only for
   oracle/test-sized instances; production paths use {!run_arena}. *)
let run_reference (inst : Clocktree.Instance.t) (root : Subtree.t) =
  let rec go (st : Subtree.store) id (p : Pt.t) =
    let nl = Subtree.leaves st in
    if id >= nl then begin
      let m = id - nl in
      let l = st.kids.(2 * m) and r = st.kids.((2 * m) + 1) in
      let pl = Octagon.nearest_point (Subtree.region st l) p in
      let pr = Octagon.nearest_point (Subtree.region st r) p in
      let llen, rlen = edge_lengths st m p pl pr in
      Tree.node p (go st l pl) (go st r pr) ~llen ~rlen
    end
    else if Array.length st.sinks > 0 then Tree.Leaf st.sinks.(id)
    else
      let sub = st.subs.(id) in
      go sub (Subtree.root sub) p
  in
  let st = Subtree.store_of root in
  let root_pt = Octagon.nearest_point root.region inst.source in
  Tree.route inst.source (go st (Subtree.root st) root_pt)
