module Pt = Geometry.Pt

type t = {
  n : int;
  n_sinks : int;
  source : Pt.t;
  source_len : float;
  rd : float;
  params : Rc.Wire.params;
  left : int array;
  right : int array;
  parent : int array;
  size : int array;
  sink : int array;
  group : int array;
  scap : float array;
  pos : Pt.t array;
  len : float array;
}

(* Iterative post-order flatten: an explicit frame stack replaces the
   recursion (degenerate combs reach depths the OCaml stack cannot).
   Each internal node is visited three times: descend left, descend
   right (recording the left subtree's root as the last index emitted),
   then emit itself. *)
let of_routed (params : Rc.Wire.params) ~rd (r : Tree.routed) =
  let n =
    let count = ref 0 in
    let stack = ref [ r.tree ] in
    let continue = ref true in
    while !continue do
      match !stack with
      | [] -> continue := false
      | t :: rest ->
        incr count;
        (match t with
         | Tree.Leaf _ -> stack := rest
         | Tree.Node nd -> stack := nd.left :: nd.right :: rest)
    done;
    !count
  in
  let left = Array.make n (-1) in
  let right = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let size = Array.make n 1 in
  let sink = Array.make n (-1) in
  let group = Array.make n (-1) in
  let scap = Array.make n 0. in
  let pos = Array.make n r.source in
  let len = Array.make n 0. in
  let n_sinks = ref 0 in
  let next = ref 0 in
  (* Frame stack: node, visit stage (0 = fresh, 1 = left done), left
     child's arena index once known. *)
  let st_node = Array.make (n + 1) r.tree in
  let st_stage = Array.make (n + 1) 0 in
  let st_left = Array.make (n + 1) (-1) in
  let sp = ref 0 in
  let push t =
    st_node.(!sp) <- t;
    st_stage.(!sp) <- 0;
    incr sp
  in
  push r.tree;
  while !sp > 0 do
    let f = !sp - 1 in
    match st_node.(f) with
    | Tree.Leaf s ->
      let v = !next in
      incr next;
      decr sp;
      sink.(v) <- s.Sink.id;
      group.(v) <- s.Sink.group;
      scap.(v) <- s.Sink.cap;
      pos.(v) <- s.Sink.loc;
      incr n_sinks
    | Tree.Node nd ->
      if st_stage.(f) = 0 then begin
        st_stage.(f) <- 1;
        push nd.left
      end
      else if st_stage.(f) = 1 then begin
        st_left.(f) <- !next - 1;
        st_stage.(f) <- 2;
        push nd.right
      end
      else begin
        let l = st_left.(f) and rc = !next - 1 in
        let v = !next in
        incr next;
        decr sp;
        left.(v) <- l;
        right.(v) <- rc;
        parent.(l) <- v;
        parent.(rc) <- v;
        size.(v) <- size.(l) + size.(rc) + 1;
        pos.(v) <- nd.pos;
        len.(l) <- nd.llen;
        len.(rc) <- nd.rlen
      end
  done;
  len.(n - 1) <- r.source_len;
  {
    n;
    n_sinks = !n_sinks;
    source = r.source;
    source_len = r.source_len;
    rd;
    params;
    left;
    right;
    parent;
    size;
    sink;
    group;
    scap;
    pos;
    len;
  }

let sink_record a v =
  { Sink.id = a.sink.(v); loc = a.pos.(v); cap = a.scap.(v); group = a.group.(v) }

(* Iterative rebuild: an ascending scan with a value stack.  Post order
   puts the left subtree's value below the right's, so an internal node
   pops right then left. *)
let to_routed a =
  let stack = Array.make a.n (Tree.Leaf (sink_record a 0)) in
  let sp = ref 0 in
  for v = 0 to a.n - 1 do
    let l = a.left.(v) in
    if l < 0 then begin
      stack.(!sp) <- Tree.Leaf (sink_record a v);
      incr sp
    end
    else begin
      let r = a.right.(v) in
      let rt = stack.(!sp - 1) and lt = stack.(!sp - 2) in
      sp := !sp - 2;
      stack.(!sp) <-
        Tree.Node
          {
            pos = a.pos.(v);
            left = lt;
            right = rt;
            llen = a.len.(l);
            rlen = a.len.(r);
          };
      incr sp
    end
  done;
  { Tree.tree = stack.(0); source = a.source; source_len = a.source_len }

(* The pi-segment half-capacitance of an edge, exactly as
   Tree.to_rctree lumps it. *)
let half (p : Rc.Wire.params) len = p.c *. len /. 2.

let[@inline] downstream_rc_node ~into a v =
  let p = a.params in
  let l = a.left.(v) in
  if l < 0 then into.(v) <- a.scap.(v) +. half p a.len.(v)
  else begin
    let r = a.right.(v) in
    (* Rctree.downstream_cap's reverse scan folds the right child in
       before the left (higher indexes first); keep that order. *)
    into.(v) <-
      half p a.len.(v) +. half p a.len.(l) +. half p a.len.(r)
      +. into.(r) +. into.(l)
  end

let downstream_rc_range ~into ~lo ~hi a =
  for v = lo to hi do
    downstream_rc_node ~into a v
  done

let downstream_rc ~into a =
  downstream_rc_range ~into ~lo:0 ~hi:(a.n - 1) a;
  half a.params a.source_len +. into.(a.n - 1)

(* The one descending Elmore fill: each node of [lo, hi] from its
   parent's delay, which lies above the range or is already filled. *)
let elmore_fill ~down ~into ~lo ~hi a =
  let k = Rc.Wire.ps_per_ohm_ff and r = a.params.r in
  let parent = a.parent and len = a.len in
  for v = hi downto lo do
    into.(v) <- into.(parent.(v)) +. (k *. (r *. len.(v)) *. down.(v))
  done

let elmore_range ~down ~root_delay ~into ~lo ~hi a =
  into.(hi) <- root_delay;
  elmore_fill ~down ~into ~lo ~hi:(hi - 1) a

(* The root's delay: the driver term over the whole load [down0], then
   the root edge. *)
let driver_root_delay ~down ~down0 a =
  let k = Rc.Wire.ps_per_ohm_ff in
  let d0 = k *. a.rd *. down0 in
  let root = a.n - 1 in
  d0 +. (k *. (a.params.r *. a.len.(root)) *. down.(root))

let root_delay ~down a =
  let down0 = half a.params a.source_len +. down.(a.n - 1) in
  driver_root_delay ~down ~down0 a

let elmore ~down ~down0 ~into a =
  let root_delay = driver_root_delay ~down ~down0 a in
  elmore_range ~down ~root_delay ~into ~lo:0 ~hi:(a.n - 1) a

let delays_by_sink ~delay ~into a =
  for v = 0 to a.n - 1 do
    if a.left.(v) < 0 then into.(a.sink.(v)) <- delay.(v)
  done

(* --- repair windows ---------------------------------------------------- *)

(* Disjoint maximal subtrees of at most [ceil (n / count)] nodes (with at
   least one merge node), returned as ascending contiguous index ranges:
   the repair pass's regional fixpoints and the windows of its global
   cycle.  A pure function of the tree shape and [count], never of the
   jobs count, so work split along these windows is reproducible for any
   parallelism.  The root is never inside a window (its subtree is the
   whole arena), so the residual "spine" — every node outside all
   windows — always contains it.  [count < 2] yields no windows.  The
   default [count] is the shared region density target, capped at 64. *)
let windows ?count a =
  let k =
    match count with
    | Some k -> Int.max 1 k
    | None -> Int.min 64 (Instance.auto_regions a.n_sinks)
  in
  if k < 2 then [||]
  else begin
    let threshold = (a.n + k - 1) / k in
    let out = ref [] in
    for v = a.n - 1 downto 0 do
      if
        a.size.(v) <= threshold
        && a.size.(v) >= 3
        && a.parent.(v) >= 0
        && a.size.(a.parent.(v)) > threshold
      then out := v :: !out
    done;
    Array.of_list
      (List.map (fun root -> (root - a.size.(root) + 1, root)) !out)
  end

let wirelength a =
  let w = Array.make a.n 0. in
  for v = 0 to a.n - 1 do
    let l = a.left.(v) in
    if l >= 0 then begin
      let r = a.right.(v) in
      w.(v) <- a.len.(l) +. a.len.(r) +. w.(l) +. w.(r)
    end
  done;
  a.source_len +. w.(a.n - 1)

let total_snaking a =
  let s = Array.make a.n 0. in
  for v = 0 to a.n - 1 do
    let l = a.left.(v) in
    if l >= 0 then begin
      let r = a.right.(v) in
      let sl = a.len.(l) -. Pt.dist a.pos.(v) a.pos.(l) in
      let sr = a.len.(r) -. Pt.dist a.pos.(v) a.pos.(r) in
      s.(v) <- Float.max 0. sl +. Float.max 0. sr +. s.(l) +. s.(r)
    end
  done;
  Float.max 0. (a.source_len -. Pt.dist a.source a.pos.(a.n - 1))
  +. s.(a.n - 1)
