module Eps = Geometry.Eps

type config = {
  max_cycles : int;
  jobs : int;
  incremental : bool;
  regions : int option;
}

let default_config =
  {
    max_cycles = 300;
    jobs = Par.Pool.default_jobs ();
    incremental = true;
    regions = None;
  }

type stats = {
  added_wire : float;
  adjusted_edges : int;
  conflict_nodes : int;
  lift_iterations : int;
  unresolved_groups : int;
  cycles : int;
  budget_exhausted : bool;
  delays : float array;
}

(* A growable int stack: worklist heaps, dirty seeds, processed lists,
   adjustment logs. *)
type ivec = { mutable data : int array; mutable len : int }

let ivec () = { data = Array.make 64 0; len = 0 }

let ivec_reserve q =
  if q.len = Array.length q.data then begin
    let d = Array.make (2 * q.len) 0 in
    Array.blit q.data 0 d 0 q.len;
    q.data <- d
  end

let ivec_push q x =
  ivec_reserve q;
  q.data.(q.len) <- x;
  q.len <- q.len + 1

(* Balancing needs, per node, the per-group interval of sink delays
   measured from that node: a slab, one (gid, lo, hi) entry per group
   below the node, sorted by gid.  A node's group set is fixed by the
   topology, so [make_state] lays every slab out once, in ascending node
   order, at a fixed offset of three flat columns holding exactly the
   live slabs: [sg] is written there once and every balance visit
   rewrites the node's [slo]/[shi] entries in place.  Windows are
   disjoint index ranges, so workers balancing different windows write
   disjoint entries. *)
type state = {
  a : Arena.t;
  slack : float;
  bound : float array;  (** per-group skew bound *)
  bcap : float array;  (** memoized downstream capacitance *)
  goff : int array;  (** node [v]'s slab: entries [goff.(v), goff.(v + 1)) *)
  sg : int array;  (** slab entry group *)
  slo : float array;  (** slab entry min / max sink delay *)
  shi : float array;
  dw : float array;  (** wire added to edge [v] by its latest adjustment *)
  dirty : Bytes.t;  (** must be re-balanced next pass *)
  changed : Bytes.t;  (** lift scratch: cap changed this sweep *)
  visited : Bytes.t;  (** balanced at least once (conflict accounting) *)
  queued : Bytes.t;  (** currently on a worklist heap *)
  down : float array;
  delay : float array;
  pg : int array;  (** pure group, -1 when mixed (fixed topology) *)
  md : float array;  (** lift: min deficit over subtree sinks *)
  amount : float array;
  carry : float array;
}

(* Ascending min-heap of node indexes over an [ivec]; [queued] keeps
   each node on it at most once. *)
let heap_push st h v =
  if Bytes.unsafe_get st.queued v = '\000' then begin
    Bytes.unsafe_set st.queued v '\001';
    ivec_reserve h;
    let d = h.data in
    let i = ref h.len in
    h.len <- h.len + 1;
    while !i > 0 && d.((!i - 1) / 2) > v do
      d.(!i) <- d.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    d.(!i) <- v
  end

let heap_pop st h =
  let d = h.data in
  let top = d.(0) in
  let n = h.len - 1 in
  h.len <- n;
  let x = d.(n) in
  let i = ref 0 and continue = ref (n > 0) in
  while !continue do
    let c = (2 * !i) + 1 in
    if c >= n then continue := false
    else begin
      let c = if c + 1 < n && d.(c + 1) < d.(c) then c + 1 else c in
      if d.(c) < x then begin
        d.(!i) <- d.(c);
        i := c
      end
      else continue := false
    end
  done;
  if n > 0 then d.(!i) <- x;
  Bytes.unsafe_set st.queued top '\000';
  top

(* One fixpoint's index range and worklists.  A work owns the nodes of
   [lo, hi] outside its [subs] — windows nested in the range that keep
   their own worklists, so that they can run on worker domains; a
   regional fixpoint has none, and the global cycle's spine work holds
   the windows.  The maximal group-pure subtrees below [top] are fixed
   by the topology, so they are found once: every pure node lies in one
   of them, and every mixed node carries 0 in the lift.  A work lists
   those rooted at its own nodes; in an intermingled tree nearly all are
   lone sinks, kept apart so their loop has no leaf test. *)
type work = {
  lo : int;
  hi : int;
  subs : work array;  (** nested windows, ascending *)
  heap : ivec;
  seeds : ivec;  (** dirty merge nodes: the next sparse balance's seeds *)
  proc : ivec;  (** nodes balanced this pass, ascending *)
  log : ivec;  (** child edges adjusted this pass, in processing order *)
  mutable conflicts : int;
  sinks : int array;  (** the work's leaves, ascending *)
  lone : int array;  (** leaves that are maximal pure subtrees *)
  pure : int array;  (** roots of the other maximal pure subtrees *)
  glo : float array;  (** per group: min / max sink delay, lift target *)
  ghi : float array;
  target : float array;
  step : float array;  (** per group: the lift's step, shared with the subs *)
  mutable fresh : bool;  (** [down] not yet computed on the work's nodes *)
}

(* [f lo' hi'] on each maximal index range of [lo, hi] outside [subs]. *)
let gaps subs ~lo ~hi f =
  let next =
    Array.fold_left
      (fun i s ->
        if i < s.lo then f i (s.lo - 1);
        s.hi + 1)
      lo subs
  in
  if next <= hi then f next hi

let make_work st ~lo ~hi ~top ~step subs =
  let a = st.a in
  let seeds = ivec () and sinks = ivec () in
  let lone = ivec () and pure = ivec () in
  gaps subs ~lo ~hi (fun lo hi ->
      for v = lo to hi do
        let leaf = a.Arena.left.(v) < 0 in
        if leaf then ivec_push sinks v
        else if Bytes.get st.dirty v = '\001' then ivec_push seeds v;
        if v < top && st.pg.(v) >= 0 then begin
          let p = a.Arena.parent.(v) in
          if p = top || st.pg.(p) < 0 then
            ivec_push (if leaf then lone else pure) v
        end
      done);
  let g = Array.length st.bound in
  let frozen q = Array.sub q.data 0 q.len in
  {
    lo;
    hi;
    subs;
    heap = ivec ();
    seeds;
    proc = ivec ();
    log = ivec ();
    conflicts = 0;
    sinks = frozen sinks;
    lone = frozen lone;
    pure = frozen pure;
    glo = Array.make g Float.infinity;
    ghi = Array.make g Float.neg_infinity;
    target = Array.make g Float.neg_infinity;
    step;
    fresh = true;
  }

(* The work whose worklists hold node [v]: the sub containing it, else
   [w] itself. *)
let owner w v =
  let subs = w.subs in
  let i = ref 0 and j = ref (Array.length subs) in
  while !i < !j do
    let m = (!i + !j) / 2 in
    if subs.(m).hi < v then i := m + 1 else j := m
  done;
  if !i < Array.length subs && subs.(!i).lo <= v then subs.(!i) else w

(* Record an adjustment of edge [c] that added [d] wire; [replay] sums
   the log. *)
let[@inline] adjusted st w c d =
  st.dw.(c) <- d;
  ivec_push w.log c

(* Balance one merge node: replicate the pointer-walk expressions
   operation for operation (see the old balance_pass) so the arena pass
   is bit-identical to it.  Returns whether one of the node's child
   edges was adjusted. *)
let process_internal st w v ~count_conflicts =
  let a = st.a in
  let params = a.Arena.params in
  let sg = st.sg and slo = st.slo and shi = st.shi in
  let l = a.Arena.left.(v) and r = a.Arena.right.(v) in
  let cap_l = st.bcap.(l) and cap_r = st.bcap.(r) in
  let llen0 = a.Arena.len.(l) and rlen0 = a.Arena.len.(r) in
  let wl0 = Rc.Elmore.wire_delay params ~len:llen0 ~load:cap_l in
  let wr0 = Rc.Elmore.wire_delay params ~len:rlen0 ~load:cap_r in
  let l_off = st.goff.(l) and l_len = st.goff.(l + 1) - st.goff.(l) in
  let r_off = st.goff.(r) and r_len = st.goff.(r + 1) - st.goff.(r) in
  (* Admissible x = delta_left - delta_right: intersect, in ascending
     group order, one interval per group spanning both children.  Exact
     max/min make the intersection order-independent; ascending order
     still mirrors the old IntMap.fold. *)
  let acc_lo = ref Float.neg_infinity and acc_hi = ref Float.infinity in
  let j = ref 0 in
  for i = 0 to l_len - 1 do
    let g = sg.(l_off + i) in
    while !j < r_len && sg.(r_off + !j) < g do
      incr j
    done;
    if !j < r_len && sg.(r_off + !j) = g then begin
      let bound = st.bound.(g) in
      let llo = slo.(l_off + i) and lhi = shi.(l_off + i) in
      let rlo = slo.(r_off + !j) and rhi = shi.(r_off + !j) in
      let lo = rhi +. wr0 -. bound -. (llo +. wl0) in
      let hi = bound +. rlo +. wr0 -. (lhi +. wl0) in
      acc_lo := Eps.fmax !acc_lo lo;
      acc_hi := Eps.fmin !acc_hi hi
    end
  done;
  (* The conflict midpoint, else the feasible shift nearest 0. *)
  let x =
    if !acc_lo > !acc_hi +. Eps.tol then begin
      if count_conflicts then w.conflicts <- w.conflicts + 1;
      (!acc_lo +. !acc_hi) /. 2.
    end
    else Eps.clamp !acc_lo !acc_hi 0.
  in
  let delta_l = Eps.fmax 0. x and delta_r = Eps.fmax 0. (-.x) in
  (* Lengthen each child edge by its delta.  The skip floor is relative
     to the edge delay: at extreme RC corners delays reach ~1e9 ps,
     where an absolute 1e-9 ps floor sits far below one ulp and a
     repeated pass would chase its own recomputation noise, adjusting
     edges forever.  64 ulps stays well under the acceptance slack
     Evaluate.default_slack for any delay magnitude the acceptance check
     can resolve.  An adjustment whose resulting length is bit-identical is
     dropped as the no-op it is. *)
  let llen = ref llen0 and wl = ref wl0 in
  if not (delta_l <= Eps.fmax 1e-9 (64. *. epsilon_float *. Float.abs wl0))
  then begin
    let len' = Rc.Elmore.wire_for_delay params ~load:cap_l ~delay:(wl0 +. delta_l) in
    if len' <> llen0 then begin
      adjusted st w l (len' -. llen0);
      llen := len';
      wl := wl0 +. delta_l
    end
  end;
  let rlen = ref rlen0 and wr = ref wr0 in
  if not (delta_r <= Eps.fmax 1e-9 (64. *. epsilon_float *. Float.abs wr0))
  then begin
    let len' = Rc.Elmore.wire_for_delay params ~load:cap_r ~delay:(wr0 +. delta_r) in
    if len' <> rlen0 then begin
      adjusted st w r (len' -. rlen0);
      rlen := len';
      wr := wr0 +. delta_r
    end
  end;
  let llen = !llen and rlen = !rlen and wl = !wl and wr = !wr in
  a.Arena.len.(l) <- llen;
  a.Arena.len.(r) <- rlen;
  st.bcap.(v) <- cap_l +. cap_r +. (params.Rc.Wire.c *. (llen +. rlen));
  (* Merged slab, in place: shift the children by their (possibly
     extended) edge delays and hull the common groups. *)
  let i = ref 0 and jj = ref 0 in
  for out = st.goff.(v) to st.goff.(v + 1) - 1 do
    let gl = if !i < l_len then sg.(l_off + !i) else max_int in
    let gr = if !jj < r_len then sg.(r_off + !jj) else max_int in
    if gl < gr then begin
      slo.(out) <- slo.(l_off + !i) +. wl;
      shi.(out) <- shi.(l_off + !i) +. wl;
      incr i
    end
    else if gr < gl then begin
      slo.(out) <- slo.(r_off + !jj) +. wr;
      shi.(out) <- shi.(r_off + !jj) +. wr;
      incr jj
    end
    else begin
      slo.(out) <- Eps.fmin (slo.(l_off + !i) +. wl) (slo.(r_off + !jj) +. wr);
      shi.(out) <- Eps.fmax (shi.(l_off + !i) +. wl) (shi.(r_off + !jj) +. wr);
      incr i;
      incr jj
    end
  done;
  llen <> llen0 || rlen <> rlen0

let mark_dirty st w v =
  if Bytes.unsafe_get st.dirty v = '\000' then begin
    Bytes.unsafe_set st.dirty v '\001';
    ivec_push w.seeds v
  end

let balance_node st w v =
  let count_conflicts = Bytes.unsafe_get st.visited v = '\000' in
  if count_conflicts then Bytes.unsafe_set st.visited v '\001';
  let self = process_internal st w v ~count_conflicts in
  ivec_push w.proc v;
  Bytes.unsafe_set st.dirty v '\000';
  if self then mark_dirty st w v

(* Sparse balance of [w]'s own nodes: an ascending heap seeded with its
   dirty nodes, pushing the parent of every balanced node below
   [w.hi]. *)
let balance_heap st w =
  for i = 0 to w.seeds.len - 1 do
    heap_push st w.heap w.seeds.data.(i)
  done;
  w.seeds.len <- 0;
  while w.heap.len > 0 do
    let v = heap_pop st w.heap in
    balance_node st w v;
    if v < w.hi then heap_push st w.heap st.a.Arena.parent.(v)
  done

(* Downstream caps of [w]'s own nodes: all of them on the first call
   (and of the sub roots, whose edges [w] balances), afterwards only at
   the nodes balanced this pass and their children (every length that
   changed since the last evaluation hangs below one of them). *)
let caps st w =
  let a = st.a in
  if w.fresh then begin
    Array.iter (fun s -> Arena.downstream_rc_node ~into:st.down a s.hi) w.subs;
    gaps w.subs ~lo:w.lo ~hi:w.hi (fun lo hi ->
        Arena.downstream_rc_range ~into:st.down ~lo ~hi a)
  end
  else
    for i = 0 to w.proc.len - 1 do
      let v = w.proc.data.(i) in
      Arena.downstream_rc_node ~into:st.down a a.Arena.left.(v);
      Arena.downstream_rc_node ~into:st.down a a.Arena.right.(v);
      Arena.downstream_rc_node ~into:st.down a v
    done;
  w.fresh <- false

(* One balance pass; returns the number of nodes balanced.  Dense (the
   from-scratch reference): every merge node of the range, ascending.
   Sparse: an ascending heap seeded with the dirty nodes, pushing the
   parent of every balanced node.  A node's inputs change only when its
   own edges changed (dirty) or a child was rebalanced, so the sparse
   pass balances exactly the nodes whose memo may be stale, and skipping
   the rest is exact.  Balancing a node reads only its subtree, so the
   subs balance first — through [par], each followed by its own caps
   (only a window root's own edge can change later, and [w]'s caps
   refresh that node) — and a sub root
   balanced this pass hands its parent to [w]'s heap: every node sees
   the inputs the ascending walk of the whole range would give it. *)
let balance st w ~dense ~par =
  let start s =
    s.proc.len <- 0;
    s.log.len <- 0
  in
  start w;
  if dense then begin
    w.seeds.len <- 0;
    for v = w.lo to w.hi do
      if st.a.Arena.left.(v) >= 0 then balance_node st w v
    done
  end
  else begin
    par
      (fun s ->
        start s;
        balance_heap st s;
        caps st s)
      w.subs;
    Array.iter
      (fun s ->
        let p = s.proc in
        if p.len > 0 && p.data.(p.len - 1) = s.hi then
          heap_push st w.heap st.a.Arena.parent.(s.hi))
      w.subs;
    balance_heap st w
  end;
  Array.fold_left (fun k s -> k + s.proc.len) w.proc.len w.subs

(* The wire of this pass's adjustments summed onto [init] in the order
   of the ascending walk of [w]'s whole range: by the adjusted edge's
   parent, left edge first.  Each log is in that order, a sub's nodes
   form one contiguous range, and each of [w]'s own nodes falls before
   or after that range as a whole, so merging the logs by parent index
   keeps every float sum bit-identical for any schedule. *)
let replay st w init =
  let dw = st.dw and parent = st.a.Arena.parent in
  let own = w.log in
  let s = ref init and k = ref 0 in
  for i = 0 to Array.length w.subs - 1 do
    let sub = w.subs.(i) in
    while !k < own.len && parent.(own.data.(!k)) < sub.lo do
      s := !s +. dw.(own.data.(!k));
      incr k
    done;
    for j = 0 to sub.log.len - 1 do
      s := !s +. dw.(sub.log.data.(j))
    done
  done;
  for j = !k to own.len - 1 do
    s := !s +. dw.(own.data.(j))
  done;
  !s

(* Edges adjusted this pass. *)
let logged w = Array.fold_left (fun k s -> k + s.log.len) w.log.len w.subs

(* Delay of the range root: from the source driver for the whole tree,
   0 for a region (intra-region skews are offset-free; no region holds
   the tree root). *)
let root_delay st w =
  if w.hi = st.a.Arena.n - 1 then Arena.root_delay ~down:st.down st.a else 0.

(* Fold the sink delays of [sinks] into [w]'s per-group lo / hi. *)
let note_sinks st w sinks =
  let group = st.a.Arena.group and delay = st.delay in
  let glo = w.glo and ghi = w.ghi in
  for i = 0 to Array.length sinks - 1 do
    let v = sinks.(i) in
    let g = group.(v) and d = delay.(v) in
    glo.(g) <- Eps.fmin glo.(g) d;
    ghi.(g) <- Eps.fmax ghi.(g) d
  done

let reset_groups w =
  Array.fill w.glo 0 (Array.length w.glo) Float.infinity;
  Array.fill w.ghi 0 (Array.length w.ghi) Float.neg_infinity

(* Downstream caps, node delays and the per-group sink-delay lo / hi /
   lift target over the range.  Dense: the Arena kernels over the whole
   range.  Sparse: [w]'s own caps (the subs refreshed theirs in the
   balance pass) and the Elmore sweep of [w]'s own nodes, descending
   gap by gap (a spine node's parent is a spine node); then, through
   [par], each sub fills its nodes from its root's spine parent and
   scans its own sinks; last, [w]'s sinks and the subs' group ranges
   fold into [w]'s.  Exact min / max make the fold order-free, so the
   ranges keep their bits for any schedule. *)
let evaluate st w ~dense ~par =
  let a = st.a in
  let lo = w.lo and hi = w.hi in
  reset_groups w;
  if dense then begin
    Arena.downstream_rc_range ~into:st.down ~lo ~hi a;
    Arena.elmore_range ~down:st.down ~root_delay:(root_delay st w)
      ~into:st.delay ~lo ~hi a;
    note_sinks st w w.sinks
  end
  else begin
    caps st w;
    st.delay.(hi) <- root_delay st w;
    let top = ref (hi - 1) in
    for i = Array.length w.subs - 1 downto 0 do
      let s = w.subs.(i) in
      Arena.elmore_fill ~down:st.down ~into:st.delay ~lo:(s.hi + 1) ~hi:!top a;
      top := s.lo - 1
    done;
    Arena.elmore_fill ~down:st.down ~into:st.delay ~lo ~hi:!top a;
    (* The leaf scan stays apart from the sweep: fused, its leaf test
       mispredicts on every intermingled node. *)
    par
      (fun s ->
        Arena.elmore_fill ~down:st.down ~into:st.delay ~lo:s.lo ~hi:s.hi a;
        reset_groups s;
        note_sinks st s s.sinks)
      w.subs;
    note_sinks st w w.sinks;
    Array.iter
      (fun s ->
        for g = 0 to Array.length w.glo - 1 do
          w.glo.(g) <- Eps.fmin w.glo.(g) s.glo.(g);
          w.ghi.(g) <- Eps.fmax w.ghi.(g) s.ghi.(g)
        done)
      w.subs
  end;
  (* A group's lift target, the max over its sinks of [d - bound], is
     [hi - bound]: subtracting a constant rounds monotonically, so the
     max commutes with it bit for bit. *)
  for g = 0 to Array.length w.target - 1 do
    w.target.(g) <- w.ghi.(g) -. st.bound.(g)
  done

(* Groups whose sink-delay spread exceeds bound + [slack]. *)
let violations st w ~slack =
  let bad = ref 0 in
  for g = 0 to Array.length st.bound - 1 do
    let spread = if w.glo.(g) > w.ghi.(g) then 0. else w.ghi.(g) -. w.glo.(g) in
    if spread > st.bound.(g) +. slack then incr bad
  done;
  !bad

(* Lift deficits over [lo, hi]: a sink's distance below its group's
   target, the minimum of the children's above it. *)
let deficits st target lo hi =
  let a = st.a in
  for v = lo to hi do
    let l = a.Arena.left.(v) in
    if l < 0 then st.md.(v) <- target.(a.Arena.group.(v)) -. st.delay.(v)
    else st.md.(v) <- Eps.fmin st.md.(l) st.md.(a.Arena.right.(v))
  done

(* Snake child edge [c] by its lift amount times its group's step when
   the amount exceeds half the acceptance slack.  A mixed node's amount
   is always 0: the dense sweep writes 0 there and the sparse one never
   writes it. *)
let lift_edge st w c =
  let amt = st.amount.(c) in
  amt > st.slack /. 2.
  &&
  let amt = amt *. w.step.(st.pg.(c)) in
  let a = st.a in
  let len = a.Arena.len.(c) and cap = st.bcap.(c) in
  let d = Rc.Elmore.wire_delay a.Arena.params ~len ~load:cap in
  let len' = Rc.Elmore.wire_for_delay a.Arena.params ~load:cap ~delay:(d +. amt) in
  len' <> len
  && begin
    adjusted st w c (len' -. len);
    a.Arena.len.(c) <- len';
    true
  end

(* Lift node [v]'s child edges and refresh its cap when they or a
   child's cap changed; true when [v] changed.  [changed] marks are
   consumed by the parent. *)
let lift_node st w v =
  let a = st.a in
  let l = a.Arena.left.(v) and r = a.Arena.right.(v) in
  let al = lift_edge st w l in
  let ar = lift_edge st w r in
  let hit =
    al || ar
    || Bytes.unsafe_get st.changed l = '\001'
    || Bytes.unsafe_get st.changed r = '\001'
  in
  Bytes.unsafe_set st.changed l '\000';
  Bytes.unsafe_set st.changed r '\000';
  if hit then begin
    st.bcap.(v) <-
      st.bcap.(l) +. st.bcap.(r)
      +. (a.Arena.params.Rc.Wire.c *. (a.Arena.len.(l) +. a.Arena.len.(r)));
    Bytes.unsafe_set st.changed v '\001';
    mark_dirty st w v
  end;
  hit

(* Snaking amounts of the maximal pure subtrees [w] lists, pushing the
   nodes with an edge to snake onto their owner's heap; a parent outside
   [w] (above its root) is left to the caller.  The carry of a maximal
   pure root's mixed parent (or of the tree root) is 0.  A lone sink's
   amount is its deficit; nothing reads its deficit or carry. *)
let amounts st w ~target =
  let a = st.a in
  let half_slack = st.slack /. 2. in
  let cv = 0. in
  for i = 0 to Array.length w.lone - 1 do
    let u = w.lone.(i) in
    let au = Eps.fmax 0. (target.(a.Arena.group.(u)) -. st.delay.(u) -. cv) in
    st.amount.(u) <- au;
    if au > half_slack && u < w.hi then heap_push st w.heap a.Arena.parent.(u)
  done;
  for i = 0 to Array.length w.pure - 1 do
    let u = w.pure.(i) in
    let u_lo = u - a.Arena.size.(u) + 1 in
    deficits st target u_lo u;
    let au = Eps.fmax 0. (st.md.(u) -. cv) in
    st.amount.(u) <- au;
    st.carry.(u) <- cv +. au;
    if au > half_slack && u < w.hi then heap_push st w.heap a.Arena.parent.(u);
    for v = u downto u_lo do
      let l = a.Arena.left.(v) in
      if l >= 0 then begin
        let r = a.Arena.right.(v) in
        let cv = st.carry.(v) in
        let al = Eps.fmax 0. (st.md.(l) -. cv) in
        st.amount.(l) <- al;
        st.carry.(l) <- cv +. al;
        let ar = Eps.fmax 0. (st.md.(r) -. cv) in
        st.amount.(r) <- ar;
        st.carry.(r) <- cv +. ar;
        if al > half_slack || ar > half_slack then
          heap_push st (owner w v).heap v
      end
    done
  done

(* Edge adjustments from [w]'s heap, ascending, pushing the parent of
   every node below [w.hi] that changed. *)
let lift_heap st w =
  while w.heap.len > 0 do
    let v = heap_pop st w.heap in
    if lift_node st w v && v < w.hi then
      heap_push st w.heap st.a.Arena.parent.(v)
  done

(* One lift sweep (stage 2): min deficits ascending, snaking amounts with
   carry descending, then the edge adjustments ascending with
   incremental cap maintenance.  Nodes whose edges or downstream caps
   change are marked dirty for the next balance pass.  Dense (the
   reference) walks the whole range; sparse walks only the pure
   subtrees for the deficits and amounts (a mixed node carries 0), and
   adjusts from ascending heaps seeded with the parents of the edges to
   snake, pushing the parent of every node that changed.  Amounts are
   per-node writes of disjoint subtrees, so [w]'s own come first (they
   may reach into a sub); then the subs run through [par]; a sub root
   whose edge must be snaked or whose cap changed hands its parent to
   [w]'s heap, which consumes the root's [changed] mark. *)
let lift st w ~dense ~par =
  let a = st.a in
  let lo = w.lo and hi = w.hi in
  w.log.len <- 0;
  if dense then begin
    deficits st w.target lo hi;
    st.carry.(hi) <- 0.;
    st.amount.(hi) <- 0.;
    for v = hi downto lo do
      let l = a.Arena.left.(v) in
      if l >= 0 then begin
        let r = a.Arena.right.(v) in
        let cv = st.carry.(v) in
        let al = if st.pg.(l) >= 0 then Eps.fmax 0. (st.md.(l) -. cv) else 0. in
        st.amount.(l) <- al;
        st.carry.(l) <- cv +. al;
        let ar = if st.pg.(r) >= 0 then Eps.fmax 0. (st.md.(r) -. cv) else 0. in
        st.amount.(r) <- ar;
        st.carry.(r) <- cv +. ar
      end
    done;
    Bytes.fill st.changed lo (hi - lo + 1) '\000';
    for v = lo to hi do
      if a.Arena.left.(v) >= 0 then ignore (lift_node st w v : bool)
    done
  end
  else begin
    let target = w.target and half_slack = st.slack /. 2. in
    amounts st w ~target;
    par
      (fun s ->
        s.log.len <- 0;
        amounts st s ~target;
        lift_heap st s)
      w.subs;
    Array.iter
      (fun s ->
        if
          Bytes.unsafe_get st.changed s.hi = '\001'
          || st.amount.(s.hi) > half_slack
        then heap_push st w.heap a.Arena.parent.(s.hi))
      w.subs;
    lift_heap st w
  end;
  Bytes.unsafe_set st.changed hi '\000'

(* The lift's step (DESIGN §5.3).  A lift snakes each lagging pure
   subtree by its deficit times its group's step.  The cap a snake adds
   delays every sink below the snaked edge's ancestors too — the sink's
   neighbours of every group, and, through the driver, the whole tree —
   by far more than the snake's own delay, so a full-deficit lift
   overshoots and pushes other groups out of their bounds.  How far it
   lands is measured: the next evaluate gives each group's excess (its
   spread over its bound) after the lift and the balance pass that
   follows it.  A lift that only partly closed the excess was too short,
   one that left it larger overshot; either way the secant rescales the
   step by the excess before the lift over the distance it moved: the
   excess removed, or, when the excess grew, the excess crossed.  But an
   excess that grows again right after a growth grew whatever the step:
   the other groups' lifts raised it, so the step is kept.  The step
   starts at 1, the uncoupled carry rule, and never exceeds it.
   [spread] holds each group's sink-delay spread at the lift, [grew]
   whether its last rescale saw the excess grow. *)
let resize st w ~spread ~grew =
  for g = 0 to Array.length w.step - 1 do
    let before = spread.(g) -. st.bound.(g) in
    let after = w.ghi.(g) -. w.glo.(g) -. st.bound.(g) in
    if before > st.slack /. 2. && after >= 0. then begin
      let grows = after >= before in
      if not (grows && grew.(g)) then begin
        let moved = if grows then before +. after else before -. after in
        let step = w.step.(g) *. before /. moved in
        w.step.(g) <- (if step < 1. then step else 1.)
      end;
      grew.(g) <- grows
    end
  done

(* The lift's Elmore response, for the journal of traced runs.  On
   entry [rise] holds the edge lengths before the lift; a lift changes
   only lengths and caps, so the cap each snaked edge added is [c] times
   its growth, summed bottom-up into [cap], and the delay rise top-down
   into [rise]: a node's parent's, plus its own edge's snake (its
   amount times its group's step), plus [k r len] times the cap added
   below it, [len] the edge's old length; at the root, the driver's
   [k rd] and the root edge's over the whole tree ([w] is the global
   cycle's: regional fixpoints never trace).  Returns the predicted
   per-group sink-delay lo / hi. *)
let predict st w ~cap ~rise =
  let a = st.a and lo = w.lo and hi = w.hi in
  let p = a.Arena.params in
  let kr = Rc.Wire.ps_per_ohm_ff *. p.Rc.Wire.r in
  let below v =
    let l = a.Arena.left.(v) in
    if l < 0 then 0. else cap.(l) +. cap.(a.Arena.right.(v))
  in
  for v = lo to hi - 1 do
    cap.(v) <- below v +. (p.Rc.Wire.c *. (a.Arena.len.(v) -. rise.(v)))
  done;
  rise.(hi) <-
    Rc.Wire.ps_per_ohm_ff *. (a.Arena.rd +. (p.Rc.Wire.r *. rise.(hi))) *. below hi;
  for v = hi - 1 downto lo do
    let len = rise.(v) in
    let snake =
      if a.Arena.len.(v) <> len then st.amount.(v) *. w.step.(st.pg.(v)) else 0.
    in
    rise.(v) <- rise.(a.Arena.parent.(v)) +. snake +. (kr *. len *. below v)
  done;
  let g = Array.length st.bound in
  let plo = Array.make g Float.infinity and phi = Array.make g Float.neg_infinity in
  for v = lo to hi do
    if a.Arena.left.(v) < 0 then begin
      let k = a.Arena.group.(v) and d = st.delay.(v) +. rise.(v) in
      plo.(k) <- Eps.fmin plo.(k) d;
      phi.(k) <- Eps.fmax phi.(k) d
    end
  done;
  (plo, phi)

(* --- the fixpoint ------------------------------------------------------ *)

(* What fixpoints add to the repair's stats; every regional window keeps
   its own, folded in window order into the global cycle's. *)
type tally = {
  mutable added : float;
  mutable adjusted : int;
  mutable cycles : int;
  mutable lifts : int;
}

let tally () = { added = 0.; adjusted = 0; cycles = 0; lifts = 0 }

(* The balance/evaluate/lift fixpoint over [w]: balance, replay the
   pass's wire onto [tally], evaluate, and count the groups whose spread
   exceeds bound + [accept]; then stop when none does or the budget is
   spent, else lift, replay, and go round again.  The budget is
   [max_cycles] lifts, so at most [max_cycles + 1] balance passes.
   Returns the groups still violating: 0 when it converged.  [par label]
   runs the windows of [w]'s subs (["repair.cycle"] for balance and
   lift, ["repair.evaluate"] for the evaluation); [run] gets a heartbeat
   tick per cycle and, when tracing, the ["balance_pass"] /
   ["lift_sweep"] / ["budget_exhausted"] instants, a ["repair_cycle"]
   journal record per cycle and a ["repair_lift"] record per lift.
   After each lift's evaluate, [resize] rescales the groups' steps.  It
   stops only right after an evaluate, so the delays left in [st.delay]
   are the final tree's.

   Two callers.  A regional window of {!Arena.windows} runs it alone,
   serially on a worker domain, touching only the window's index range
   and slabs, with [Obs.Run.null] — it never touches the trace context
   — and [accept] at twice the final slack: its delays are measured from
   the window root (delay 0 there), so intra-region skews are
   offset-free and balancing and lifting inside it are the global
   operations restricted to the subtree, but its optimum can sit an ulp
   away from the global one; the looser local gate keeps re-repair a
   no-op.  The global cycle then enforces the true slack over the whole
   tree, its windows on the pool. *)
let fixpoint st w ~dense ~accept ~max_cycles ~par ~(run : Obs.Run.t) tally =
  let trace = run.trace in
  let tracing = Obs.Trace.enabled trace in
  let instant iter args name =
    Obs.Trace.instant trace ~cat:"clocktree.repair"
      ~args:(("cycle", Obs.Json.Int iter) :: args)
      name
  in
  let record () =
    tally.added <- replay st w tally.added;
    tally.adjusted <- tally.adjusted + logged w
  in
  (* Traced runs only: the last lift's cycle, per-group step, and
     pre-lift and predicted sink-delay lo / hi, journaled as a
     ["repair_lift"] record with the realized ones once the next evaluate
     has measured them.  [cols] are [predict]'s columns; the second
     holds the edge lengths across each lift. *)
  let cols =
    if tracing then Some (Array.make st.a.Arena.n 0., Array.make st.a.Arena.n 0.)
    else None
  in
  let pending = ref None in
  let spread = Array.make (Array.length w.step) Float.neg_infinity in
  let grew = Array.make (Array.length w.step) false in
  let lift_record () =
    Option.iter
      (fun (iter, step, glo, ghi, plo, phi) ->
        let moved ~from ~into g = Obs.Json.Float (into.(g) -. from.(g)) in
        let groups = ref [] in
        for g = Array.length glo - 1 downto 0 do
          if glo.(g) <= ghi.(g) then
            groups :=
              Obs.Json.Obj
                [
                  ("group", Obs.Json.Int g);
                  ("step", Obs.Json.Float step.(g));
                  ("max_predicted", moved ~from:ghi ~into:phi g);
                  ("max_realized", moved ~from:ghi ~into:w.ghi g);
                  ("min_predicted", moved ~from:glo ~into:plo g);
                  ("min_realized", moved ~from:glo ~into:w.glo g);
                ]
              :: !groups
        done;
        Obs.Trace.journal trace
          (Obs.Json.Obj
             [
               ("type", Obs.Json.String "repair_lift");
               ("cycle", Obs.Json.Int iter);
               ("groups", Obs.Json.List !groups);
             ]);
        pending := None)
      !pending
  in
  let rec cycle iter =
    Obs.Progress.tick run.progress;
    if tracing then instant iter [] "balance_pass";
    let processed = balance st w ~dense ~par:(par "repair.cycle") in
    record ();
    tally.cycles <- tally.cycles + 1;
    evaluate st w ~dense ~par:(par "repair.evaluate");
    if iter > 0 then resize st w ~spread ~grew;
    let bad = violations st w ~slack:accept in
    if tracing then lift_record ();
    if tracing then
      Obs.Trace.journal trace
        (Obs.Json.Obj
           [
             ("type", Obs.Json.String "repair_cycle");
             ("cycle", Obs.Json.Int iter);
             ("processed", Obs.Json.Int processed);
             ("adjusted", Obs.Json.Int tally.adjusted);
             ("added_wire", Obs.Json.Float tally.added);
             ("within", Obs.Json.Bool (bad = 0));
           ]);
    if bad = 0 then 0
    else if iter >= max_cycles then begin
      if tracing then instant iter [] "budget_exhausted";
      bad
    end
    else begin
      if tracing then
        instant iter [ ("added_wire", Obs.Json.Float tally.added) ] "lift_sweep";
      Option.iter (fun (_, rise) -> Array.blit st.a.Arena.len 0 rise 0 st.a.Arena.n) cols;
      lift st w ~dense ~par:(par "repair.cycle");
      Option.iter
        (fun (cap, rise) ->
          let plo, phi = predict st w ~cap ~rise in
          pending :=
            Some (iter, Array.copy w.step, Array.copy w.glo, Array.copy w.ghi, plo, phi))
        cols;
      for g = 0 to Array.length spread - 1 do
        spread.(g) <- w.ghi.(g) -. w.glo.(g)
      done;
      record ();
      tally.lifts <- tally.lifts + 1;
      cycle (iter + 1)
    end
  in
  cycle 0

(* --- driver ----------------------------------------------------------- *)

(* Slab layout.  A node's group run depends only on the topology: a
   leaf's is its group, a merge node's the sorted union of its
   children's.  The runs are laid out in ascending node order, and a
   window is a contiguous whole subtree, so its runs form one block of
   that layout.  [make_state] builds it in three steps.  Runs: through
   [map], each window merges its own runs into a private buffer, with
   offsets relative to it; then the calling domain merges the spine's,
   ascending, into one more buffer, reading a window-root child's run
   from that window's buffer.  Offsets: one ascending walk over the
   windows and the spine's gaps gives each block its place.  Fill:
   through [map], each window rebases its offsets and copies its block
   into the store, and the calling domain copies the spine's. *)

(* Append node [v]'s run to [buf]: a leaf's group, or the union of its
   children's runs [lb.(i0 .. ie - 1)] and [rb.(j0 .. je - 1)]; also
   sets [v]'s pure group and, for a leaf, its cap. *)
let push_run (a : Arena.t) ~pg ~bcap buf v lb i0 ie rb j0 je =
  let l = a.Arena.left.(v) in
  if l < 0 then begin
    bcap.(v) <- a.Arena.scap.(v);
    pg.(v) <- a.Arena.group.(v);
    ivec_push buf a.Arena.group.(v)
  end
  else begin
    let r = a.Arena.right.(v) in
    pg.(v) <- (if pg.(l) >= 0 && pg.(l) = pg.(r) then pg.(l) else -1);
    let i = ref i0 and j = ref j0 in
    while !i < ie || !j < je do
      let gl = if !i < ie then lb.(!i) else max_int in
      let gr = if !j < je then rb.(!j) else max_int in
      ivec_push buf (Int.min gl gr);
      if gl <= gr then incr i;
      if gr <= gl then incr j
    done
  end

let make_state ~pool ~sched (inst : Instance.t) (a : Arena.t) windows =
  let n = a.Arena.n in
  let left = a.Arena.left and right = a.Arena.right in
  let map f xs = Par.Pool.map_each pool ~sched ~label:"repair.setup" f xs in
  let pg = Array.make n (-1) and bcap = Array.make n 0. in
  let goff = Array.make (n + 1) 0 in
  let blocks =
    map
      (fun (lo, hi) ->
        let buf = ivec () in
        for v = lo to hi do
          (* Both children's runs are in [buf]; each ends where the next
             node's begins. *)
          goff.(v) <- buf.len;
          let l = left.(v) and r = right.(v) in
          if l < 0 then push_run a ~pg ~bcap buf v [||] 0 0 [||] 0 0
          else
            push_run a ~pg ~bcap buf v buf.data goff.(l) goff.(l + 1) buf.data
              goff.(r) goff.(r + 1)
        done;
        buf)
      windows
  in
  (* [f lo hi] on each maximal range of spine nodes, ascending. *)
  let spine_gaps f =
    let next =
      Array.fold_left
        (fun i (lo, hi) ->
          if i < lo then f i (lo - 1);
          hi + 1)
        0 windows
    in
    if next <= n - 1 then f next (n - 1)
  in
  (* The window holding node [c], if any. *)
  let window_of c =
    let i = ref 0 and j = ref (Array.length windows) in
    while !i < !j do
      let m = (!i + !j) / 2 in
      if snd windows.(m) < c then i := m + 1 else j := m
    done;
    if !i < Array.length windows && fst windows.(!i) <= c then !i else -1
  in
  let rec next_spine u =
    let k = window_of u in
    if k < 0 then u else next_spine (snd windows.(k) + 1)
  in
  (* Spine offsets are relative to [spine] until the walk below; a spine
     child's run ends where the next spine node's begins. *)
  let spine = ivec () in
  let run c =
    let k = window_of c in
    if k < 0 then (spine.data, goff.(c), goff.(next_spine (c + 1)))
    else (blocks.(k).data, goff.(c), blocks.(k).len)
  in
  spine_gaps (fun lo hi ->
      for v = lo to hi do
        goff.(v) <- spine.len;
        if left.(v) < 0 then push_run a ~pg ~bcap spine v [||] 0 0 [||] 0 0
        else begin
          let lb, i0, ie = run left.(v) and rb, j0, je = run right.(v) in
          push_run a ~pg ~bcap spine v lb i0 ie rb j0 je
        end
      done);
  (* Offsets: the blocks in ascending node order.  A spine gap's runs
     are contiguous in [spine] too, so the gap moves by one shift. *)
  let base = Array.make (Array.length windows) 0 in
  let gap_blits = ref [] in
  let off = ref 0 and k = ref 0 in
  let place_windows upto =
    while !k < Array.length windows && fst windows.(!k) < upto do
      base.(!k) <- !off;
      off := !off + blocks.(!k).len;
      incr k
    done
  in
  spine_gaps (fun lo hi ->
      place_windows lo;
      let rel = goff.(lo) in
      let stop = if hi = n - 1 then spine.len else goff.(next_spine (hi + 1)) in
      gap_blits := (rel, stop - rel, !off) :: !gap_blits;
      for v = lo to hi do
        goff.(v) <- goff.(v) - rel + !off
      done;
      off := !off + stop - rel);
  place_windows n;
  goff.(n) <- !off;
  let sg = Array.make !off 0 in
  List.iter
    (fun (rel, len, dst) -> Array.blit spine.data rel sg dst len)
    !gap_blits;
  let _ : unit array =
    map
      (fun k ->
        let lo, hi = windows.(k) in
        let b = base.(k) in
        for v = lo to hi do
          goff.(v) <- goff.(v) + b
        done;
        Array.blit blocks.(k).data 0 sg b blocks.(k).len)
      (Array.init (Array.length windows) Fun.id)
  in
  (* The float columns are allocated through [map] too: at this size
     their cost is the allocation itself.  A leaf's slab is the point
     interval at delay 0 and is never rewritten; a merge node's is
     filled by its first balance. *)
  let cols = map (fun len -> Array.make len 0.) [| !off; !off; n; n; n; n; n; n |] in
  {
    a;
    slack = Evaluate.default_slack;
    bound = Array.init inst.Instance.n_groups (Instance.bound_for inst);
    bcap;
    goff;
    sg;
    slo = cols.(0);
    shi = cols.(1);
    dw = cols.(2);
    dirty = Bytes.make n '\001';
    changed = Bytes.make n '\000';
    visited = Bytes.make n '\000';
    queued = Bytes.make n '\000';
    down = cols.(3);
    delay = cols.(4);
    pg;
    md = cols.(5);
    amount = cols.(6);
    carry = cols.(7);
  }

(* In-place repair of an already-flattened tree: the arena's [len]
   column is mutated; everything else is read-only.  This is the
   arena-native router pipeline's entry point — no pointer tree is built
   or consumed. *)
let run_arena ?(config = default_config) ?(run = Obs.Run.null)
    (inst : Instance.t) (a : Arena.t) =
  let { Obs.Run.trace; sched; progress } = run in
  let tracing = Obs.Trace.enabled trace in
  let windows = Arena.windows ?count:config.regions a in
  let go pool =
    (* Windows on the pool when there are two or more; the same code
       serially otherwise.  Windows are disjoint index ranges with
       disjoint slabs, so workers never write the same word. *)
    let map label f xs = Par.Pool.map_each pool ~sched ~label f xs in
    (* [Array.iter] serially: no unit array per pass. *)
    let par label f subs =
      if Option.is_none pool || Array.length subs < 2 then Array.iter f subs
      else ignore (map label f subs : unit array)
    in
    let st = make_state ~pool ~sched inst a windows in
    let n = a.Arena.n in
    let dense = not config.incremental and max_cycles = config.max_cycles in
    (* Phase 1: the regional fixpoints, one per window.  Their tallies
       fold in window order, keeping every accumulated float
       deterministic for any jobs. *)
    if Array.length windows > 0 then
      Obs.Progress.add_regions progress ~depth:0 (Array.length windows);
    let regions =
      map "repair.regions"
        (fun (lo, hi) ->
          let step = Array.make inst.Instance.n_groups 1. in
          let w = make_work st ~lo ~hi ~top:hi ~step [||] in
          let t = tally () in
          let bad =
            fixpoint st w ~dense ~accept:(2. *. st.slack) ~max_cycles
              ~par:(fun _ -> Array.iter)
              ~run:Obs.Run.null t
          in
          Obs.Progress.region_done progress ~depth:0;
          (t, bad > 0, w.conflicts))
        windows
    in
    let total = tally () in
    let conflicts = ref 0 and exhausted = ref false in
    Array.iter
      (fun (t, ex, c) ->
        total.added <- total.added +. t.added;
        total.adjusted <- total.adjusted + t.adjusted;
        total.cycles <- total.cycles + t.cycles;
        total.lifts <- total.lifts + t.lifts;
        conflicts := !conflicts + c;
        if ex then exhausted := true)
      regions;
    if tracing && Array.length regions > 0 then begin
      Obs.Trace.instant trace ~cat:"clocktree.repair"
        ~args:[ ("regions", Obs.Json.Int (Array.length regions)) ]
        "regional_repair";
      Array.iteri
        (fun k (t, ex, _) ->
          let root = snd windows.(k) in
          Obs.Trace.journal trace
            (Obs.Json.Obj
               [
                 ("type", Obs.Json.String "repair_region");
                 ("root", Obs.Json.Int root);
                 ("sinks", Obs.Json.Int ((a.Arena.size.(root) + 1) / 2));
                 ("cycles", Obs.Json.Int t.cycles);
                 ("lifts", Obs.Json.Int t.lifts);
                 ("adjusted", Obs.Json.Int t.adjusted);
                 ("exhausted", Obs.Json.Bool ex);
               ]))
        regions
    end;
    (* Phase 2: the global cycle over the residual dirty set (all of
       the tree on the first pass when no regional phase ran — every
       node starts dirty).  Sparse, it runs each window first, then the
       spine above them; the dense reference walks the whole tree. *)
    let step = Array.make inst.Instance.n_groups 1. in
    let subs =
      if dense then [||]
      else
        map "repair.setup"
          (fun (lo, hi) -> make_work st ~lo ~hi ~top:(n - 1) ~step [||])
          windows
    in
    let w = make_work st ~lo:0 ~hi:(n - 1) ~top:(n - 1) ~step subs in
    let unresolved =
      fixpoint st w ~dense ~accept:st.slack ~max_cycles ~par ~run total
    in
    let conflicts =
      Array.fold_left (fun k s -> k + s.conflicts) (!conflicts + w.conflicts) subs
    in
    let delays = Array.make a.Arena.n_sinks 0. in
    Arena.delays_by_sink ~delay:st.delay ~into:delays a;
    {
      added_wire = total.added;
      adjusted_edges = total.adjusted;
      conflict_nodes = conflicts;
      lift_iterations = total.lifts;
      unresolved_groups = unresolved;
      cycles = total.cycles;
      budget_exhausted = !exhausted || unresolved > 0;
      delays;
    }
  in
  let go () =
    if config.jobs <= 1 || Array.length windows < 2 then go None
    else Par.Pool.with_pool ~jobs:config.jobs go
  in
  if tracing then Obs.Trace.span trace ~cat:"clocktree.repair" "repair" go
  else go ()
