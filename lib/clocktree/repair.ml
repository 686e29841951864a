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
}

let c_balance = Obs.Counter.make "clocktree.repair.balance_passes"
let c_lift = Obs.Counter.make "clocktree.repair.lift_sweeps"
let c_adjusted = Obs.Counter.make "clocktree.repair.adjusted_edges"
let c_regions = Obs.Counter.make "clocktree.repair.regions"
let c_exhausted = Obs.Counter.make "clocktree.repair.budget_exhausted"

(* Float.min / Float.max with the same result bits — signed zeros
   included (min -0 +0 = -0, max -0 +0 = +0) and NaN propagating — but
   inlined, so the hot loops keep their floats unboxed.  The zero test
   runs only on ties. *)
let[@inline] fmin (x : float) y =
  if x < y then x
  else if y < x then y
  else if x <> x then x
  else if y <> y then y
  else if x = 0. && 1. /. x < 0. then x
  else y

let[@inline] fmax (x : float) y =
  if x > y then x
  else if y > x then y
  else if x <> x then x
  else if y <> y then y
  else if x = 0. && 1. /. x > 0. then x
  else y

(* Rc.Elmore.wire_delay, operation for operation.  The dev-profile build
   compiles with -opaque, so a call into another module is never
   inlined and boxes its float arguments and result; the hot loops keep
   local copies of such one-liners. *)
let[@inline] wire_delay (p : Rc.Wire.params) len load =
  Rc.Wire.ps_per_ohm_ff *. p.r *. len *. ((p.c *. len /. 2.) +. load)

(* --- group-interval slab store ----------------------------------------

   Balancing needs, per node, the per-group interval of sink delays
   measured from that node.  The arena keeps slabs — short (gid, lo, hi)
   runs sorted by gid — in growable parallel arrays, one store per
   regional fixpoint plus one residual store, so the parallel phase
   never appends to a shared cursor.  A node's slab is the
   [goff, goff+glen) window of its store; re-balancing appends a fresh
   slab and rolls the cursor back when it is bit-identical to the memo,
   so clean passes cost no store growth.  Each entry records its owning
   node, so the store compacts itself in place, in one scan of its own
   entries, when dead slabs dominate. *)

type store = {
  mutable sg : int array;
  mutable sown : int array;  (** node owning the entry *)
  mutable slo : float array;
  mutable shi : float array;
  mutable used : int;
  mutable live : int;
}

let store_create cap =
  let cap = Int.max cap 8 in
  {
    sg = Array.make cap (-1);
    sown = Array.make cap (-1);
    slo = Array.make cap 0.;
    shi = Array.make cap 0.;
    used = 0;
    live = 0;
  }

let store_ensure s extra =
  let need = s.used + extra in
  if need > Array.length s.sg then begin
    let cap = Int.max need (2 * Array.length s.sg) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 s.used;
      b
    in
    s.sg <- grow s.sg (-1);
    s.sown <- grow s.sown (-1);
    s.slo <- grow s.slo 0.;
    s.shi <- grow s.shi 0.
  end

(* A growable int stack: worklist heaps, dirty seeds, processed lists. *)
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

type state = {
  a : Arena.t;
  slack : float;
  bound : float array;  (** per-group skew bound *)
  bcap : float array;  (** memoized downstream capacitance *)
  goff : int array;
  glen : int array;
  gstore : int array;
  stores : store array;
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

(* One fixpoint's index range and worklists.  The maximal group-pure
   subtrees strictly below [hi] are fixed by the topology, so they are
   found once: every pure node of the range lies in one of them, and
   every mixed node carries 0 in the lift.  In an intermingled tree
   nearly all of them are lone sinks, kept apart so their loop has no
   leaf test. *)
type work = {
  lo : int;
  hi : int;
  heap : ivec;
  seeds : ivec;  (** dirty merge nodes: the next sparse balance's seeds *)
  proc : ivec;  (** nodes balanced this pass, ascending *)
  sinks : int array;  (** the range's leaves, ascending *)
  lone : int array;  (** leaves that are maximal pure subtrees *)
  pure : int array;  (** roots of the other maximal pure subtrees *)
  glo : float array;  (** per group: min / max sink delay, lift target *)
  ghi : float array;
  target : float array;
  mutable fresh : bool;  (** [down] not yet computed on this range *)
}

let make_work st ~lo ~hi =
  let a = st.a in
  let seeds = ivec () and sinks = ivec () in
  let lone = ivec () and pure = ivec () in
  for v = lo to hi do
    let leaf = a.Arena.left.(v) < 0 in
    if leaf then ivec_push sinks v
    else if Bytes.get st.dirty v = '\001' then ivec_push seeds v;
    if v < hi && st.pg.(v) >= 0 then begin
      let p = a.Arena.parent.(v) in
      if p = hi || st.pg.(p) < 0 then ivec_push (if leaf then lone else pure) v
    end
  done;
  let g = Array.length st.bound in
  let frozen q = Array.sub q.data 0 q.len in
  {
    lo;
    hi;
    heap = ivec ();
    seeds;
    proc = ivec ();
    sinks = frozen sinks;
    lone = frozen lone;
    pure = frozen pure;
    glo = Array.make g Float.infinity;
    ghi = Array.make g Float.neg_infinity;
    target = Array.make g Float.neg_infinity;
    fresh = true;
  }

(* Compact a store in place once dead slabs dominate: one scan of its
   entries keeps each node's live slab (the one its [goff] points at). *)
let maybe_compact st s =
  if s.used > (2 * s.live) + 64 then begin
    let cur = ref 0 and i = ref 0 in
    while !i < s.used do
      let v = s.sown.(!i) in
      let m = st.glen.(v) in
      if st.goff.(v) = !i && m > 0 then begin
        Array.blit s.sg !i s.sg !cur m;
        Array.blit s.sown !i s.sown !cur m;
        Array.blit s.slo !i s.slo !cur m;
        Array.blit s.shi !i s.shi !cur m;
        st.goff.(v) <- !cur;
        cur := !cur + m;
        i := !i + m
      end
      else incr i
    done;
    s.used <- !cur
  end

(* Balance one merge node: replicate the pointer-walk expressions
   operation for operation (see the old balance_pass) so the arena pass
   is bit-identical to it.  Returns whether one of the node's child
   edges was adjusted. *)
let process_internal st v ~count_conflicts ~conflicts ~adjusted ~added =
  let a = st.a in
  let params = a.Arena.params in
  let l = a.Arena.left.(v) and r = a.Arena.right.(v) in
  let cap_l = st.bcap.(l) and cap_r = st.bcap.(r) in
  let llen0 = a.Arena.len.(l) and rlen0 = a.Arena.len.(r) in
  let wl0 = wire_delay params llen0 cap_l in
  let wr0 = wire_delay params rlen0 cap_r in
  let ls = st.stores.(st.gstore.(l)) and rs = st.stores.(st.gstore.(r)) in
  let l_off = st.goff.(l) and l_len = st.glen.(l) in
  let r_off = st.goff.(r) and r_len = st.glen.(r) in
  (* Admissible x = delta_left - delta_right: intersect, in ascending
     group order, one interval per group spanning both children.  Exact
     max/min make the intersection order-independent; ascending order
     still mirrors the old IntMap.fold. *)
  let acc_lo = ref Float.neg_infinity and acc_hi = ref Float.infinity in
  let j = ref 0 in
  for i = 0 to l_len - 1 do
    let g = ls.sg.(l_off + i) in
    while !j < r_len && rs.sg.(r_off + !j) < g do
      incr j
    done;
    if !j < r_len && rs.sg.(r_off + !j) = g then begin
      let bound = st.bound.(g) in
      let llo = ls.slo.(l_off + i) and lhi = ls.shi.(l_off + i) in
      let rlo = rs.slo.(r_off + !j) and rhi = rs.shi.(r_off + !j) in
      let lo = rhi +. wr0 -. bound -. (llo +. wl0) in
      let hi = bound +. rlo +. wr0 -. (lhi +. wl0) in
      acc_lo := fmax !acc_lo lo;
      acc_hi := fmin !acc_hi hi
    end
  done;
  (* The conflict midpoint, else Eps.clamp !acc_lo !acc_hi 0. inlined. *)
  let x =
    if !acc_lo > !acc_hi +. Eps.tol then begin
      if count_conflicts then incr conflicts;
      (!acc_lo +. !acc_hi) /. 2.
    end
    else if 0. < !acc_lo then !acc_lo
    else if 0. > !acc_hi then !acc_hi
    else 0.
  in
  let delta_l = fmax 0. x and delta_r = fmax 0. (-.x) in
  (* Lengthen each child edge by its delta.  The skip floor is relative
     to the edge delay: at extreme RC corners delays reach ~1e9 ps,
     where an absolute 1e-9 ps floor sits far below one ulp and a
     repeated pass would chase its own recomputation noise, adjusting
     edges forever.  64 ulps stays well under Evaluate.within_bound's
     acceptance slack for any delay magnitude the acceptance check can
     resolve.  An adjustment whose resulting length is bit-identical is
     dropped as the no-op it is. *)
  let llen = ref llen0 and wl = ref wl0 in
  if not (delta_l <= fmax 1e-9 (64. *. epsilon_float *. Float.abs wl0))
  then begin
    let len' =
      Rc.Elmore.wire_for_delay params ~load:cap_l ~delay:(wl0 +. delta_l)
    in
    if len' <> llen0 then begin
      added := !added +. (len' -. llen0);
      incr adjusted;
      llen := len';
      wl := wl0 +. delta_l
    end
  end;
  let rlen = ref rlen0 and wr = ref wr0 in
  if not (delta_r <= fmax 1e-9 (64. *. epsilon_float *. Float.abs wr0))
  then begin
    let len' =
      Rc.Elmore.wire_for_delay params ~load:cap_r ~delay:(wr0 +. delta_r)
    in
    if len' <> rlen0 then begin
      added := !added +. (len' -. rlen0);
      incr adjusted;
      rlen := len';
      wr := wr0 +. delta_r
    end
  end;
  let llen = !llen and rlen = !rlen and wl = !wl and wr = !wr in
  a.Arena.len.(l) <- llen;
  a.Arena.len.(r) <- rlen;
  st.bcap.(v) <- cap_l +. cap_r +. (params.Rc.Wire.c *. (llen +. rlen));
  (* Merged slab: shift children by their (possibly extended) edge
     delays and hull the common groups.  Append to this node's store,
     then roll back if the result matches the memo bit for bit. *)
  let vs = st.stores.(st.gstore.(v)) in
  store_ensure vs (l_len + r_len);
  (* store_ensure may have swapped the arrays; always read through the
     record fields below. *)
  let base = vs.used in
  let i = ref 0 and jj = ref 0 and out = ref base in
  while !i < l_len || !jj < r_len do
    let gl = if !i < l_len then ls.sg.(l_off + !i) else max_int in
    let gr = if !jj < r_len then rs.sg.(r_off + !jj) else max_int in
    vs.sown.(!out) <- v;
    if gl < gr then begin
      vs.sg.(!out) <- gl;
      vs.slo.(!out) <- ls.slo.(l_off + !i) +. wl;
      vs.shi.(!out) <- ls.shi.(l_off + !i) +. wl;
      incr i;
      incr out
    end
    else if gr < gl then begin
      vs.sg.(!out) <- gr;
      vs.slo.(!out) <- rs.slo.(r_off + !jj) +. wr;
      vs.shi.(!out) <- rs.shi.(r_off + !jj) +. wr;
      incr jj;
      incr out
    end
    else begin
      vs.sg.(!out) <- gl;
      vs.slo.(!out) <-
        fmin (ls.slo.(l_off + !i) +. wl) (rs.slo.(r_off + !jj) +. wr);
      vs.shi.(!out) <-
        fmax (ls.shi.(l_off + !i) +. wl) (rs.shi.(r_off + !jj) +. wr);
      incr i;
      incr jj;
      incr out
    end
  done;
  let m = !out - base in
  let old_off = st.goff.(v) and old_len = st.glen.(v) in
  let same =
    old_len = m
    &&
    let ok = ref true in
    let k = ref 0 in
    while !ok && !k < m do
      if
        vs.sg.(old_off + !k) <> vs.sg.(base + !k)
        || vs.slo.(old_off + !k) <> vs.slo.(base + !k)
        || vs.shi.(old_off + !k) <> vs.shi.(base + !k)
      then ok := false;
      incr k
    done;
    !ok
  in
  if same then vs.used <- base
  else begin
    vs.used <- base + m;
    vs.live <- vs.live + m - old_len;
    st.goff.(v) <- base;
    st.glen.(v) <- m
  end;
  llen <> llen0 || rlen <> rlen0

let mark_dirty st w v =
  if Bytes.unsafe_get st.dirty v = '\000' then begin
    Bytes.unsafe_set st.dirty v '\001';
    ivec_push w.seeds v
  end

let balance_node st w v ~conflicts ~adjusted ~added =
  let count_conflicts = Bytes.unsafe_get st.visited v = '\000' in
  if count_conflicts then Bytes.unsafe_set st.visited v '\001';
  let self =
    process_internal st v ~count_conflicts ~conflicts ~adjusted ~added
  in
  ivec_push w.proc v;
  Bytes.unsafe_set st.dirty v '\000';
  if self then mark_dirty st w v

(* One balance pass; returns the number of nodes balanced.  Dense (the
   from-scratch reference): every merge node of the range, ascending.
   Sparse: an ascending heap seeded with the dirty nodes, pushing the
   parent of every balanced node.  A node's inputs change only when its
   own edges changed (dirty) or a child was rebalanced, so the sparse
   pass balances exactly the nodes whose memo may be stale, in the same
   ascending order, and skipping the rest is exact. *)
let balance st w ~dense ~conflicts ~adjusted ~added =
  let a = st.a in
  w.proc.len <- 0;
  if dense then begin
    w.seeds.len <- 0;
    for v = w.lo to w.hi do
      if a.Arena.left.(v) >= 0 then
        balance_node st w v ~conflicts ~adjusted ~added
    done
  end
  else begin
    for i = 0 to w.seeds.len - 1 do
      heap_push st w.heap w.seeds.data.(i)
    done;
    w.seeds.len <- 0;
    while w.heap.len > 0 do
      let v = heap_pop st w.heap in
      balance_node st w v ~conflicts ~adjusted ~added;
      if v < w.hi then heap_push st w.heap a.Arena.parent.(v)
    done
  end;
  w.proc.len

(* Delay of the range root: from the source driver for the whole tree,
   0 for a region (intra-region skews are offset-free; no region holds
   the tree root). *)
let root_delay st w =
  if w.hi = st.a.Arena.n - 1 then Arena.root_delay ~down:st.down st.a else 0.

let[@inline] note_sink st w v d =
  let g = st.a.Arena.group.(v) in
  w.glo.(g) <- fmin w.glo.(g) d;
  w.ghi.(g) <- fmax w.ghi.(g) d;
  w.target.(g) <- fmax w.target.(g) (d -. st.bound.(g))

(* Downstream caps, node delays and the per-group sink-delay lo / hi /
   lift target over the range.  Dense: the Arena kernels, then a scan of
   the range for its leaves.  Sparse: caps only at the nodes balanced
   this pass and their children (every length that changed since the
   last evaluation hangs below one of them), one descending Elmore
   sweep, then the range's sink list. *)
let evaluate st w ~dense =
  let a = st.a in
  let lo = w.lo and hi = w.hi in
  Array.fill w.glo 0 (Array.length w.glo) Float.infinity;
  Array.fill w.ghi 0 (Array.length w.ghi) Float.neg_infinity;
  Array.fill w.target 0 (Array.length w.target) Float.neg_infinity;
  if dense then begin
    Arena.downstream_rc_range ~into:st.down ~lo ~hi a;
    Arena.elmore_range ~down:st.down ~root_delay:(root_delay st w)
      ~into:st.delay ~lo ~hi a;
    for v = lo to hi do
      if a.Arena.left.(v) < 0 then note_sink st w v st.delay.(v)
    done
  end
  else begin
    if w.fresh then Arena.downstream_rc_range ~into:st.down ~lo ~hi a
    else
      for i = 0 to w.proc.len - 1 do
        let v = w.proc.data.(i) in
        Arena.downstream_rc_node ~into:st.down a a.Arena.left.(v);
        Arena.downstream_rc_node ~into:st.down a a.Arena.right.(v);
        Arena.downstream_rc_node ~into:st.down a v
      done;
    w.fresh <- false;
    (* Arena.elmore_range's step, then the group statistics over the
       leaves.  Fusing the two loops measured slower: the leaf test
       mispredicts on every intermingled node. *)
    let k = Rc.Wire.ps_per_ohm_ff and r = a.Arena.params.r in
    let delay = st.delay and down = st.down and len = a.Arena.len in
    let parent = a.Arena.parent in
    delay.(hi) <- root_delay st w;
    for v = hi - 1 downto lo do
      delay.(v) <- delay.(parent.(v)) +. (k *. (r *. len.(v)) *. down.(v))
    done;
    let sinks = w.sinks in
    for i = 0 to Array.length sinks - 1 do
      let v = sinks.(i) in
      note_sink st w v delay.(v)
    done
  end

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
let deficits st w lo hi =
  let a = st.a in
  for v = lo to hi do
    let l = a.Arena.left.(v) in
    if l < 0 then st.md.(v) <- w.target.(a.Arena.group.(v)) -. st.delay.(v)
    else st.md.(v) <- fmin st.md.(l) st.md.(a.Arena.right.(v))
  done

(* Snake child edge [c] by its lift amount when that exceeds half the
   acceptance slack.  A mixed node's amount is always 0: the dense sweep
   writes 0 there and the sparse one never writes it. *)
let lift_edge st c ~adjusted ~added =
  let amt = st.amount.(c) in
  amt > st.slack /. 2.
  &&
  let a = st.a in
  let len = a.Arena.len.(c) and cap = st.bcap.(c) in
  let w = wire_delay a.Arena.params len cap in
  let len' =
    Rc.Elmore.wire_for_delay a.Arena.params ~load:cap ~delay:(w +. amt)
  in
  len' <> len
  && begin
    added := !added +. (len' -. len);
    incr adjusted;
    a.Arena.len.(c) <- len';
    true
  end

(* Lift node [v]'s child edges and refresh its cap when they or a
   child's cap changed; true when [v] changed.  [changed] marks are
   consumed by the parent. *)
let lift_node st w v ~adjusted ~added =
  let a = st.a in
  let l = a.Arena.left.(v) and r = a.Arena.right.(v) in
  let al = lift_edge st l ~adjusted ~added in
  let ar = lift_edge st r ~adjusted ~added in
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

(* One lift sweep (stage 2): min deficits ascending, snaking amounts with
   carry descending, then the edge adjustments ascending with
   incremental cap maintenance.  Nodes whose edges or downstream caps
   change are marked dirty for the next balance pass.  Dense (the
   reference) walks the whole range; sparse walks only the pure
   subtrees for the deficits and amounts (a mixed node carries 0), and
   adjusts from an ascending heap seeded with the parents of the edges
   to snake, pushing the parent of every node that changed. *)
let lift st w ~dense ~adjusted ~added =
  let a = st.a in
  let lo = w.lo and hi = w.hi in
  let half_slack = st.slack /. 2. in
  if dense then begin
    deficits st w lo hi;
    st.carry.(hi) <- 0.;
    st.amount.(hi) <- 0.;
    for v = hi downto lo do
      let l = a.Arena.left.(v) in
      if l >= 0 then begin
        let r = a.Arena.right.(v) in
        let cv = st.carry.(v) in
        let al = if st.pg.(l) >= 0 then fmax 0. (st.md.(l) -. cv) else 0. in
        st.amount.(l) <- al;
        st.carry.(l) <- cv +. al;
        let ar = if st.pg.(r) >= 0 then fmax 0. (st.md.(r) -. cv) else 0. in
        st.amount.(r) <- ar;
        st.carry.(r) <- cv +. ar
      end
    done;
    Bytes.fill st.changed lo (hi - lo + 1) '\000';
    for v = lo to hi do
      if a.Arena.left.(v) >= 0 then
        ignore (lift_node st w v ~adjusted ~added : bool)
    done;
    Bytes.unsafe_set st.changed hi '\000'
  end
  else begin
    (* The carry of a maximal pure root's mixed parent (or of the range
       root) is 0.  A lone sink's amount is its deficit; nothing reads
       its deficit or carry. *)
    let cv = 0. in
    for i = 0 to Array.length w.lone - 1 do
      let u = w.lone.(i) in
      let au = fmax 0. (w.target.(a.Arena.group.(u)) -. st.delay.(u) -. cv) in
      st.amount.(u) <- au;
      if au > half_slack then heap_push st w.heap a.Arena.parent.(u)
    done;
    for i = 0 to Array.length w.pure - 1 do
      let u = w.pure.(i) in
      let u_lo = u - a.Arena.size.(u) + 1 in
      deficits st w u_lo u;
      let au = fmax 0. (st.md.(u) -. cv) in
      st.amount.(u) <- au;
      st.carry.(u) <- cv +. au;
      if au > half_slack then heap_push st w.heap a.Arena.parent.(u);
      for v = u downto u_lo do
        let l = a.Arena.left.(v) in
        if l >= 0 then begin
          let r = a.Arena.right.(v) in
          let cv = st.carry.(v) in
          let al = fmax 0. (st.md.(l) -. cv) in
          st.amount.(l) <- al;
          st.carry.(l) <- cv +. al;
          let ar = fmax 0. (st.md.(r) -. cv) in
          st.amount.(r) <- ar;
          st.carry.(r) <- cv +. ar;
          if al > half_slack || ar > half_slack then heap_push st w.heap v
        end
      done
    done;
    while w.heap.len > 0 do
      let v = heap_pop st w.heap in
      if lift_node st w v ~adjusted ~added && v < hi then
        heap_push st w.heap a.Arena.parent.(v)
    done;
    Bytes.unsafe_set st.changed hi '\000'
  end

(* --- regional fixpoints ----------------------------------------------- *)

type region = { rlo : int; rhi : int; rstore : int }

type region_summary = {
  r_root : int;
  r_sinks : int;
  r_cycles : int;
  r_lifts : int;
  r_adjusted : int;
  r_conflicts : int;
  r_added : float;
  r_exhausted : bool;
}

(* Fixpoint regions: {!Arena.windows} — the maximal subtrees of at most
   [ceil (n / k)] nodes (and at least one merge node), k the auto-cluster
   density target — a pure function of the tree shape and
   [config.regions], never of the jobs count, so the decomposition (and
   with it every float) is identical for any parallelism.  Sharing the
   decomposition with the parallel evaluation kernels keeps the two
   policies provably in sync. *)
let select_regions (a : Arena.t) cfg =
  Array.mapi
    (fun i (lo, hi) -> { rlo = lo; rhi = hi; rstore = i + 1 })
    (Arena.windows ?count:cfg.regions a)

(* Local balance/evaluate/lift fixpoint on one region.  Delays are
   measured from the region root (delay 0 there): intra-region skews are
   offset-free, so balancing and lifting inside the region are exactly
   the global operations restricted to the subtree.  Acceptance uses
   twice the global slack — the local optimum can sit an ulp away from
   the global one, and the global cycle enforces the true slack
   afterwards; the looser local gate keeps re-repair a no-op.  Runs on
   worker domains: touches only this region's index range and store,
   and never the trace context. *)
let region_fixpoint st cfg (rg : region) =
  let dense = not cfg.incremental in
  let w = make_work st ~lo:rg.rlo ~hi:rg.rhi in
  let added = ref 0. and adjusted = ref 0 and conflicts = ref 0 in
  let store = st.stores.(rg.rstore) in
  let accept_slack = 2. *. st.slack in
  let cycles = ref 0 and lifts = ref 0 in
  let exhausted = ref false in
  let continue = ref true in
  while !continue do
    maybe_compact st store;
    Obs.Counter.incr c_balance;
    let _ : int = balance st w ~dense ~conflicts ~adjusted ~added in
    incr cycles;
    evaluate st w ~dense;
    if violations st w ~slack:accept_slack = 0 then continue := false
    else if !cycles > cfg.max_cycles then begin
      exhausted := true;
      continue := false
    end
    else begin
      Obs.Counter.incr c_lift;
      incr lifts;
      lift st w ~dense ~adjusted ~added
    end
  done;
  {
    r_root = rg.rhi;
    r_sinks = (st.a.Arena.size.(rg.rhi) + 1) / 2;
    r_cycles = !cycles;
    r_lifts = !lifts;
    r_adjusted = !adjusted;
    r_conflicts = !conflicts;
    r_added = !added;
    r_exhausted = !exhausted;
  }

(* --- driver ----------------------------------------------------------- *)

let make_state (inst : Instance.t) (a : Arena.t) regions =
  let n = a.Arena.n in
  let gstore = Array.make n 0 in
  Array.iter
    (fun rg ->
      Array.fill gstore rg.rlo (rg.rhi - rg.rlo + 1) rg.rstore)
    regions;
  let stores = Array.make (Array.length regions + 1) (store_create (n / 2)) in
  Array.iter
    (fun rg -> stores.(rg.rstore) <- store_create (2 * (rg.rhi - rg.rlo + 1)))
    regions;
  let st =
    {
      a;
      slack = Evaluate.default_slack;
      bound = Array.init inst.Instance.n_groups (Instance.bound_for inst);
      bcap = Array.make n 0.;
      goff = Array.make n 0;
      glen = Array.make n 0;
      gstore;
      stores;
      dirty = Bytes.make n '\001';
      changed = Bytes.make n '\000';
      visited = Bytes.make n '\000';
      queued = Bytes.make n '\000';
      down = Array.make n 0.;
      delay = Array.make n 0.;
      pg = Array.make n (-1);
      md = Array.make n 0.;
      amount = Array.make n 0.;
      carry = Array.make n 0.;
    }
  in
  (* Leaf slabs are the constant point interval at delay 0; written once,
     never replaced.  Pure groups depend only on the topology. *)
  for v = 0 to n - 1 do
    let l = a.Arena.left.(v) in
    if l < 0 then begin
      st.bcap.(v) <- a.Arena.scap.(v);
      st.pg.(v) <- a.Arena.group.(v);
      let s = stores.(gstore.(v)) in
      store_ensure s 1;
      s.sg.(s.used) <- a.Arena.group.(v);
      s.sown.(s.used) <- v;
      s.slo.(s.used) <- 0.;
      s.shi.(s.used) <- 0.;
      st.goff.(v) <- s.used;
      st.glen.(v) <- 1;
      s.used <- s.used + 1;
      s.live <- s.live + 1
    end
    else begin
      let r = a.Arena.right.(v) in
      st.pg.(v) <-
        (if st.pg.(l) >= 0 && st.pg.(l) = st.pg.(r) then st.pg.(l) else -1)
    end
  done;
  st

(* In-place repair of an already-flattened tree: the arena's [len]
   column is mutated; everything else is read-only.  This is the
   arena-native router pipeline's entry point — no pointer tree is built
   or consumed. *)
let run_arena ?(config = default_config) ?(run = Obs.Run.null)
    (inst : Instance.t) (a : Arena.t) =
  let { Obs.Run.trace; sched; progress } = run in
  let tracing = Obs.Trace.enabled trace in
  let slack = Evaluate.default_slack in
  let go () =
    let regions = select_regions a config in
    let st = make_state inst a regions in
    let n = a.Arena.n in
    (* Phase 1: regional fixpoints, in parallel when jobs > 1.  Regions
       are disjoint index ranges with disjoint stores, so workers never
       write the same word; summaries are folded in region index order,
       keeping every accumulated float deterministic for any jobs. *)
    if Array.length regions > 0 then
      Obs.Progress.add_regions progress ~depth:0 (Array.length regions);
    let fixpoint r =
      let s = region_fixpoint st config r in
      Obs.Progress.region_done progress ~depth:0;
      s
    in
    let summaries =
      if Array.length regions = 0 then [||]
      else if config.jobs <= 1 || Array.length regions < 2 then
        Array.map fixpoint regions
      else
        Par.Pool.with_pool ~jobs:config.jobs (fun pool ->
            match pool with
            | None -> Array.map fixpoint regions
            | Some p ->
              Par.Pool.map_chunked p ~sched ~label:"repair.regions" ~chunk:1
                fixpoint regions)
    in
    Obs.Counter.add c_regions (Array.length summaries);
    let added = ref 0. and adjusted = ref 0 and conflicts = ref 0 in
    let cycles = ref 0 and lifts = ref 0 in
    let exhausted = ref false in
    Array.iter
      (fun s ->
        added := !added +. s.r_added;
        adjusted := !adjusted + s.r_adjusted;
        conflicts := !conflicts + s.r_conflicts;
        cycles := !cycles + s.r_cycles;
        lifts := !lifts + s.r_lifts;
        if s.r_exhausted then exhausted := true)
      summaries;
    if tracing && Array.length summaries > 0 then begin
      Obs.Trace.instant trace ~cat:"clocktree.repair"
        ~args:[ ("regions", Obs.Json.Int (Array.length summaries)) ]
        "regional_repair";
      Array.iter
        (fun s ->
          Obs.Trace.journal trace
            (Obs.Json.Obj
               [
                 ("type", Obs.Json.String "repair_region");
                 ("root", Obs.Json.Int s.r_root);
                 ("sinks", Obs.Json.Int s.r_sinks);
                 ("cycles", Obs.Json.Int s.r_cycles);
                 ("lifts", Obs.Json.Int s.r_lifts);
                 ("adjusted", Obs.Json.Int s.r_adjusted);
                 ("exhausted", Obs.Json.Bool s.r_exhausted);
               ]))
        summaries
    end;
    if !exhausted then Obs.Counter.incr c_exhausted;
    (* Phase 2: the global cycle over the residual dirty set (all of
       the tree on the first pass when no regional phase ran — every
       node starts dirty). *)
    let dense = not config.incremental in
    let w = make_work st ~lo:0 ~hi:(n - 1) in
    let iter = ref 0 in
    let finished = ref false in
    let g_lifts = ref 0 and unresolved = ref 0 in
    while not !finished do
      Obs.Progress.tick progress;
      Array.iter (maybe_compact st) st.stores;
      Obs.Counter.incr c_balance;
      if tracing then
        Obs.Trace.instant trace ~cat:"clocktree.repair"
          ~args:[ ("cycle", Obs.Json.Int !iter) ]
          "balance_pass";
      let processed = balance st w ~dense ~conflicts ~adjusted ~added in
      incr cycles;
      evaluate st w ~dense;
      let bad = violations st w ~slack in
      if tracing then
        Obs.Trace.journal trace
          (Obs.Json.Obj
             [
               ("type", Obs.Json.String "repair_cycle");
               ("cycle", Obs.Json.Int !iter);
               ("processed", Obs.Json.Int processed);
               ("adjusted", Obs.Json.Int !adjusted);
               ("added_wire", Obs.Json.Float !added);
               ("within", Obs.Json.Bool (bad = 0));
             ]);
      if bad = 0 then finished := true
      else if !iter >= config.max_cycles then begin
        unresolved := bad;
        exhausted := true;
        Obs.Counter.incr c_exhausted;
        if tracing then
          Obs.Trace.instant trace ~cat:"clocktree.repair"
            ~args:[ ("cycle", Obs.Json.Int !iter) ]
            "budget_exhausted";
        finished := true
      end
      else begin
        Obs.Counter.incr c_lift;
        if tracing then
          Obs.Trace.instant trace ~cat:"clocktree.repair"
            ~args:
              [
                ("cycle", Obs.Json.Int !iter);
                ("added_wire", Obs.Json.Float !added);
              ]
            "lift_sweep";
        lift st w ~dense ~adjusted ~added;
        incr g_lifts;
        incr iter
      end
    done;
    Obs.Counter.add c_adjusted !adjusted;
    {
      added_wire = !added;
      adjusted_edges = !adjusted;
      conflict_nodes = !conflicts;
      lift_iterations = !lifts + !g_lifts;
      unresolved_groups = !unresolved;
      cycles = !cycles;
      budget_exhausted = !exhausted;
    }
  in
  if tracing then Obs.Trace.span trace ~cat:"clocktree.repair" "repair" go
  else go ()

let run ?config ?run (inst : Instance.t) (r : Tree.routed) =
  let a = Arena.of_routed inst.params ~rd:inst.rd r in
  let stats = run_arena ?config ?run inst a in
  (Arena.to_routed a, stats)
