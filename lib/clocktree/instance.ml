type t = {
  sinks : Sink.t array;
  n_groups : int;
  bound : float;
  group_bounds : float array option;
  params : Rc.Wire.params;
  source : Geometry.Pt.t;
  rd : float;
  diameter : float;
  bounds : floatarray;
}

(* Non-finite numbers are rejected up front: the spatial index cannot
   place a non-finite point, and a NaN anywhere else would route to a
   NaN tree.  Inlined, so the per-sink checks box no float. *)
let[@inline] finite what v =
  if not (Float.is_finite v) then
    invalid_arg (Printf.sprintf "Instance.make: non-finite %s" what)

let make ?(params = Rc.Wire.default) ?(rd = 100.) ?(bound = 0.) ?group_bounds
    ~source ~n_groups sinks =
  if Array.length sinks = 0 then invalid_arg "Instance.make: no sinks";
  if n_groups <= 0 then invalid_arg "Instance.make: n_groups must be positive";
  finite "skew bound" bound;
  if bound < 0. then invalid_arg "Instance.make: negative skew bound";
  finite "source x" source.Geometry.Pt.x;
  finite "source y" source.Geometry.Pt.y;
  finite "driver resistance" rd;
  if rd < 0. then invalid_arg "Instance.make: negative driver resistance";
  finite "wire resistance" params.Rc.Wire.r;
  finite "wire capacitance" params.Rc.Wire.c;
  (match group_bounds with
   | Some bs ->
     if Array.length bs <> n_groups then
       invalid_arg "Instance.make: group_bounds length mismatch";
     Array.iter
       (fun b ->
         finite "group bound" b;
         if b < 0. then invalid_arg "Instance.make: negative group bound")
       bs
   | None -> ());
  Array.iteri
    (fun i (s : Sink.t) ->
      if s.id <> i then invalid_arg "Instance.make: sink ids must be dense";
      finite "sink x" s.loc.x;
      finite "sink y" s.loc.y;
      finite "sink capacitance" s.cap;
      if s.cap < 0. then invalid_arg "Instance.make: negative sink capacitance";
      if s.group < 0 || s.group >= n_groups then
        invalid_arg "Instance.make: sink group out of range")
    sinks;
  (* Finite coordinates can still be too far apart to route: the L1
     extent of sinks plus source, or the delay of a wire spanning it,
     overflows to infinity, and the router would then meet an infinite
     grid cell or subtract infinities into a NaN tree.  A plain min/max
     loop (every number is finite by now): this runs on every parsed
     instance. *)
  let x0 = ref source.x and x1 = ref source.x in
  let y0 = ref source.y and y1 = ref source.y in
  let load = ref 0. in
  (* The same loop folds the sinks' L1 diameter, [Octagon.diameter] of
     their bounding box bit for bit: min/max folds over the rotated
     coordinates from the first sink on, accumulator first, and the same
     final subtraction.  It is read per plan, so it is folded here
     once. *)
  let p0 = sinks.(0).loc in
  let sl = ref (Geometry.Pt.s p0) and dl = ref (Geometry.Pt.d p0) in
  let sh = ref !sl and dh = ref !dl in
  for i = 0 to Array.length sinks - 1 do
    let p = sinks.(i).loc in
    if p.x < !x0 then x0 := p.x;
    if p.x > !x1 then x1 := p.x;
    if p.y < !y0 then y0 := p.y;
    if p.y > !y1 then y1 := p.y;
    let s = Geometry.Pt.s p and d = Geometry.Pt.d p in
    sl := Float.min !sl s;
    sh := Float.max !sh s;
    dl := Float.min !dl d;
    dh := Float.max !dh d;
    load := !load +. sinks.(i).cap
  done;
  let diameter = Float.max (!sh -. !sl) (!dh -. !dl) in
  let extent = !x1 -. !x0 +. (!y1 -. !y0) in
  finite "extent" extent;
  let wire = Rc.Elmore.wire_delay params ~len:extent ~load:!load in
  finite "wire delay across the extent" wire;
  (* Finite is not enough: far beyond any clock's delays (the largest
     generated instances stay under 1e10 ps), rounding dwarfs every skew
     bound and repair snakes toward infinite wire. *)
  let driver = Rc.Elmore.driver_delay ~rd ~load:(!load +. Rc.Wire.cap params extent) in
  if not (driver +. wire <= 1e15) then
    invalid_arg "Instance.make: delay across the extent above 1e15 ps";
  (* Every group's bound in one flat column, so [bound_for] is one
     unboxed read: a match joining a [group_bounds] read with the boxed
     [bound] field would box its result in every inlined caller. *)
  let bounds =
    match group_bounds with
    | Some bs -> Float.Array.map_from_array Fun.id bs
    | None -> Float.Array.make n_groups bound
  in
  { sinks; n_groups; bound; group_bounds; params; source; rd; diameter; bounds }

let[@inline] bound_for t g = Float.Array.get t.bounds g

let n_sinks t = Array.length t.sinks

(* One region per thousand sinks: the density target every
   region-parallel phase sizes itself by. *)
let auto_regions n = Int.max 1 ((n + 999) / 1000)

let group_sinks t g =
  Array.to_list (Array.of_seq (Seq.filter (fun (s : Sink.t) -> s.group = g)
                                 (Array.to_seq t.sinks)))

let group_sizes t =
  let sizes = Array.make t.n_groups 0 in
  Array.iter (fun (s : Sink.t) -> sizes.(s.group) <- sizes.(s.group) + 1) t.sinks;
  sizes

let bbox t =
  Array.fold_left
    (fun acc (s : Sink.t) -> Geometry.Octagon.hull acc (Geometry.Octagon.of_point s.loc))
    Geometry.Octagon.empty t.sinks

let diameter t = t.diameter

let pp ppf t =
  Format.fprintf ppf "%d sinks, %d groups, bound %gps, %a" (n_sinks t)
    t.n_groups t.bound Rc.Wire.pp t.params
