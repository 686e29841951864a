(* Tests for the geometry kernel: canonical octagons, distances, SDRs and
   the spatial grid.  The qcheck properties pin down the exactness claims
   the DME engine relies on. *)

open Geometry

let pt = Pt.make

let check_float msg expected actual =
  Alcotest.(check (float 1e-6)) msg expected actual

(* --- Pt ----------------------------------------------------------------- *)

let test_pt_dist () =
  check_float "L1 dist" 7. (Pt.dist (pt 0. 0.) (pt 3. 4.));
  check_float "Linf dist" 4. (Pt.dist_linf (pt 0. 0.) (pt 3. 4.));
  check_float "rotated s" 7. (Pt.s (pt 3. 4.));
  check_float "rotated d" (-1.) (Pt.d (pt 3. 4.));
  let p = pt 3. 4. in
  Alcotest.(check bool) "of_sd inverse" true (Pt.equal p (Pt.of_sd (Pt.s p) (Pt.d p)))

(* --- Interval ----------------------------------------------------------- *)

let test_interval () =
  let a = Interval.make 0. 4. and b = Interval.make 6. 9. in
  check_float "gap" 2. (Interval.gap a b);
  check_float "gap sym" 2. (Interval.gap b a);
  check_float "overlap gap" 0. (Interval.gap a (Interval.make 3. 5.));
  Alcotest.(check bool) "empty" true (Interval.is_empty (Interval.make 2. 1.));
  Alcotest.(check bool)
    "inter" true
    (Interval.equal (Interval.inter a (Interval.make 2. 9.)) (Interval.make 2. 4.));
  check_float "width" 4. (Interval.width a);
  check_float "clamp low" 0. (Interval.clamp a (-3.));
  check_float "clamp high" 4. (Interval.clamp a 9.)

(* --- Octagon: construction and canonical form --------------------------- *)

let test_octagon_canonical () =
  (* Triangle x >= 0, y >= 0, x + y <= 2: the x and y upper bounds must be
     tightened to 2 by closure. *)
  let o =
    Octagon.of_bounds ~xl:0. ~xh:10. ~yl:0. ~yh:10. ~sl:Float.neg_infinity
      ~sh:2. ~dl:Float.neg_infinity ~dh:Float.infinity
  in
  match Octagon.bounds o with
  | None -> Alcotest.fail "triangle should not be empty"
  | Some b ->
    check_float "xh tightened" 2. b.xh;
    check_float "yh tightened" 2. b.yh;
    check_float "sl tightened" 0. b.sl;
    check_float "dl tightened" (-2.) b.dl;
    check_float "dh tightened" 2. b.dh

let test_octagon_empty () =
  let o =
    Octagon.of_bounds ~xl:0. ~xh:1. ~yl:0. ~yh:1. ~sl:10. ~sh:20.
      ~dl:Float.neg_infinity ~dh:Float.infinity
  in
  Alcotest.(check bool) "inconsistent bounds are empty" true (Octagon.is_empty o);
  Alcotest.(check bool) "empty is empty" true (Octagon.is_empty Octagon.empty);
  let a = Octagon.of_point (pt 0. 0.) and b = Octagon.of_point (pt 5. 5.) in
  Alcotest.(check bool) "disjoint inter" true (Octagon.is_empty (Octagon.inter a b))

let test_octagon_point () =
  let p = pt 3. 7. in
  let o = Octagon.of_point p in
  Alcotest.(check bool) "contains itself" true (Octagon.contains o p);
  Alcotest.(check bool) "is_point" true (Octagon.is_point o);
  check_float "dist to other point" 9. (Octagon.dist_pt o (pt 10. 9.));
  Alcotest.(check bool) "center" true (Pt.equal p (Octagon.center o))

let test_octagon_box () =
  let o = Octagon.box (pt 0. 0.) (pt 4. 3.) in
  Alcotest.(check bool) "contains corner" true (Octagon.contains o (pt 4. 0.));
  Alcotest.(check bool) "contains mid" true (Octagon.contains o (pt 2. 1.5));
  Alcotest.(check bool) "excludes outside" false (Octagon.contains o (pt 5. 1.));
  check_float "area" 12. (Octagon.area o);
  check_float "diameter" 7. (Octagon.diameter o);
  Alcotest.(check int) "4 vertices" 4 (List.length (Octagon.vertices o))

let test_octagon_segment () =
  let arc = Octagon.of_segment (pt 0. 4.) (pt 4. 0.) in
  Alcotest.(check bool) "midpoint on arc" true (Octagon.contains arc (pt 2. 2.));
  Alcotest.(check bool) "off-arc point" false (Octagon.contains arc (pt 2. 3.));
  check_float "arc area" 0. (Octagon.area arc);
  check_float "arc diameter" 8. (Octagon.diameter arc);
  Alcotest.check_raises "non-octilinear rejected"
    (Invalid_argument "Octagon.of_segment: (0, 0)-(5, 2) is not octilinear")
    (fun () -> ignore (Octagon.of_segment (pt 0. 0.) (pt 5. 2.)))

let test_octagon_ball () =
  let o = Octagon.ball (pt 5. 5.) 2. in
  Alcotest.(check bool) "corner" true (Octagon.contains o (pt 7. 5.));
  Alcotest.(check bool) "diag outside" false (Octagon.contains o (pt 6.5 6.5));
  check_float "ball area" 8. (Octagon.area o)

let test_octagon_dist_segments () =
  (* Two parallel horizontal segments offset vertically. *)
  let a = Octagon.of_segment (pt 0. 0.) (pt 10. 0.) in
  let b = Octagon.of_segment (pt 0. 5.) (pt 10. 5.) in
  check_float "parallel segments" 5. (Octagon.dist a b);
  (* Shifted apart horizontally: L1 distance adds the gaps. *)
  let c = Octagon.of_segment (pt 20. 7.) (pt 30. 7.) in
  check_float "diagonal offset" 17. (Octagon.dist a c);
  (* Overlapping regions have distance 0. *)
  let d = Octagon.box (pt 5. (-1.)) (pt 6. 1.) in
  check_float "overlap" 0. (Octagon.dist a d)

let test_octagon_inflate () =
  let a = Octagon.of_point (pt 0. 0.) in
  let t = Octagon.inflate 3. a in
  check_float "trr dist" 4. (Octagon.dist_pt t (pt 7. 0.));
  Alcotest.(check bool) "trr contains radius pt" true (Octagon.contains t (pt 1. 2.));
  (* Inflating by the full distance makes regions touch. *)
  let b = Octagon.of_point (pt 10. 0.) in
  let r = Octagon.dist a b in
  let meet = Octagon.inter (Octagon.inflate 4. a) (Octagon.inflate (r -. 4.) b) in
  Alcotest.(check bool) "trr intersection nonempty" false (Octagon.is_empty meet);
  Alcotest.(check bool) "meeting point" true (Octagon.contains meet (pt 4. 0.))

let test_octagon_nearest_point () =
  let o = Octagon.box (pt 0. 0.) (pt 4. 4.) in
  let p = pt 10. 2. in
  let q = Octagon.nearest_point o p in
  Alcotest.(check bool) "nearest inside" true (Octagon.contains o q);
  Alcotest.(check (float 1e-4)) "nearest dist" (Octagon.dist_pt o p)
    (Pt.dist p q);
  let inside = pt 1. 1. in
  Alcotest.(check bool) "inside point maps to itself" true
    (Pt.equal inside (Octagon.nearest_point o inside))

let test_octagon_sdr () =
  (* SDR of two points is their bounding box. *)
  let a = Octagon.of_point (pt 0. 0.) and b = Octagon.of_point (pt 6. 4.) in
  let s = Octagon.sdr a b in
  Alcotest.(check bool) "sdr contains interior staircase pt" true
    (Octagon.contains s (pt 3. 2.));
  Alcotest.(check bool) "sdr contains corner" true (Octagon.contains s (pt 6. 0.));
  Alcotest.(check bool) "sdr excludes detour" false (Octagon.contains s (pt 3. 5.));
  check_float "sdr area" 24. (Octagon.area s);
  (* Every SDR point is on a shortest path. *)
  let c = Octagon.center s in
  check_float "center splits distance" (Octagon.dist a b)
    (Octagon.dist_pt a c +. Octagon.dist_pt b c)

let test_octagon_hull () =
  let a = Octagon.of_point (pt 0. 0.) and b = Octagon.of_point (pt 4. 0.) in
  let h = Octagon.hull a b in
  Alcotest.(check bool) "hull contains mid" true (Octagon.contains h (pt 2. 0.));
  Alcotest.(check bool) "hull excludes off-line" false (Octagon.contains h (pt 2. 1.));
  let h2 = Octagon.hull_list [ a; b; Octagon.of_point (pt 2. 2.) ] in
  Alcotest.(check bool) "hull_list grows" true (Octagon.contains h2 (pt 2. 1.))

let test_octagon_translate () =
  let o = Octagon.box (pt 0. 0.) (pt 2. 2.) in
  let t = Octagon.translate (pt 10. (-5.)) o in
  Alcotest.(check bool) "translated corner" true (Octagon.contains t (pt 12. (-3.)));
  Alcotest.(check bool) "old corner gone" false (Octagon.contains t (pt 0. 0.))

(* --- qcheck properties --------------------------------------------------- *)

let coord = QCheck.Gen.float_range (-1000.) 1000.

let gen_pt = QCheck.Gen.map2 pt coord coord

(* Random octagon as the octilinear hull of 1-5 random points; the
   generating points are recorded so membership witnesses are available. *)
let gen_oct_with_pts =
  QCheck.Gen.(
    list_size (int_range 1 5) gen_pt >|= fun pts ->
    (Octagon.hull_list (List.map Octagon.of_point pts), pts))

let arb_oct_with_pts =
  QCheck.make
    ~print:(fun (o, _) -> Format.asprintf "%a" Octagon.pp o)
    gen_oct_with_pts

let arb_two_octs =
  QCheck.make
    ~print:(fun ((a, _), (b, _)) ->
      Format.asprintf "%a / %a" Octagon.pp a Octagon.pp b)
    QCheck.Gen.(pair gen_oct_with_pts gen_oct_with_pts)

let arb_oct_and_pt =
  QCheck.make
    ~print:(fun ((o, _), p) ->
      Format.asprintf "%a / %a" Octagon.pp o Pt.pp p)
    QCheck.Gen.(pair gen_oct_with_pts gen_pt)

let prop_generators_contained =
  QCheck.Test.make ~name:"hull contains generating points" ~count:300
    arb_oct_with_pts (fun (o, pts) ->
      List.for_all (Octagon.contains o) pts)

let prop_pick_point_inside =
  QCheck.Test.make ~name:"pick_point lies inside" ~count:300 arb_oct_with_pts
    (fun (o, _) -> Octagon.contains o (Octagon.pick_point o))

let prop_dist_lower_bound =
  QCheck.Test.make ~name:"dist is a lower bound on point pairs" ~count:300
    arb_two_octs (fun ((a, pas), (b, pbs)) ->
      let d = Octagon.dist a b in
      List.for_all
        (fun pa -> List.for_all (fun pb -> Pt.dist pa pb +. 1e-6 >= d) pbs)
        pas)

let prop_closest_pair_realizes_dist =
  QCheck.Test.make ~name:"closest_pair realizes dist" ~count:300 arb_two_octs
    (fun ((a, _), (b, _)) ->
      let d = Octagon.dist a b in
      let pa, pb = Octagon.closest_pair a b in
      Octagon.contains a pa && Octagon.contains b pb
      && Float.abs (Pt.dist pa pb -. d) <= 1e-4)

let prop_nearest_point_exact =
  QCheck.Test.make ~name:"nearest_point realizes dist_pt" ~count:300
    arb_oct_and_pt (fun ((o, _), p) ->
      let q = Octagon.nearest_point o p in
      Octagon.contains o q
      && Float.abs (Pt.dist p q -. Octagon.dist_pt o p) <= 1e-4)

let prop_inflate_shrinks_dist =
  QCheck.Test.make ~name:"inflating by r reduces dist by r" ~count:300
    QCheck.(
      pair arb_two_octs (QCheck.make (QCheck.Gen.float_range 0. 500.)))
    (fun (((a, _), (b, _)), r) ->
      let d = Octagon.dist a b in
      let d' = Octagon.dist (Octagon.inflate r a) b in
      Float.abs (d' -. Float.max 0. (d -. r)) <= 1e-6)

let prop_inter_sound =
  QCheck.Test.make ~name:"intersection members belong to both" ~count:300
    arb_two_octs (fun ((a, _), (b, _)) ->
      let i = Octagon.inter a b in
      if Octagon.is_empty i then Octagon.dist a b >= -.1e-6
      else
        let p = Octagon.pick_point i in
        Octagon.contains a p && Octagon.contains b p)

let prop_inter_empty_iff_positive_dist =
  QCheck.Test.make ~name:"empty intersection iff positive distance"
    ~count:300 arb_two_octs (fun ((a, _), (b, _)) ->
      let d = Octagon.dist a b in
      let i = Octagon.inter a b in
      if Octagon.is_empty i then d > -.1e-6 else d <= 1e-6)

let prop_sdr_points_on_shortest_paths =
  QCheck.Test.make ~name:"sdr vertices split the distance" ~count:200
    arb_two_octs (fun ((a, _), (b, _)) ->
      let d = Octagon.dist a b in
      let s = Octagon.sdr a b in
      (not (Octagon.is_empty s))
      && List.for_all
           (fun p ->
             Float.abs (Octagon.dist_pt a p +. Octagon.dist_pt b p -. d)
             <= 1e-4)
           (Octagon.center s :: Octagon.vertices s))

(* --- octagon kernel bit-exactness ------------------------------------------ *)

(* The octagon kernel as it stood before it was unboxed: the closure on a
   looped 4x4 matrix, [inter]/[inflate]/[hull] on bounds records with the
   stdlib [Float.min]/[Float.max], and [sdr] as a fold over a list of 17
   slices.  [None] is the empty octagon.  The unboxed kernel must agree
   with it bit for bit, signed zeros and infinities included. *)
module Ref_octagon = struct
  type b = Octagon.bounds = {
    xl : float;
    xh : float;
    yl : float;
    yh : float;
    sl : float;
    sh : float;
    dl : float;
    dh : float;
  }

  let bar i = i lxor 1

  let closure b =
    let inf = Float.infinity in
    let m = Float.Array.make 16 inf in
    let get i j = Float.Array.get m ((i * 4) + j) in
    let set i j v = Float.Array.set m ((i * 4) + j) v in
    for i = 0 to 3 do
      set i i 0.
    done;
    let tighten i j v = if v < get i j then set i j v in
    tighten 0 1 (2. *. b.xh);
    tighten 1 0 (-2. *. b.xl);
    tighten 2 3 (2. *. b.yh);
    tighten 3 2 (-2. *. b.yl);
    tighten 0 3 b.sh;
    tighten 2 1 b.sh;
    tighten 1 2 (-.b.sl);
    tighten 3 0 (-.b.sl);
    tighten 0 2 b.dh;
    tighten 3 1 b.dh;
    tighten 2 0 (-.b.dl);
    tighten 1 3 (-.b.dl);
    for k = 0 to 3 do
      for i = 0 to 3 do
        for j = 0 to 3 do
          let via = get i k +. get k j in
          if via < get i j then set i j via
        done
      done
    done;
    for i = 0 to 3 do
      for j = 0 to 3 do
        let v = (get i (bar i) +. get (bar j) j) /. 2. in
        if v < get i j then set i j v
      done
    done;
    let tol = Geometry.Eps.tol in
    if get 0 0 < -.tol || get 1 1 < -.tol || get 2 2 < -.tol || get 3 3 < -.tol
    then None
    else
      Some
        {
          xl = -.(get 1 0) /. 2.;
          xh = get 0 1 /. 2.;
          yl = -.(get 3 2) /. 2.;
          yh = get 2 3 /. 2.;
          sl = -.(get 1 2);
          sh = get 0 3;
          dl = -.(get 2 0);
          dh = get 0 2;
        }

  let inter a b =
    match (a, b) with
    | None, _ | _, None -> None
    | Some a, Some b ->
      closure
        {
          xl = Float.max a.xl b.xl;
          xh = Float.min a.xh b.xh;
          yl = Float.max a.yl b.yl;
          yh = Float.min a.yh b.yh;
          sl = Float.max a.sl b.sl;
          sh = Float.min a.sh b.sh;
          dl = Float.max a.dl b.dl;
          dh = Float.min a.dh b.dh;
        }

  let hull a b =
    match (a, b) with
    | None, o | o, None -> o
    | Some a, Some b ->
      Some
        {
          xl = Float.min a.xl b.xl;
          xh = Float.max a.xh b.xh;
          yl = Float.min a.yl b.yl;
          yh = Float.max a.yh b.yh;
          sl = Float.min a.sl b.sl;
          sh = Float.max a.sh b.sh;
          dl = Float.min a.dl b.dl;
          dh = Float.max a.dh b.dh;
        }

  let inflate r o =
    let r = Float.max 0. r in
    Option.map
      (fun b ->
        {
          xl = b.xl -. r;
          xh = b.xh +. r;
          yl = b.yl -. r;
          yh = b.yh +. r;
          sl = b.sl -. r;
          sh = b.sh +. r;
          dl = b.dl -. r;
          dh = b.dh +. r;
        })
      o

  let dist a b =
    let g = b.xl -. a.xh in
    let g = Float.max g (a.xl -. b.xh) in
    let g = Float.max g (b.yl -. a.yh) in
    let g = Float.max g (a.yl -. b.yh) in
    let g = Float.max g (b.sl -. a.sh) in
    let g = Float.max g (a.sl -. b.sh) in
    let g = Float.max g (b.dl -. a.dh) in
    let g = Float.max g (a.dl -. b.dh) in
    Float.max 0. g

  let sdr ba bb =
    let a = Some ba and b = Some bb in
    let r = dist ba bb in
    if r <= Geometry.Eps.tol then inter a b
    else
      let slice t =
        let t = Geometry.Eps.clamp 0. r t in
        inter (inflate t a) (inflate (r -. t) b)
      in
      let critical ha hb = (hb -. ha +. r) /. 2. in
      let critical_ts =
        [
          critical ba.xh bb.xh;
          critical (-.ba.xl) (-.bb.xl);
          critical ba.yh bb.yh;
          critical (-.ba.yl) (-.bb.yl);
          critical ba.sh bb.sh;
          critical (-.ba.sl) (-.bb.sl);
          critical ba.dh bb.dh;
          critical (-.ba.dl) (-.bb.dl);
        ]
      in
      let uniform_ts = List.init 9 (fun i -> r *. float_of_int i /. 8.) in
      List.fold_left
        (fun acc t -> hull acc (slice t))
        None (critical_ts @ uniform_ts)
end

let same_bits (a : Octagon.bounds option) (b : Octagon.bounds option) =
  match (a, b) with
  | None, None -> true
  | Some a, Some b ->
    List.for_all2
      (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
      [ a.xl; a.xh; a.yl; a.yh; a.sl; a.sh; a.dl; a.dh ]
      [ b.xl; b.xh; b.yl; b.yh; b.sl; b.sh; b.dl; b.dh ]
  | _ -> false

let pp_bounds_opt ppf = function
  | None -> Format.fprintf ppf "<empty>"
  | Some (b : Octagon.bounds) ->
    Format.fprintf ppf "{%h %h %h %h %h %h %h %h}" b.xl b.xh b.yl b.yh b.sl b.sh
      b.dl b.dh

(* Half-unit lattice values, both zeros among them, so that equal sums,
   ties between operands and signed-zero results are common. *)
let lattice =
  QCheck.Gen.(
    frequency
      [
        (1, return (-0.));
        (8, int_range (-12) 12 >|= fun k -> float_of_int k /. 2.);
      ])

(* A raw bound: mostly lattice, sometimes absent (infinite) or nudged
   by about the closure tolerance, which puts the emptiness test right
   at its threshold. *)
let raw_bound =
  QCheck.Gen.(
    frequency
      [
        (8, lattice);
        (1, oneofl [ Float.infinity; Float.neg_infinity ]);
        ( 2,
          map2 ( +. ) lattice
            (oneofl [ 4e-7; -4e-7; 5e-7; 1e-6; -1e-6; 3e-6 ]) );
      ])

let gen_raw_bounds =
  QCheck.Gen.(
    let* xl = raw_bound and* xh = raw_bound in
    let* yl = raw_bound and* yh = raw_bound in
    let* sl = raw_bound and* sh = raw_bound in
    let* dl = raw_bound and* dh = raw_bound in
    return Octagon.{ xl; xh; yl; yh; sl; sh; dl; dh })

(* A near-degenerate box: the lower bounds just above the upper ones,
   empty or not depending on the tolerance test. *)
let gen_near_empty =
  QCheck.Gen.(
    let* x = lattice and* y = lattice in
    let* dx = oneofl [ 0.; 2e-7; 5e-7; 6e-7; 2e-6 ] in
    let* dy = oneofl [ 0.; 2e-7; 5e-7; 6e-7; 2e-6 ] in
    return
      Octagon.
        {
          xl = x +. dx;
          xh = x;
          yl = y +. dy;
          yh = y;
          sl = Float.neg_infinity;
          sh = Float.infinity;
          dl = Float.neg_infinity;
          dh = Float.infinity;
        })

let of_raw (b : Octagon.bounds) =
  Octagon.of_bounds ~xl:b.xl ~xh:b.xh ~yl:b.yl ~yh:b.yh ~sl:b.sl ~sh:b.sh ~dl:b.dl
    ~dh:b.dh

let lattice_pt = QCheck.Gen.map2 pt lattice lattice

(* Octagons of every shape the router builds: lattice points, boxes
   (infinite s/d bounds), octilinear segments, balls, closed raw bounds
   (possibly empty or near-empty) and hulls of random points. *)
let gen_kernel_oct =
  QCheck.Gen.(
    frequency
      [
        (2, lattice_pt >|= Octagon.of_point);
        (2, map2 Octagon.box lattice_pt lattice_pt);
        ( 2,
          let* p = lattice_pt and* d = lattice in
          let* dir = oneofl [ (1., 0.); (0., 1.); (1., 1.); (1., -1.) ] in
          let q = pt (p.x +. (d *. fst dir)) (p.y +. (d *. snd dir)) in
          return (Octagon.of_segment p q)
        );
        (1, map2 Octagon.ball lattice_pt (lattice >|= Float.abs));
        (2, gen_raw_bounds >|= of_raw);
        (1, gen_near_empty >|= of_raw);
        (1, gen_oct_with_pts >|= fst);
      ])

let arb_kernel_pair =
  QCheck.make
    ~print:(fun (a, b) -> Format.asprintf "%a / %a" Octagon.pp a Octagon.pp b)
    QCheck.Gen.(pair gen_kernel_oct gen_kernel_oct)

let prop_of_bounds_bit_exact =
  QCheck.Test.make ~name:"of_bounds = looped closure, bit for bit" ~count:2000
    (QCheck.make
       ~print:(fun b -> Format.asprintf "%a" pp_bounds_opt (Some b))
       QCheck.Gen.(frequency [ (3, gen_raw_bounds); (1, gen_near_empty) ]))
    (fun b -> same_bits (Octagon.bounds (of_raw b)) (Ref_octagon.closure b))

let prop_inter_bit_exact =
  QCheck.Test.make ~name:"inter = looped closure, bit for bit" ~count:2000
    arb_kernel_pair (fun (a, b) ->
      same_bits
        (Octagon.bounds (Octagon.inter a b))
        (Ref_octagon.inter (Octagon.bounds a) (Octagon.bounds b)))

let prop_sdr_bit_exact =
  QCheck.Test.make ~name:"sdr = list of 17 slices, bit for bit" ~count:2000
    arb_kernel_pair (fun (a, b) ->
      match (Octagon.bounds a, Octagon.bounds b) with
      | Some ba, Some bb ->
        same_bits (Octagon.bounds (Octagon.sdr a b)) (Ref_octagon.sdr ba bb)
      | _ -> QCheck.assume_fail ())

(* Pairs whose slices repeat a t: identical octagons, translated copies
   (every critical t equal), touching ones (b shifted along an axis or
   a diagonal by exactly a's extent, distance 0 through a shared
   boundary) and two points.  [sdr] takes each distinct t once; the
   17-slice fold must still agree bit for bit. *)
let prop_sdr_dedup_bit_exact =
  let gen =
    QCheck.Gen.(
      let* a = gen_kernel_oct in
      let* p = lattice_pt and* q = lattice_pt in
      let* shape = int_range 0 3 in
      let b =
        match (shape, Octagon.bounds a) with
        | 0, _ -> a
        | 1, _ -> Octagon.translate p a
        | 2, Some ba ->
          let w = ba.xh -. ba.xl and h = ba.yh -. ba.yl in
          let v = if Float.is_finite (w +. h) then pt w (if q.x > 0. then h else 0.) else p in
          Octagon.translate v a
        | _ -> Octagon.of_point q
      in
      let a = if shape = 3 then Octagon.of_point p else a in
      return (a, b))
  in
  QCheck.Test.make ~name:"deduplicated sdr = 17-slice hull, bit for bit" ~count:2000
    (QCheck.make
       ~print:(fun (a, b) -> Format.asprintf "%a / %a" Octagon.pp a Octagon.pp b)
       gen)
    (fun (a, b) ->
      match (Octagon.bounds a, Octagon.bounds b) with
      | Some ba, Some bb ->
        same_bits (Octagon.bounds (Octagon.sdr a b)) (Ref_octagon.sdr ba bb)
      | _ -> QCheck.assume_fail ())

(* The merge kernels' fused region operations against the octagon
   values they replace: [within] is inflate/inflate/inter and
   [sdr_within] the SDR intersected with that, bit for bit, with
   radii that are zero, negative (clamped to zero) or either side's
   distance. *)
let prop_within_bit_exact =
  let radius = QCheck.Gen.(oneof [ oneofl [ 0.; -0.; -1. ]; lattice >|= Float.abs ]) in
  QCheck.Test.make ~name:"within/sdr_within = inflate, inter and sdr, bit for bit"
    ~count:2000
    (QCheck.make
       ~print:(fun ((a, b), (ra, rb)) ->
         Format.asprintf "%a / %a, ra=%g rb=%g" Octagon.pp a Octagon.pp b ra rb)
       QCheck.Gen.(pair (pair gen_kernel_oct gen_kernel_oct) (pair radius radius)))
    (fun ((a, b), (ra, rb)) ->
      let inflated = Octagon.inter (Octagon.inflate ra a) (Octagon.inflate rb b) in
      same_bits (Octagon.bounds (Octagon.within ~ra a ~rb b)) (Octagon.bounds inflated)
      &&
      match (Octagon.is_empty a, Octagon.is_empty b) with
      | false, false ->
        let d = Octagon.dist a b in
        List.for_all
          (fun (ra, rb) ->
            same_bits
              (Octagon.bounds (Octagon.sdr_within a b ~ra ~rb))
              (Octagon.bounds
                 (Octagon.inter (Octagon.sdr a b)
                    (Octagon.inter (Octagon.inflate ra a) (Octagon.inflate rb b)))))
          [ (ra, rb); (d, 0.); (d /. 2., d /. 2.); (ra, d -. ra) ]
      | _ -> true)

let prop_diameter =
  QCheck.Test.make ~name:"diameter bounds generating point spread" ~count:300
    arb_oct_with_pts (fun (o, pts) ->
      let dia = Octagon.diameter o in
      List.for_all
        (fun p -> List.for_all (fun q -> Pt.dist p q <= dia +. 1e-6) pts)
        pts)

let prop_vertices_inside =
  QCheck.Test.make ~name:"vertices lie inside" ~count:300 arb_oct_with_pts
    (fun (o, _) -> List.for_all (Octagon.contains o) (Octagon.vertices o))

(* Brute-force cross-check of dist_pt: sample a fine grid over the
   bounding box and compare the best sampled distance with the closed
   form.  The grid only bounds from above, so allow the grid pitch as
   slack. *)
let prop_dist_pt_brute_force =
  QCheck.Test.make ~name:"dist_pt matches brute force" ~count:100
    arb_oct_and_pt (fun ((o, _), p) ->
      let xr = Octagon.x_range o and yr = Octagon.y_range o in
      let n = 24 in
      let pitch =
        Float.max (Interval.width xr) (Interval.width yr) /. float_of_int n
      in
      let best = ref Float.infinity in
      for i = 0 to n do
        for j = 0 to n do
          let q =
            pt
              (xr.lo +. (Interval.width xr *. float_of_int i /. float_of_int n))
              (yr.lo +. (Interval.width yr *. float_of_int j /. float_of_int n))
          in
          if Octagon.contains o q then best := Float.min !best (Pt.dist p q)
        done
      done;
      let d = Octagon.dist_pt o p in
      (* closed form is a lower bound and within 2 grid pitches above *)
      d <= !best +. 1e-6 && !best <= d +. (2. *. pitch) +. 1e-6)

(* Brute-force cross-check of the set-to-set distance: sample grids over
   both octagons and compare the best sampled pair against the closed
   form, which must bound from below and sit within the combined grid
   pitch above. *)
let prop_dist_brute_force =
  QCheck.Test.make ~name:"dist matches brute force" ~count:60 arb_two_octs
    (fun ((a, _), (b, _)) ->
      let samples o =
        let xr = Octagon.x_range o and yr = Octagon.y_range o in
        let n = 12 in
        let pts = ref [] in
        for i = 0 to n do
          for j = 0 to n do
            let q =
              pt
                (xr.lo +. (Interval.width xr *. float_of_int i /. float_of_int n))
                (yr.lo +. (Interval.width yr *. float_of_int j /. float_of_int n))
            in
            if Octagon.contains o q then pts := q :: !pts
          done
        done;
        let pitch =
          Float.max (Interval.width xr) (Interval.width yr) /. float_of_int n
        in
        (!pts, pitch)
      in
      let pa, pitch_a = samples a and pb, pitch_b = samples b in
      let best = ref Float.infinity in
      List.iter
        (fun p -> List.iter (fun q -> best := Float.min !best (Pt.dist p q)) pb)
        pa;
      let d = Octagon.dist a b in
      d <= !best +. 1e-6
      && !best <= d +. (2. *. (pitch_a +. pitch_b)) +. 1e-6)

let prop_inter_commutes =
  QCheck.Test.make ~name:"intersection commutes" ~count:300 arb_two_octs
    (fun ((a, _), (b, _)) ->
      Octagon.equal (Octagon.inter a b) (Octagon.inter b a))

let prop_dist_symmetric =
  QCheck.Test.make ~name:"dist is symmetric" ~count:300 arb_two_octs
    (fun ((a, _), (b, _)) ->
      Float.abs (Octagon.dist a b -. Octagon.dist b a) <= 1e-9)

(* Set distance obeys a triangle inequality once crossing the middle set
   is paid for: d(A,C) <= d(A,B) + diam(B) + d(B,C). *)
let prop_dist_triangle =
  QCheck.Test.make ~name:"dist triangle inequality through a set" ~count:200
    QCheck.(pair arb_two_octs arb_oct_with_pts)
    (fun (((a, _), (c, _)), (b, _)) ->
      Octagon.dist a c
      <= Octagon.dist a b +. Octagon.diameter b +. Octagon.dist b c +. 1e-6)

let gen_interval =
  QCheck.Gen.(map2 (fun a b -> Interval.make (Float.min a b) (Float.max a b))
                coord coord)

let arb_three_intervals =
  QCheck.make
    ~print:(fun ((a : Interval.t), (b : Interval.t), (c : Interval.t)) ->
      Printf.sprintf "[%g,%g] [%g,%g] [%g,%g]" a.lo a.hi b.lo b.hi c.lo c.hi)
    QCheck.Gen.(triple gen_interval gen_interval gen_interval)

let prop_interval_inter_commutes =
  QCheck.Test.make ~name:"interval intersection commutes" ~count:300
    arb_three_intervals (fun (a, b, _) ->
      let i = Interval.inter a b and j = Interval.inter b a in
      (Interval.is_empty i && Interval.is_empty j) || Interval.equal i j)

let prop_interval_gap_symmetric =
  QCheck.Test.make ~name:"interval gap is symmetric" ~count:300
    arb_three_intervals (fun (a, b, _) ->
      Float.abs (Interval.gap a b -. Interval.gap b a) <= 1e-9)

let prop_interval_gap_triangle =
  QCheck.Test.make ~name:"interval gap triangle through an interval"
    ~count:300 arb_three_intervals (fun (a, b, c) ->
      Interval.gap a c
      <= Interval.gap a b +. Interval.width b +. Interval.gap b c +. 1e-9)

let prop_hull_monotone =
  QCheck.Test.make ~name:"hull contains both operands" ~count:300 arb_two_octs
    (fun ((a, pas), (b, pbs)) ->
      let h = Octagon.hull a b in
      List.for_all (Octagon.contains h) (pas @ pbs))

let prop_translate_preserves_dist =
  QCheck.Test.make ~name:"translation preserves set distance" ~count:300
    QCheck.(pair arb_two_octs (QCheck.make gen_pt))
    (fun (((a, _), (b, _)), v) ->
      let d = Octagon.dist a b in
      let d' = Octagon.dist (Octagon.translate v a) (Octagon.translate v b) in
      Float.abs (d -. d') <= 1e-6)

(* --- Octslab -------------------------------------------------------------- *)

(* Canonical octagons on a half-unit lattice with [-0.] among the
   coordinates, so equal bounds, zero gaps and signed zeros all occur:
   points, octilinear segments, L1 balls and (non-empty) intersections of
   two of those. *)
let gen_lattice_oct =
  let open QCheck.Gen in
  let coord =
    frequency
      [ (3, map (fun k -> float_of_int k *. 0.5) (-3 -- 3)); (1, return (-0.)) ]
  in
  let point = map2 pt coord coord in
  let base =
    oneof
      [
        map Octagon.of_point point;
        (let* p = point in
         let* dx, dy =
           oneofl [ (1., 0.); (0., 1.); (1., 1.); (1., -1.) ]
         in
         let* len = map (fun k -> float_of_int k *. 0.5) (0 -- 3) in
         return (Octagon.of_segment p (pt (p.x +. (dx *. len)) (p.y +. (dy *. len)))));
        map2 Octagon.ball point (map (fun k -> float_of_int k *. 0.5) (0 -- 2));
      ]
  in
  frequency
    [
      (3, base);
      ( 1,
        map2
          (fun a b ->
            let o = Octagon.inter a b in
            if Octagon.is_empty o then a else o)
          base base );
    ]

let bits_of_bounds (b : Octagon.bounds) =
  List.map Int64.bits_of_float [ b.xl; b.xh; b.yl; b.yh; b.sl; b.sh; b.dl; b.dh ]

(* The slab kernels are the boxed ones bit for bit: distance (whose gap
   chain uses its own inlined max) and diameter, plus the set/get
   round-trip of the stored bounds. *)
let octslab_matches_octagon a b =
  let slab = Octslab.create 2 in
  Octslab.set slab 0 a;
  Octslab.set slab 1 b;
  let bits = Int64.bits_of_float in
  let same_bounds o slot =
    bits_of_bounds (Option.get (Octagon.bounds o))
    = bits_of_bounds (Option.get (Octagon.bounds (Octslab.get slab slot)))
  in
  bits (Octslab.dist slab 0 1) = bits (Octagon.dist a b)
  && bits (Octslab.dist slab 1 0) = bits (Octagon.dist b a)
  && bits (Octslab.diameter slab 0) = bits (Octagon.diameter a)
  && bits (Octslab.diameter slab 1) = bits (Octagon.diameter b)
  && same_bounds a 0 && same_bounds b 1

let prop_octslab_matches_octagon =
  QCheck.Test.make ~name:"Octslab = Octagon, bit for bit" ~count:2000
    (QCheck.make
       ~print:(fun (a, b) -> Format.asprintf "%a / %a" Octagon.pp a Octagon.pp b)
       QCheck.Gen.(pair gen_lattice_oct gen_lattice_oct))
    (fun (a, b) -> octslab_matches_octagon a b)

(* Touching points at [+0.] and [-0.]: the largest gap is [-0.], and the
   distance must still be [+0.] as Octagon.dist gives it. *)
let test_octslab_signed_zero () =
  let a = Octagon.of_point (pt 0. 0.) and b = Octagon.of_point (pt (-0.) (-0.)) in
  Alcotest.(check bool) "bit-identical at signed zeros" true
    (octslab_matches_octagon a b);
  let slab = Octslab.create 2 in
  Octslab.set slab 0 a;
  Octslab.set slab 1 b;
  List.iter
    (fun (i, j) ->
      Alcotest.(check int64) "distance is +0." (Int64.bits_of_float 0.)
        (Int64.bits_of_float (Octslab.dist slab i j)))
    [ (0, 1); (1, 0) ]

(* --- Grid index ---------------------------------------------------------- *)

(* The builder's own surface: values read back by id, [skip], and an
   [add] that replaces an id's entry (a move) re-packs before the next
   query. *)
let test_grid_basic () =
  let g = Grid_index.create ~cell:10. in
  Grid_index.add g ~id:1 (pt 0. 0.) "a";
  Grid_index.add g ~id:2 (pt 100. 0.) "b";
  Grid_index.add g ~id:3 (pt 3. 4.) "c";
  let answer ?skip k q =
    List.map
      (fun (id, (p : Pt.t), v) -> (id, (p.x, p.y), v))
      (fst (Grid_index.k_nearest_probe g ?skip q k))
  in
  let entries = Alcotest.(list (triple int (pair (float 0.) (float 0.)) string)) in
  Alcotest.check entries "nearest" [ (1, (0., 0.), "a") ] (answer 1 (pt 1. 1.));
  Alcotest.check entries "skip works" [ (3, (3., 4.), "c") ]
    (answer ~skip:(fun id -> id = 1) 1 (pt 1. 1.));
  Grid_index.add g ~id:3 (pt 300. 0.) "moved";
  Alcotest.check entries "a move replaces the entry"
    [ (1, (0., 0.), "a"); (2, (100., 0.), "b"); (3, (300., 0.), "moved") ]
    (answer 4 (pt 1. 1.))

let test_grid_probe_semantics () =
  let g = Grid_index.create ~cell:10. in
  Grid_index.add g ~id:1 (pt 0. 0.) ();
  Grid_index.add g ~id:2 (pt 5. 0.) ();
  Grid_index.add g ~id:3 (pt 40. 0.) ();
  (* k below the population: the heap fills, so the probe must report the
     k-th distance as its exclusion bound. *)
  (match Grid_index.k_nearest_probe g (pt 0. 0.) 2 with
   | [ (a, _, _); (b, _, _) ], Some bound ->
     Alcotest.(check (list int)) "k=2 order" [ 1; 2 ] [ a; b ];
     Alcotest.(check (float 1e-9)) "k=2 bound is kth distance" 5. bound
   | _ -> Alcotest.fail "expected 2 entries with a bound");
  (* k above the population: the heap can never fill, the scan is
     exhaustive and no bound is reported.  (At k = population the heap
     does fill and a — vacuously sound — bound comes back.) *)
  (match Grid_index.k_nearest_probe g (pt 0. 0.) 4 with
   | entries, None -> Alcotest.(check int) "k=4 exhaustive" 3 (List.length entries)
   | _, Some _ -> Alcotest.fail "exhaustive scan must not report a bound")

(* Distance ties rank by id.  Twelve points at L1 distance 20 from the
   query span rings 1 and 2 and share three cells; the answer must list
   them in id order whatever the ring walk visits first, and must come
   back unchanged after ids 2 and 3 move away and back (two re-packs of
   the builder). *)
let test_grid_tie_order () =
  let g = Grid_index.create ~cell:10. in
  let pts =
    [ (1, 25., 5.); (2, 15., -5.); (3, 5., 25.); (4, -5., -5.); (5, 10., -10.);
      (6, -15., 5.); (7, 15., 15.); (8, 0., 20.); (9, 5., -15.); (10, -5., 15.);
      (11, 12., -8.); (12, -10., 0.); (13, 6., 6.); (14, 40., 40.) ]
  in
  List.iter (fun (id, x, y) -> Grid_index.add g ~id (pt x y) ()) pts;
  let q = pt 5. 5. in
  let check tag k expect bound =
    let got, b = Grid_index.k_nearest_probe g q k in
    Alcotest.(check (list int)) (Printf.sprintf "%s k=%d order" tag k) expect
      (List.map (fun (id, _, _) -> id) got);
    Alcotest.(check (option (float 0.))) (Printf.sprintf "%s k=%d bound" tag k) bound b
  in
  let both tag =
    check tag 10 [ 13; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (Some 20.);
    check tag 13 [ 13; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 ] (Some 20.);
    check tag 20 [ 13; 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12; 14 ] None
  in
  both "initial";
  Grid_index.add g ~id:2 (pt 90. 90.) ();
  Grid_index.add g ~id:3 (pt (-90.) 90.) ();
  check "moved away" 10 [ 13; 1; 4; 5; 6; 7; 8; 9; 10; 11 ] (Some 20.);
  Grid_index.add g ~id:2 (pt 15. (-5.)) ();
  Grid_index.add g ~id:3 (pt 5. 25.) ();
  both "moved back"

let test_grid_preconditions () =
  List.iter
    (fun cell ->
      Alcotest.check_raises (Printf.sprintf "cell %g" cell)
        (Invalid_argument "Grid_index.create: cell must be positive and finite")
        (fun () -> ignore (Grid_index.create ~cell)))
    [ Float.nan; Float.infinity; 0.; -1. ];
  let g = Grid_index.create ~cell:10. in
  Grid_index.add g ~id:0 (pt 1. 1.) ();
  List.iter
    (fun p ->
      Alcotest.check_raises
        (Format.asprintf "add %a" Pt.pp p)
        (Invalid_argument "Grid_index: point coordinates must be finite")
        (fun () -> Grid_index.add g ~id:1 p ()))
    [ pt Float.nan 0.; pt 0. Float.infinity; pt Float.neg_infinity 0. ];
  Alcotest.(check (list int)) "rejected adds leave the index unchanged" [ 0 ]
    (List.map
       (fun (id, _, _) -> id)
       (fst (Grid_index.k_nearest_probe g (pt 500. (-500.)) 3)))

(* Re-celling is exact: the k-NN answer is a function of the stored
   (id, point) set, so two indexes that went through the same random
   churn of adds and moves (an [add] over a live id) interleaved with
   queries — one with cell [c], one with [7 c] — must give identical
   [k_nearest_probe] answers (ids, order and bound) at every query.
   Integer coordinates on a small box make exact distance ties the
   common case, inside one cell and across cells. *)
let prop_grid_answer_independent_of_cell =
  let gen =
    QCheck.Gen.(
      let* n_ops = int_range 5 150 in
      let* ops =
        list_repeat n_ops
          (quad (int_range 0 5) (int_range (-12) 12) (int_range (-12) 12) (int_range 0 40))
      in
      let* cell = oneofl [ 1.; 2.5; 4. ] in
      return (ops, cell))
  in
  let arb =
    QCheck.make
      ~print:(fun (ops, cell) -> Printf.sprintf "%d ops, cell=%g" (List.length ops) cell)
      gen
  in
  QCheck.Test.make ~name:"grid answer independent of cell size" ~count:200 arb
    (fun (ops, cell) ->
      let fine = Grid_index.create ~cell and coarse = Grid_index.create ~cell:(7. *. cell) in
      let live : (int, Pt.t) Hashtbl.t = Hashtbl.create 64 in
      let next = ref 0 in
      let answer g q k skip =
        let got, bound = Grid_index.k_nearest_probe g ~skip q k in
        (List.map (fun (id, (p : Pt.t), ()) -> (id, p.x, p.y)) got, bound)
      in
      List.for_all
        (fun (tag, x, y, z) ->
          let p = pt (float_of_int x) (float_of_int y) in
          match tag with
          | 0 | 1 | 2 ->
            let id = !next in
            incr next;
            Grid_index.add fine ~id p ();
            Grid_index.add coarse ~id p ();
            Hashtbl.replace live id p;
            true
          | 3 ->
            (* Move the z-th live id (mod population) to [p], if any. *)
            let ids = List.sort Int.compare (Hashtbl.fold (fun id _ acc -> id :: acc) live []) in
            (match ids with
             | [] -> ()
             | _ ->
               let id = List.nth ids (z mod List.length ids) in
               Grid_index.add fine ~id p ();
               Grid_index.add coarse ~id p ();
               Hashtbl.replace live id p);
            true
          | _ ->
            let k = 1 + (z mod 12) in
            let skip id = z mod 2 = 1 && id mod 3 = 0 in
            answer fine p k skip = answer coarse p k skip)
        ops)

(* The packed kernel against brute force.  A multiset of points — half
   on a unit lattice, so distance ties are common, some repeated
   outright, coordinates of both signs — is packed under sparse,
   shuffled ids into one snapshot reused across every case (so storage
   left over from a larger pack must not leak into a smaller one) and
   queried for every k from 1 to n + 1 at two cell sizes, from a query
   inside or outside the points' box, skipping one packed id or none.
   Ids, their order, distances, [kth] and [exhaustive] must be exactly
   the brute-force k smallest by (L1 distance, id). *)
let shared_snapshot = Grid_index.snapshot ()

(* Points of the k-NN properties: half on a unit lattice, some repeated
   outright, under sparse shuffled ids, and a query point inside or far
   outside their box. *)
let knn_case_gen =
  QCheck.Gen.(
    let* n = int_range 1 40 in
    let lattice =
      map2
        (fun x y -> pt (float_of_int x) (float_of_int y))
        (int_range (-6) 6) (int_range (-6) 6)
    in
    let loose = map2 pt (float_range (-6.) 6.) (float_range (-6.) 6.) in
    let* pts = list_repeat n (oneof [ lattice; loose ]) in
    (* Duplicate some points: the i-th may copy an earlier one. *)
    let* dups = list_repeat n (int_range 0 3) in
    let pts = Array.of_list pts in
    List.iteri (fun i d -> if i > 0 && d = 0 then pts.(i) <- pts.(i / 2)) dups;
    let* ids = shuffle_l (List.init n (fun i -> (7 * i) + 3)) in
    let far = map2 pt (float_range (-60.) 60.) (float_range (-60.) 60.) in
    let* q = oneof [ lattice; loose; far ] in
    let* cell = oneofl [ 0.5; 1.; 2.5 ] in
    let* salt = int_range 0 1000 in
    return (pts, Array.of_list ids, q, cell, salt))

let knn_case_print (pts, _, q, cell, salt) =
  Format.asprintf "%d pts, query %a, cell=%g salt=%d" (Array.length pts) Pt.pp q
    cell salt

(* The eligible entries ranked by (L1 distance, id). *)
let brute_knn pts ids q eligible =
  List.init (Array.length pts) (fun i -> (Pt.dist q pts.(i), ids.(i), pts.(i)))
  |> List.filter (fun (_, id, _) -> eligible id)
  |> List.sort (fun (d1, i1, _) (d2, i2, _) ->
         match Float.compare d1 d2 with 0 -> Int.compare i1 i2 | c -> c)
  |> Array.of_list

let prop_packed_knn_matches_brute_force =
  QCheck.Test.make ~name:"packed k-NN matches brute force" ~count:300
    (QCheck.make ~print:knn_case_print knn_case_gen)
    (fun (pts, ids, q, cell, salt) ->
      let n = Array.length pts in
      (* Skip one packed id on odd salts, nothing on even ones. *)
      let skip = if salt mod 2 = 1 then ids.(salt / 2 mod n) else -1 in
      let ranked = brute_knn pts ids q (fun id -> id <> skip) in
      let xs = Float.Array.map_from_array (fun (p : Pt.t) -> p.x) pts in
      let ys = Float.Array.map_from_array (fun (p : Pt.t) -> p.y) pts in
      let buf = Grid_index.knn_buffer () in
      List.for_all
        (fun c ->
          Grid_index.pack shared_snapshot ~cell:c ids xs ys n;
          List.for_all
            (fun k ->
              Grid_index.query shared_snapshot buf ~skip q k;
              let m = Int.min k (Array.length ranked) in
              buf.klen = m
              && List.for_all
                   (fun i ->
                     let d, id, _ = ranked.(i) in
                     buf.kids.(i) = id && Float.Array.get buf.kdist i = d)
                   (List.init m Fun.id)
              &&
              if Array.length ranked < k then buf.exhaustive && buf.kth = Float.infinity
              else
                (not buf.exhaustive)
                && buf.kth = (let d, _, _ = ranked.(k - 1) in d))
            (List.init (n + 1) (fun k -> k + 1)))
        [ cell; 8. *. cell ])

(* The list API against brute force under a predicate that skips many
   ids at once (every id in a salted residue class, the query's own
   nearest entries included), which the kernel's single skip id cannot
   express: entries, points and values, their order, and the exclusion
   bound — the k-th eligible distance, or [None] when fewer than [k]
   entries are eligible — for every k from 1 to n + 1. *)
let prop_list_knn_matches_brute_force =
  QCheck.Test.make ~name:"k_nearest_probe with a multi-id skip matches brute force"
    ~count:300
    (QCheck.make ~print:knn_case_print knn_case_gen)
    (fun (pts, ids, q, cell, salt) ->
      let n = Array.length pts in
      let modulus = 2 + (salt mod 3) and residue = salt mod 2 in
      let skip id = id mod modulus = residue in
      let ranked = brute_knn pts ids q (fun id -> not (skip id)) in
      let g = Grid_index.create ~cell in
      Array.iteri (fun i p -> Grid_index.add g ~id:ids.(i) p (-ids.(i))) pts;
      List.for_all
        (fun k ->
          let got, bound = Grid_index.k_nearest_probe g ~skip q k in
          let m = Int.min k (Array.length ranked) in
          got
          = List.init m (fun i ->
                let _, id, p = ranked.(i) in
                (id, p, -id))
          &&
          if Array.length ranked < k then bound = None
          else bound = Some (let d, _, _ = ranked.(k - 1) in d))
        (List.init (n + 1) (fun k -> k + 1)))

let test_pack_preconditions () =
  let s = Grid_index.snapshot () in
  let ids = [| 0; 1 |] in
  List.iter
    (fun (x, y) ->
      Alcotest.check_raises
        (Printf.sprintf "pack (%g, %g)" x y)
        (Invalid_argument "Grid_index: point coordinates must be finite")
        (fun () ->
          Grid_index.pack s ~cell:1. ids (Float.Array.of_list [ 0.; x ])
            (Float.Array.of_list [ 0.; y ]) 2))
    [ (Float.nan, 0.); (0., Float.infinity); (Float.neg_infinity, 0.) ];
  List.iter
    (fun cell ->
      Alcotest.check_raises (Printf.sprintf "pack cell %g" cell)
        (Invalid_argument "Grid_index.pack: cell must be positive and finite")
        (fun () ->
          Grid_index.pack s ~cell ids (Float.Array.make 2 0.) (Float.Array.make 2 0.) 2))
    [ Float.nan; Float.infinity; 0.; -1. ];
  (* An empty pack answers nothing; a query of a non-finite point
     against a non-empty one raises. *)
  let buf = Grid_index.knn_buffer () in
  Grid_index.pack s ~cell:1. [||] (Float.Array.create 0) (Float.Array.create 0) 0;
  Grid_index.query s buf ~skip:(-1) (pt 0. 0.) 3;
  Alcotest.(check (pair int bool)) "empty pack" (0, true) (buf.klen, buf.exhaustive);
  Grid_index.pack s ~cell:1. ids (Float.Array.make 2 0.) (Float.Array.make 2 0.) 2;
  Alcotest.check_raises "query at nan"
    (Invalid_argument "Grid_index: point coordinates must be finite")
    (fun () -> Grid_index.query s buf ~skip:(-1) (pt Float.nan 0.) 1)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "geometry"
    [
      ( "pt-interval",
        [
          Alcotest.test_case "pt distances" `Quick test_pt_dist;
          Alcotest.test_case "intervals" `Quick test_interval;
        ] );
      ( "octagon",
        [
          Alcotest.test_case "canonical closure" `Quick test_octagon_canonical;
          Alcotest.test_case "emptiness" `Quick test_octagon_empty;
          Alcotest.test_case "point octagon" `Quick test_octagon_point;
          Alcotest.test_case "box" `Quick test_octagon_box;
          Alcotest.test_case "manhattan arc" `Quick test_octagon_segment;
          Alcotest.test_case "ball" `Quick test_octagon_ball;
          Alcotest.test_case "segment distances" `Quick test_octagon_dist_segments;
          Alcotest.test_case "inflate / trr" `Quick test_octagon_inflate;
          Alcotest.test_case "nearest point" `Quick test_octagon_nearest_point;
          Alcotest.test_case "sdr" `Quick test_octagon_sdr;
          Alcotest.test_case "hull" `Quick test_octagon_hull;
          Alcotest.test_case "translate" `Quick test_octagon_translate;
        ] );
      ( "octagon-properties",
        qsuite
          [
            prop_generators_contained;
            prop_pick_point_inside;
            prop_dist_lower_bound;
            prop_closest_pair_realizes_dist;
            prop_nearest_point_exact;
            prop_inflate_shrinks_dist;
            prop_inter_sound;
            prop_inter_empty_iff_positive_dist;
            prop_sdr_points_on_shortest_paths;
            prop_diameter;
            prop_vertices_inside;
            prop_dist_pt_brute_force;
            prop_dist_brute_force;
            prop_inter_commutes;
            prop_dist_symmetric;
            prop_dist_triangle;
            prop_hull_monotone;
            prop_translate_preserves_dist;
          ] );
      ( "octagon-kernel",
        qsuite
          [
            prop_of_bounds_bit_exact;
            prop_inter_bit_exact;
            prop_sdr_bit_exact;
            prop_sdr_dedup_bit_exact;
            prop_within_bit_exact;
          ]
      );
      ( "octslab",
        Alcotest.test_case "signed zeros" `Quick test_octslab_signed_zero
        :: qsuite [ prop_octslab_matches_octagon ] );
      ( "interval-properties",
        qsuite
          [
            prop_interval_inter_commutes;
            prop_interval_gap_symmetric;
            prop_interval_gap_triangle;
          ] );
      ( "grid-index",
        Alcotest.test_case "basic operations" `Quick test_grid_basic
        :: Alcotest.test_case "probe semantics" `Quick test_grid_probe_semantics
        :: Alcotest.test_case "tie order" `Quick test_grid_tie_order
        :: Alcotest.test_case "preconditions" `Quick test_grid_preconditions
        :: Alcotest.test_case "pack preconditions" `Quick test_pack_preconditions
        :: qsuite
             [
               prop_grid_answer_independent_of_cell;
               prop_packed_knn_matches_brute_force;
               prop_list_knn_matches_brute_force;
             ] );
    ]
