(* Tests for the Elmore delay model, merge planning and the transient
   RC simulator. *)

let params = Rc.Wire.default

let check_float ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

(* --- Elmore formulas ----------------------------------------------------- *)

let test_wire_delay () =
  (* r=0.003, c=0.02: 10000 units into 100 fF:
     0.003*10000*(0.02*10000/2 + 100) = 30 * 200 = 6000 ohm.fF = 6 ps *)
  check_float "wire delay" 6.
    (Rc.Elmore.wire_delay params ~len:10000. ~load:100.);
  check_float "zero length" 0. (Rc.Elmore.wire_delay params ~len:0. ~load:50.);
  check_float "driver delay" 0.5 (Rc.Elmore.driver_delay ~rd:10. ~load:50.)

let test_wire_for_delay_inverse () =
  let len = Rc.Elmore.wire_for_delay params ~load:100. ~delay:6. in
  check_float ~tol:1e-6 "inverse of wire_delay" 10000. len;
  check_float "zero delay" 0. (Rc.Elmore.wire_for_delay params ~load:42. ~delay:0.);
  Alcotest.check_raises "negative delay rejected"
    (Invalid_argument "Elmore.wire_for_delay: negative delay") (fun () ->
      ignore (Rc.Elmore.wire_for_delay params ~load:1. ~delay:(-1.)))

let prop_wire_for_delay_roundtrip =
  QCheck.Test.make ~name:"wire_for_delay inverts wire_delay" ~count:300
    QCheck.(pair (QCheck.make (QCheck.Gen.float_range 0. 200.))
              (QCheck.make (QCheck.Gen.float_range 1. 500.)))
    (fun (delay, load) ->
      let len = Rc.Elmore.wire_for_delay params ~load ~delay in
      let back = Rc.Elmore.wire_delay params ~len ~load in
      Float.abs (back -. delay) <= 1e-6 *. (1. +. delay))

let prop_balance_split_solves_equation =
  let gen =
    QCheck.Gen.(
      let pos lo hi = float_range lo hi in
      quad (pos 10. 50000.) (pos 1. 500.) (pos 1. 500.) (pos (-50.) 50.))
  in
  QCheck.Test.make ~name:"balance_split satisfies the balance equation"
    ~count:300
    (QCheck.make gen)
    (fun (dist, cap_a, cap_b, diff) ->
      let ea = Rc.Elmore.balance_split params ~dist ~cap_a ~cap_b ~diff in
      let wa = Rc.Elmore.wire_delay params ~len:ea ~load:cap_a in
      let wb = Rc.Elmore.wire_delay params ~len:(dist -. ea) ~load:cap_b in
      Float.abs (wa -. wb -. diff) <= 1e-6 *. (1. +. Float.abs diff))

(* --- Balance.plan -------------------------------------------------------- *)

let side lo hi : Rc.Balance.side = { lo; hi }

let test_plan_zero_skew () =
  let cons = [ Rc.Balance.{ a = side 10. 10.; b = side 14. 14.; bound = 0. } ] in
  let p = Rc.Balance.plan params ~dist:20000. ~cap_a:100. ~cap_b:150. ~cons ~pref:4. in
  Alcotest.(check bool) "feasible" true p.feasible;
  check_float ~tol:1e-6 "delays equalized" (10. +. p.wa) (14. +. p.wb);
  check_float ~tol:1e-6 "no snake" 0. p.snake;
  check_float ~tol:1e-6 "lengths add up" 20000. (p.ea +. p.eb)

let test_plan_snaking () =
  (* Side a is so much slower that b's wire must snake. *)
  let cons = [ Rc.Balance.{ a = side 100. 100.; b = side 0. 0.; bound = 0. } ] in
  let p = Rc.Balance.plan params ~dist:1000. ~cap_a:50. ~cap_b:50. ~cons ~pref:(-100.) in
  Alcotest.(check bool) "feasible" true p.feasible;
  Alcotest.(check bool) "snake positive" true (p.snake > 0.);
  check_float ~tol:1e-6 "a wire collapsed" 0. p.ea;
  check_float ~tol:1e-6 "balanced via snake" (100. +. p.wa) (0. +. p.wb)

let test_plan_bounded_slack () =
  (* A 10 ps bound absorbs a 6 ps imbalance without snaking and leaves
     positional freedom. *)
  let cons = [ Rc.Balance.{ a = side 0. 0.; b = side 6. 6.; bound = 10. } ] in
  let p = Rc.Balance.plan params ~dist:1000. ~cap_a:50. ~cap_b:50. ~cons ~pref:0. in
  Alcotest.(check bool) "feasible" true p.feasible;
  check_float ~tol:1e-6 "no snake" 0. p.snake;
  (* pref = 0 is inside the slack so the merge keeps wa = wb. *)
  let width = Float.max (0. +. p.wa) (6. +. p.wb) -. Float.min (0. +. p.wa) (6. +. p.wb) in
  Alcotest.(check bool) "width within bound" true (width <= 10. +. 1e-9)

let test_plan_infeasible_marked () =
  (* Two groups pulling in opposite directions beyond their bounds. *)
  let cons =
    [
      Rc.Balance.{ a = side 0. 0.; b = side 50. 50.; bound = 1. };
      Rc.Balance.{ a = side 50. 50.; b = side 0. 0.; bound = 1. };
    ]
  in
  let p = Rc.Balance.plan params ~dist:1000. ~cap_a:50. ~cap_b:50. ~cons ~pref:0. in
  Alcotest.(check bool) "marked infeasible" false p.feasible

let prop_plan_respects_bound =
  let gen =
    QCheck.Gen.(
      let* dist = float_range 0. 50000. in
      let* cap_a = float_range 1. 500. in
      let* cap_b = float_range 1. 500. in
      let* ta = float_range 0. 100. in
      let* tb = float_range 0. 100. in
      let* wa_width = float_range 0. 5. in
      let* wb_width = float_range 0. 5. in
      let* bound = float_range 6. 30. in
      return (dist, cap_a, cap_b, (ta, wa_width), (tb, wb_width), bound))
  in
  QCheck.Test.make ~name:"plan keeps merged width within bound" ~count:500
    (QCheck.make gen)
    (fun (dist, cap_a, cap_b, (ta, wwa), (tb, wwb), bound) ->
      let cons =
        [ Rc.Balance.{ a = side ta (ta +. wwa); b = side tb (tb +. wwb); bound } ]
      in
      let pref = tb +. (wwb /. 2.) -. ta -. (wwa /. 2.) in
      let p = Rc.Balance.plan params ~dist ~cap_a ~cap_b ~cons ~pref in
      if not p.feasible then QCheck.assume_fail ()
      else begin
        let lo = Float.min (ta +. p.wa) (tb +. p.wb) in
        let hi = Float.max (ta +. wwa +. p.wa) (tb +. wwb +. p.wb) in
        hi -. lo <= bound +. 1e-6
        && p.ea >= 0. && p.eb >= 0.
        && p.ea +. p.eb >= dist -. 1e-6
      end)

let test_instance2 () =
  let l_cf = 8000. and l_ac = 1500. and l_bc = 2500. in
  let l_df = 1200. and l_ef = 2000. in
  let cap_a = 40. and cap_b = 60. and cap_c = 150. in
  let cap_d = 30. and cap_e = 50. and cap_f = 140. in
  let alpha, beta, gamma =
    Rc.Balance.instance2 params ~l_cf ~l_ac ~l_bc ~l_df ~l_ef ~cap_a ~cap_b
      ~cap_c ~cap_d ~cap_e ~cap_f
  in
  check_float ~tol:1e-6 "eq 5.3: alpha + beta = l_cf" l_cf (alpha +. beta);
  let w len load = Rc.Elmore.wire_delay params ~len ~load in
  (* Eq 5.1: delay to root of Ta equals delay to root of Td. *)
  check_float ~tol:1e-6 "eq 5.1 balanced"
    (w alpha cap_c +. w l_ac cap_a)
    (w beta cap_f +. w l_df cap_d);
  (* Eq 5.2: delay to root of Tb equals delay to root of Te with the
     gamma-extended wire. *)
  check_float ~tol:1e-6 "eq 5.2 balanced"
    (w alpha cap_c +. w l_bc cap_b)
    (w beta cap_f +. w (gamma +. l_ef) cap_e)

(* --- Rctree -------------------------------------------------------------- *)

let line_tree ~rd ~segments =
  (* A chain of [segments] (res, cap) pairs below the root. *)
  let nodes =
    Array.of_list
      ((-1, 0., 0.)
      :: List.mapi (fun i (r, c) -> (i, r, c)) segments)
  in
  Rc.Rctree.build ~rd nodes

let test_rctree_elmore () =
  (* Root - R=100 - node1(C=50) - R=200 - node2(C=30), driver 10 ohm.
     Elmore(node2) = 10*(80) + 100*80 + 200*30 = 800+8000+6000 = 14800
     ohm.fF = 14.8 ps. *)
  let t = line_tree ~rd:10. ~segments:[ (100., 50.); (200., 30.) ] in
  let d = Rc.Rctree.elmore t in
  check_float "root delay" 0.8 d.(0);
  check_float "node1 delay" 8.8 d.(1);
  check_float "node2 delay" 14.8 d.(2)

let test_rctree_build_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Rctree.build: empty tree")
    (fun () -> ignore (Rc.Rctree.build ~rd:1. [||]));
  Alcotest.check_raises "bad root"
    (Invalid_argument "Rctree.build: node 0 must be the root") (fun () ->
      ignore (Rc.Rctree.build ~rd:1. [| (0, 1., 1.) |]))

(* --- Transient ----------------------------------------------------------- *)

let test_transient_single_pole () =
  (* One RC: 50%-crossing of a single pole is ln 2 × RC while Elmore is
     RC; ratio must be ~0.693. *)
  let t = line_tree ~rd:100. ~segments:[ (0.001, 1000.) ] in
  let elmore = (Rc.Rctree.elmore t).(1) in
  let res = Rc.Transient.step_response_auto ~resolution:5000 t in
  let ratio = res.crossing.(1) /. elmore in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.4f close to ln 2" ratio)
    true
    (Float.abs (ratio -. Float.log 2.) < 0.01)

let test_transient_symmetric_skew () =
  (* A symmetric H: two identical branches must have zero skew in both
     models. *)
  let nodes =
    [|
      (-1, 0., 10.);
      (0, 150., 40.);
      (0, 150., 40.);
      (1, 300., 25.);
      (2, 300., 25.);
    |]
  in
  let t = Rc.Rctree.build ~rd:20. nodes in
  let elmore = Rc.Rctree.elmore t in
  check_float "elmore skew" 0. (elmore.(3) -. elmore.(4));
  let res = Rc.Transient.step_response_auto t in
  check_float ~tol:1e-9 "transient skew" 0. (res.crossing.(3) -. res.crossing.(4))

let test_transient_skew_tracks_elmore () =
  (* Asymmetric branches: the thesis' claim is that Elmore *skew* error is
     small even when absolute delay error is not.  Check the transient
     skew has the same sign and similar magnitude. *)
  let nodes =
    [|
      (-1, 0., 10.);
      (0, 150., 40.);
      (0, 250., 60.);
      (1, 300., 25.);
      (2, 450., 35.);
    |]
  in
  let t = Rc.Rctree.build ~rd:20. nodes in
  let elmore = Rc.Rctree.elmore t in
  let skew_e = elmore.(4) -. elmore.(3) in
  let res = Rc.Transient.step_response_auto ~resolution:5000 t in
  let skew_t = res.crossing.(4) -. res.crossing.(3) in
  Alcotest.(check bool) "same sign" true (skew_e *. skew_t > 0.);
  Alcotest.(check bool)
    (Printf.sprintf "magnitudes comparable (elmore %.3f vs transient %.3f)"
       skew_e skew_t)
    true
    (skew_t > 0.3 *. skew_e && skew_t < 1.5 *. skew_e)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "rc"
    [
      ( "elmore",
        [
          Alcotest.test_case "wire delay" `Quick test_wire_delay;
          Alcotest.test_case "wire_for_delay" `Quick test_wire_for_delay_inverse;
        ]
        @ qsuite [ prop_wire_for_delay_roundtrip; prop_balance_split_solves_equation ]
      );
      ( "balance",
        [
          Alcotest.test_case "zero-skew plan" `Quick test_plan_zero_skew;
          Alcotest.test_case "snaking plan" `Quick test_plan_snaking;
          Alcotest.test_case "bounded slack" `Quick test_plan_bounded_slack;
          Alcotest.test_case "infeasible flag" `Quick test_plan_infeasible_marked;
          Alcotest.test_case "instance 2 equations" `Quick test_instance2;
        ]
        @ qsuite [ prop_plan_respects_bound ] );
      ( "rctree",
        [
          Alcotest.test_case "elmore hand check" `Quick test_rctree_elmore;
          Alcotest.test_case "build errors" `Quick test_rctree_build_errors;
        ] );
      ( "transient",
        [
          Alcotest.test_case "single pole ln2" `Quick test_transient_single_pole;
          Alcotest.test_case "symmetric skew" `Quick test_transient_symmetric_skew;
          Alcotest.test_case "skew tracks elmore" `Quick test_transient_skew_tracks_elmore;
        ] );
    ]
