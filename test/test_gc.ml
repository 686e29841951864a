(* The route path forces no minor collection.  [Array.make], [Array.init],
   [Array.map] or [Array.of_list] of more than 256 elements whose first
   element is a block still in the minor heap allocates in the major
   heap and first empties the minor heap, so that the new array holds no
   pointer into it.  Every such collection stops every domain; the
   runtime counts them as [EV_C_FORCE_MINOR_MAKE_VECT], read here
   through [Runtime_events]. *)

module Spec = Astskew.Router.Spec

let forced = ref 0
let lost = ref 0

let callbacks =
  Runtime_events.Callbacks.create
    ~runtime_counter:(fun _ _ counter v ->
      if counter = Runtime_events.EV_C_FORCE_MINOR_MAKE_VECT then
        forced := !forced + v)
    ~lost_events:(fun _ n -> lost := !lost + n)
    ()

let cursor =
  lazy
    (Runtime_events.start ();
     Runtime_events.create_cursor None)

(* Forced collections while [f] runs, on every domain. *)
let forced_by f =
  let c = Lazy.force cursor in
  ignore (Runtime_events.read_poll c callbacks None : int);
  forced := 0;
  lost := 0;
  f ();
  ignore (Runtime_events.read_poll c callbacks None : int);
  Alcotest.(check int) "no runtime event lost" 0 !lost;
  !forced

let circuit name n_sinks =
  let spec =
    match Workload.Circuits.find name with
    | Some s -> s
    | None ->
      { Workload.Circuits.name; n_sinks; die = 2000. *. sqrt (float_of_int n_sinks) }
  in
  Workload.Circuits.instance spec ~n_groups:8 ~scheme:Workload.Partition.Intermingled
    ~bound:10. ()

let route ?clustering ~jobs inst () =
  let config = { Astskew.Router.ast_default_config with jobs } in
  let spec = Result.get_ok (Spec.make ~config ?clustering Spec.Ast_dme) in
  ignore (Astskew.Router.route spec inst : Astskew.Router.result)

let test_flat_r5 () =
  let inst = circuit "r5" 0 in
  Alcotest.(check int) "forced minor collections, r5 flat at jobs 1" 0
    (forced_by (route ~jobs:1 inst))

let test_clustered_10k () =
  let inst = circuit "s10k" 10_000 in
  let clustering = { Spec.clusters = None; depth = None } in
  Alcotest.(check int) "forced minor collections, s10k clustered at jobs 2" 0
    (forced_by (route ~clustering ~jobs:2 inst))

let () =
  Alcotest.run "gc"
    [
      ( "route",
        [
          Alcotest.test_case "r5 flat forces no minor collection" `Quick test_flat_r5;
          Alcotest.test_case "clustered 10^4 sinks force no minor collection" `Quick
            test_clustered_10k;
        ] );
    ]
