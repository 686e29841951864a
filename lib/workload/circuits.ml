module Pt = Geometry.Pt

type spec = { name : string; n_sinks : int; die : float }

(* Die sides chosen so the EXT-BST wirelengths land in the same magnitude
   as the published r1-r5 numbers (~1.1e6 for r1 up to ~8e6 for r5). *)
let specs =
  [
    { name = "r1"; n_sinks = 267; die = 49600. };
    { name = "r2"; n_sinks = 598; die = 67900. };
    { name = "r3"; n_sinks = 862; die = 71300. };
    { name = "r4"; n_sinks = 1903; die = 95400. };
    { name = "r5"; n_sinks = 3101; die = 111000. };
  ]

let find name = List.find_opt (fun s -> s.name = name) specs

let default_seed spec =
  (* Stable per-circuit seed derived from the name. *)
  let h = Hashtbl.hash spec.name land 0xFFFF in
  Int64.of_int ((h * 2654435761) + spec.n_sinks)

let instance ?seed spec ~n_groups ~scheme ~bound () =
  let seed = Option.value seed ~default:(default_seed spec) in
  let rng = Rng.create seed in
  let locs =
    Array.init spec.n_sinks (fun _ ->
        Pt.make (Rng.float_range rng 0. spec.die) (Rng.float_range rng 0. spec.die))
  in
  let caps = Array.init spec.n_sinks (fun _ -> Rng.float_range rng 20. 80.) in
  let groups =
    Partition.assign scheme (Rng.split rng) ~die:spec.die ~n_groups locs
  in
  let sinks =
    Array.init spec.n_sinks (fun i ->
        Clocktree.Sink.make ~id:i ~loc:locs.(i) ~cap:caps.(i) ~group:groups.(i))
  in
  let source = Pt.make (spec.die /. 2.) (spec.die /. 2.) in
  Clocktree.Instance.make ~bound ~source ~n_groups sinks
