(* Routing through the public router entry points, with every route
   checked: a route fails if it raises, yields a non-finite delay, or
   fails Check.Audit under the grouped contract. *)

module Router = Astskew.Router

let now = Unix.gettimeofday

(* The result plus the instance it was evaluated against (the fused one
   for a clustered EXT-BST route). *)
let route ~jobs (w : Inputs.t) (r : Inputs.route) =
  let inst = w.instances.(r.inst) in
  match (r.algo, r.clustered) with
  | Ast, clustered -> (Router.ast_dme ~jobs ~clustered inst, inst)
  | Ext_bst, false -> (Router.ext_bst ~jobs inst, inst)
  | Ext_bst, true ->
    let f = Inputs.fused inst in
    (Router.ast_dme ~config:Dme.Engine.default ~jobs ~clustered:true f, f)

let violations inst (res : Router.result) =
  let nonfinite =
    if Array.for_all Float.is_finite res.evaluation.delays then []
    else [ "non-finite sink delay" ]
  in
  nonfinite
  @ List.map
      (fun (v : Check.Audit.violation) -> v.invariant ^ ": " ^ v.detail)
      (Check.Audit.run Check.Audit.Grouped inst res.routed res.evaluation)

type batch = {
  starts : float array;  (** per-route start time *)
  walls : float array;  (** per-route routing wall, checks excluded *)
  cpus : float array;  (** process CPU over the same spans, all domains *)
  lengths : float array;  (** per-route wirelength, [nan] when it failed *)
  failed : int;
}

(* Route [routes] in order, timing each call and checking its result
   outside the timed span.  [keep] sees every successful result; [cal],
   when given, is ticked before each route. *)
let batch ?(keep = fun _ _ -> ()) ?cal ~jobs w routes =
  let n = Array.length routes in
  let starts = Array.make n 0. and walls = Array.make n 0. and cpus = Array.make n 0. in
  let failed = ref 0 in
  let lengths =
    Array.mapi
      (fun i (r : Inputs.route) ->
        Option.iter Calib.tick cal;
        let t0 = now () and c0 = Sys.time () in
        starts.(i) <- t0;
        match route ~jobs w r with
        | exception e ->
          incr failed;
          Printf.eprintf "route %s raised %s\n%!" r.label (Printexc.to_string e);
          Float.nan
        | res, inst ->
          walls.(i) <- now () -. t0;
          cpus.(i) <- Sys.time () -. c0;
          (match violations inst res with
           | [] -> keep i res
           | vs ->
             incr failed;
             List.iter (Printf.eprintf "route %s: %s\n%!" r.label) vs);
          res.evaluation.wirelength)
      routes
  in
  { starts; walls; cpus; lengths; failed = !failed }

let sum = Array.fold_left ( +. ) 0.

(* [field] summed over the batch's routes, each route's time rescaled by
   the probes around it (see Calib.factor_around). *)
let rescaled cal field (b : batch) =
  let xs = field b in
  sum
    (Array.mapi
       (fun i x -> x *. Calib.factor_around cal ~t0:b.starts.(i) ~t1:(b.starts.(i) +. b.walls.(i)))
       xs)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Mean AST-DME ÷ EXT-BST wirelength over the workload's pairs; on
   [tables] it is 1 - (Table II's mean reduction) / 100.  A zero-wire
   baseline (all sinks on the source) counts as ratio 1. *)
let wirelength_ratio (w : Inputs.t) ~lengths ~references =
  let ratio (i, b) =
    let base =
      match (b : Inputs.baseline) with Routed j -> lengths.(j) | Reference j -> references.(j)
    in
    if base = 0. then 1. else lengths.(i) /. base
  in
  sum (Array.map ratio w.pairs) /. float_of_int (Array.length w.pairs)

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b
