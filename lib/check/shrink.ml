module Pt = Geometry.Pt
module Instance = Clocktree.Instance
module Sink = Clocktree.Sink

let with_sinks (inst : Instance.t) kept =
  match kept with
  | [] -> None
  | kept ->
    (* Compress the surviving group indices to a dense range. *)
    let groups =
      List.sort_uniq compare (List.map (fun (s : Sink.t) -> s.group) kept)
    in
    let remap = Hashtbl.create 8 in
    List.iteri (fun i g -> Hashtbl.replace remap g i) groups;
    let n_groups = List.length groups in
    let sinks =
      Array.of_list
        (List.mapi
           (fun i (s : Sink.t) ->
             Sink.make ~id:i ~loc:s.loc ~cap:s.cap
               ~group:(Hashtbl.find remap s.group))
           kept)
    in
    let group_bounds =
      Option.map
        (fun bs ->
          Array.of_list (List.map (fun g -> bs.(g)) groups))
        inst.group_bounds
    in
    Some
      (Instance.make ~params:inst.params ~rd:inst.rd ~bound:inst.bound
         ?group_bounds ~source:inst.source ~n_groups sinks)

(* One reduction family: candidate instances, cheapest-first. *)

let drop_groups (inst : Instance.t) =
  List.init inst.n_groups (fun g ->
      with_sinks inst
        (List.filter
           (fun (s : Sink.t) -> s.group <> g)
           (Array.to_list inst.sinks)))
  |> List.filter_map Fun.id

let drop_chunks (inst : Instance.t) ~chunk =
  let n = Instance.n_sinks inst in
  if chunk <= 0 || chunk >= n then []
  else
    List.init ((n + chunk - 1) / chunk) (fun c ->
        let lo = c * chunk and hi = Int.min n ((c + 1) * chunk) in
        with_sinks inst
          (Array.to_list inst.sinks
          |> List.filteri (fun i _ -> i < lo || i >= hi)))
    |> List.filter_map Fun.id

let map_sinks (inst : Instance.t) f =
  with_sinks inst (List.map f (Array.to_list inst.sinks))

let snap_coords (inst : Instance.t) =
  let snap pitch x = Float.round (x /. pitch) *. pitch in
  List.filter_map
    (fun pitch ->
      map_sinks inst (fun s ->
          { s with loc = Pt.make (snap pitch s.loc.x) (snap pitch s.loc.y) }))
    [ 1000.; 100.; 1. ]

let snap_caps (inst : Instance.t) =
  Option.to_list (map_sinks inst (fun s -> { s with cap = 20. }))

let simplify_config (inst : Instance.t) =
  let candidates = ref [] in
  let push c = candidates := c :: !candidates in
  if inst.group_bounds <> None then
    push
      (Instance.make ~params:inst.params ~rd:inst.rd ~bound:inst.bound
         ~source:inst.source ~n_groups:inst.n_groups inst.sinks);
  if inst.params <> Rc.Wire.default || inst.rd <> 100. then
    push
      (Instance.make ?group_bounds:inst.group_bounds ~bound:inst.bound
         ~source:inst.source ~n_groups:inst.n_groups inst.sinks);
  List.rev !candidates

(* Each candidate re-runs [fails]; past this many, shrinking stops. *)
let max_checks = 2000

let run ~fails inst =
  let checks = ref 0 in
  let try_candidate inst' =
    if !checks >= max_checks then false
    else begin
      incr checks;
      match fails inst' with ok -> ok | exception _ -> false
    end
  in
  (* One greedy pass: first candidate that still fails wins. *)
  let improve inst =
    let n = Instance.n_sinks inst in
    let chunks =
      let rec halves c acc = if c < 1 then acc else halves (c / 2) (c :: acc) in
      List.concat_map (fun c -> drop_chunks inst ~chunk:c) (halves (n / 2) [])
    in
    let candidates =
      drop_groups inst @ chunks @ snap_coords inst @ snap_caps inst
      @ simplify_config inst
    in
    List.find_opt
      (fun inst' ->
        (* Only keep candidates that actually reduce or simplify. *)
        (Instance.n_sinks inst' < n || inst' <> inst) && try_candidate inst')
      candidates
  in
  let rec fixpoint inst =
    if !checks >= max_checks then inst
    else
      match improve inst with None -> inst | Some inst' -> fixpoint inst'
  in
  fixpoint inst
