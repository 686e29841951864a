type t = {
  rd : float;
  parent : int array;
  res : float array;
  cap : float array;
  children : int array array;
}

let build ~rd nodes =
  let n = Array.length nodes in
  if n = 0 then invalid_arg "Rctree.build: empty tree";
  let parent = Array.make n (-1) in
  let res = Array.make n 0. in
  let cap = Array.make n 0. in
  let child_lists = Array.make n [] in
  Array.iteri
    (fun i (p, r, c) ->
      if i = 0 then begin
        if p <> -1 then invalid_arg "Rctree.build: node 0 must be the root"
      end
      else if p < 0 || p >= i then
        invalid_arg "Rctree.build: parents must precede children";
      parent.(i) <- p;
      res.(i) <- r;
      cap.(i) <- c;
      if i > 0 then child_lists.(p) <- i :: child_lists.(p))
    nodes;
  let children = Array.map (fun l -> Array.of_list (List.rev l)) child_lists in
  { rd; parent; res; cap; children }

let size t = Array.length t.cap
let driver_resistance t = t.rd
let cap t i = t.cap.(i)
let res t i = t.res.(i)
let parent t i = t.parent.(i)
let children t i = t.children.(i)

(* Total capacitance hanging below each node, including its own. *)
let downstream_cap t =
  let n = size t in
  let down = Array.copy t.cap in
  (* Parents precede children, so a reverse scan accumulates bottom-up. *)
  for i = n - 1 downto 1 do
    down.(t.parent.(i)) <- down.(t.parent.(i)) +. down.(i)
  done;
  down

let audit t =
  let faults = ref [] in
  let fault fmt = Printf.ksprintf (fun m -> faults := m :: !faults) fmt in
  if not (Float.is_finite t.rd) || t.rd < 0. then
    fault "driver resistance %g is negative or non-finite" t.rd;
  Array.iteri
    (fun i r ->
      if not (Float.is_finite r) || r < 0. then
        fault "node %d: resistance %g is negative or non-finite" i r)
    t.res;
  Array.iteri
    (fun i c ->
      if not (Float.is_finite c) || c < 0. then
        fault "node %d: capacitance %g is negative or non-finite" i c)
    t.cap;
  List.rev !faults

let elmore t =
  let n = size t in
  let down = downstream_cap t in
  let delay = Array.make n 0. in
  delay.(0) <- Wire.ps_per_ohm_ff *. t.rd *. down.(0);
  for i = 1 to n - 1 do
    delay.(i) <-
      delay.(t.parent.(i)) +. (Wire.ps_per_ohm_ff *. t.res.(i) *. down.(i))
  done;
  delay
