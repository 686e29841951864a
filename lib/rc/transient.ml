type result = { crossing : float array; steps : int }

(* fF / ps = 1e-3 siemens: converts capacitive conductance into the same
   units as 1/R (ohm). *)
let siemens_per_ff_ps = 1e-3

let step_response tree ~dt ~t_end ~threshold =
  if dt <= 0. || t_end <= 0. then
    invalid_arg "Transient.step_response: dt and t_end must be positive";
  let n = Rctree.size tree in
  (* Zero-length edges (merge points placed on a child) would give
     infinite conductance and wreck the elimination numerically; floor
     the resistance at a value whose time constants are negligible. *)
  let min_res = 1e-6 in
  let g = Array.make n 0. in
  for i = 1 to n - 1 do
    g.(i) <- 1. /. Float.max min_res (Rctree.res tree i)
  done;
  let g_drv = 1. /. Float.max min_res (Rctree.driver_resistance tree) in
  let cg = Array.init n (fun i -> siemens_per_ff_ps *. Rctree.cap tree i /. dt) in
  (* Static diagonal of (C/dt + G): capacitor, link to parent, links to
     children, and the driver conductance at the root. *)
  let diag_static = Array.make n 0. in
  for i = 0 to n - 1 do
    let acc = ref cg.(i) in
    if i > 0 then acc := !acc +. g.(i);
    Array.iter (fun ch -> acc := !acc +. g.(ch)) (Rctree.children tree i);
    if i = 0 then acc := !acc +. g_drv;
    diag_static.(i) <- !acc
  done;
  let v = Array.make n 0. in
  let crossing = Array.make n Float.nan in
  let remaining = ref n in
  let diag = Array.make n 0. in
  let rhs = Array.make n 0. in
  let steps = int_of_float (Float.ceil (t_end /. dt)) in
  let step_count = ref 0 in
  (try
     for s = 1 to steps do
       step_count := s;
       Array.blit diag_static 0 diag 0 n;
       for i = 0 to n - 1 do
         rhs.(i) <- cg.(i) *. v.(i)
       done;
       rhs.(0) <- rhs.(0) +. g_drv (* source held at 1 V *);
       (* Eliminate leaves upward: children have larger indices. *)
       for i = n - 1 downto 1 do
         let p = Rctree.parent tree i in
         let f = g.(i) /. diag.(i) in
         diag.(p) <- diag.(p) -. (g.(i) *. f);
         rhs.(p) <- rhs.(p) +. (rhs.(i) *. f)
       done;
       let t_now = dt *. float_of_int s in
       let update i value =
         let prev = v.(i) in
         v.(i) <- value;
         if Float.is_nan crossing.(i) && value >= threshold then begin
           let frac =
             if value -. prev <= 0. then 1.
             else (threshold -. prev) /. (value -. prev)
           in
           crossing.(i) <- t_now -. dt +. (dt *. frac);
           decr remaining
         end
       in
       update 0 (rhs.(0) /. diag.(0));
       for i = 1 to n - 1 do
         let p = Rctree.parent tree i in
         update i ((rhs.(i) +. (g.(i) *. v.(p))) /. diag.(i))
       done;
       if !remaining = 0 then raise Exit
     done
   with Exit -> ());
  { crossing; steps = !step_count }

let step_response_auto ?(resolution = 2000) tree =
  let elmore = Rctree.elmore tree in
  let max_delay = Array.fold_left Float.max 1e-9 elmore in
  let dt = max_delay /. float_of_int resolution in
  step_response tree ~dt ~t_end:(20. *. max_delay) ~threshold:0.5
