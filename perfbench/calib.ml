(* Box-speed calibration.  The benchmark's box shares its cores with
   other tenants, and its speed drifts by up to ~50% over periods from
   seconds to minutes.  A fixed kernel that calls nothing in the
   repository's libraries, probed between routes at a steady rate,
   measures that drift; timings are reported rescaled to the speed at
   which the kernel takes [reference_s].  On this box the ratio of
   route time to kernel time stays within a few percent while raw route
   times move by tens of percent, so the rescaled figure tracks the
   program rather than its neighbours.  A program change cannot move
   the kernel. *)

let now = Unix.gettimeofday

(* Fixed work resembling a route's mix: an in-place sort, random
   reads across a working set the size of a last-level cache, float
   arithmetic and short-lived minor-heap allocation.  The buffers are
   allocated once, so probing leaves the major heap (and
   peak_heap_words) alone. *)
let n = 150_000
let src = Array.init n (fun i -> float_of_int ((i * 7919) mod (n + 7)))
let buf = Array.make n 0.
let perm = Array.init n (fun i -> (i * 48271) mod n)

let kernel () =
  Array.blit src 0 buf 0 n;
  Array.sort Float.compare buf;
  let acc = ref 0. in
  for i = 0 to n - 1 do
    let p = Sys.opaque_identity (buf.(perm.(i)), float_of_int i) in
    acc := !acc +. (fst p *. 1.5) +. snd p
  done;
  Sys.opaque_identity !acc

(* Kernel time at the box's reference speed (its fast state). *)
let reference_s = 0.056

(* [log] holds (end time, seconds) of every probe, newest first. *)
type t = {
  mutable sum : float;
  mutable probes : int;
  mutable last : float;
  mutable log : (float * float) list;
}

let create () = { sum = 0.; probes = 0; last = neg_infinity; log = [] }
let interval = 1.0
let burst = 10

let probe t =
  let t0 = now () in
  ignore (kernel ());
  let t1 = now () in
  t.sum <- t.sum +. (t1 -. t0);
  t.probes <- t.probes + 1;
  t.last <- t1;
  t.log <- (t1, t1 -. t0) :: t.log

(* One probe per [interval] elapsed since the last one, so probes
   sample the run evenly in time; a long gap (a route of many seconds)
   is covered by a burst of at most [burst] probes. *)
let tick t =
  let due =
    if t.probes = 0 then burst else int_of_float ((now () -. t.last) /. interval)
  in
  for _ = 1 to Int.min burst due do
    probe t
  done

(* Multiply a time measured during the run by this to rescale it to the
   reference speed. *)
let factor t = if t.probes = 0 then 1. else reference_s /. (t.sum /. float_of_int t.probes)

(* [factor] from the probes taken within two intervals of the span
   [t0, t1] only — the box's speed around that span — falling back to
   the whole run's when there are none. *)
let factor_around t ~t0 ~t1 =
  let slack = 2. *. interval in
  let sum, n =
    List.fold_left
      (fun (sum, n) (at, d) -> if at >= t0 -. slack && at <= t1 +. slack then (sum +. d, n + 1) else (sum, n))
      (0., 0) t.log
  in
  if n = 0 then factor t else reference_s /. (sum /. float_of_int n)
