(* Chapter III validation: route a benchmark circuit, convert the clock
   tree into an RC circuit, simulate the step response with the
   backward-Euler transient engine, and compare Elmore vs "SPICE":
   absolute delays disagree badly, skews agree closely.

   Run with: dune exec examples/spice_validation.exe *)

let () =
  Format.printf "Routing r1 and simulating its RC tree (this takes a few seconds)...@.";
  let result = Experiments.Spice_check.run (Option.get (Workload.Circuits.find "r1")) in
  Experiments.Spice_check.print result;
  Format.printf
    "@.This is why DME-style routers can rely on the Elmore model: the@.balancing decisions depend on skew, and skew error cancels.@."
