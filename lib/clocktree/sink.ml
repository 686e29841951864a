type t = { id : int; loc : Geometry.Pt.t; cap : float; group : int }

let placeholder = { id = 0; loc = { Geometry.Pt.x = 0.; y = 0. }; cap = 0.; group = 0 }

let make ~id ~loc ~cap ~group =
  if cap < 0. then invalid_arg "Sink.make: negative capacitance";
  if group < 0 then invalid_arg "Sink.make: negative group";
  { id; loc; cap; group }
