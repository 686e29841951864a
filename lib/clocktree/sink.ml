type t = { id : int; loc : Geometry.Pt.t; cap : float; group : int }

let make ~id ~loc ~cap ~group =
  if cap < 0. then invalid_arg "Sink.make: negative capacitance";
  if group < 0 then invalid_arg "Sink.make: negative group";
  { id; loc; cap; group }
