type t = { trace : Trace.t; sched : Sched.t; progress : Progress.t }

let null = { trace = Trace.null; sched = Sched.null; progress = Progress.null }

let phase run name f =
  Progress.phase run.progress name;
  let x, wall = Trace.timed run.trace ~cat:"router" ("router." ^ name) f in
  Sched.note_phase run.sched ~phase:name ~wall_s:wall;
  (x, wall)

let finish run =
  let report = Sched.report run.sched in
  (match report with
   | Some rep when Trace.enabled run.trace ->
     Trace.journal run.trace
       (Json.Obj
          [
            ("type", Json.String "efficiency");
            ("report", Sched.json_of_report rep);
          ])
   | _ -> ());
  Progress.finish run.progress;
  report
