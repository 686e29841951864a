let snapshot () =
  let counters =
    List.map
      (fun c -> (Counter.name c, Json.Int (Counter.value c)))
      (Counter.all ())
  in
  Json.Obj [ ("counters", Json.Obj counters) ]

let reset () = List.iter Counter.reset (Counter.all ())

let counter name =
  match Counter.find name with Some c -> Counter.value c | None -> 0
