type t = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

let zero =
  {
    minor_words = 0.;
    promoted_words = 0.;
    major_words = 0.;
    minor_collections = 0;
    major_collections = 0;
  }

let sample () =
  let s = Gc.quick_stat () in
  {
    minor_words = Gc.minor_words ();
    promoted_words = s.Gc.promoted_words;
    major_words = s.Gc.major_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
  }

let diff a b =
  {
    minor_words = a.minor_words -. b.minor_words;
    promoted_words = a.promoted_words -. b.promoted_words;
    major_words = a.major_words -. b.major_words;
    minor_collections = a.minor_collections - b.minor_collections;
    major_collections = a.major_collections - b.major_collections;
  }

(* Not part of [t]: callers record the absolute value per phase
   instead of diffing it (see the interface on what it measures). *)
let top_heap_words () = (Gc.quick_stat ()).Gc.top_heap_words

let json t =
  Json.Obj
    [
      ("minor_words", Json.Float t.minor_words);
      ("promoted_words", Json.Float t.promoted_words);
      ("major_words", Json.Float t.major_words);
      ("minor_collections", Json.Int t.minor_collections);
      ("major_collections", Json.Int t.major_collections);
    ]
