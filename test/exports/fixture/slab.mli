val get : int -> int
