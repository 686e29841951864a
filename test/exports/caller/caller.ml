module S = Exports_fixture.Shapes
open S

let () = print_int (aliased 1 + scaled 2 + Exports_fixture.Slab.get 3)
