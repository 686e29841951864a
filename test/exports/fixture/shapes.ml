let dead x = x
let scaled ?(scale = 1) x = scale * x
let reference x = x + 1
let aliased x = x - 1

module Sub = struct
  let get x = 2 * x
end
