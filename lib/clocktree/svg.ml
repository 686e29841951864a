module Pt = Geometry.Pt

(* Distinct hues per group, fixed saturation/lightness. *)
let group_color g = Printf.sprintf "hsl(%d, 70%%, 45%%)" (g * 61 mod 360)

(* Width of the rendered image in pixels; the height follows the
   aspect ratio of the padded die. *)
let width_px = 800

let render (inst : Instance.t) (r : Tree.routed) =
  let bbox = Instance.bbox inst in
  let xr = Geometry.Octagon.x_range bbox and yr = Geometry.Octagon.y_range bbox in
  let pad = 0.05 *. Float.max (Geometry.Interval.width xr) (Geometry.Interval.width yr) in
  let pad = Float.max pad 1. in
  let x0 = Float.min xr.lo r.source.x -. pad
  and x1 = Float.max xr.hi r.source.x +. pad in
  let y0 = Float.min yr.lo r.source.y -. pad
  and y1 = Float.max yr.hi r.source.y +. pad in
  let w = x1 -. x0 and h = y1 -. y0 in
  let scale = float_of_int width_px /. w in
  let height_px = int_of_float (Float.ceil (h *. scale)) in
  let sx x = (x -. x0) *. scale in
  (* SVG's y axis points down; flip so the layout reads naturally. *)
  let sy y = (y1 -. y) *. scale in
  let buf = Buffer.create 16384 in
  let p fmt = Printf.bprintf buf fmt in
  p "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" viewBox=\"0 0 %d %d\">\n"
    width_px height_px width_px height_px;
  p "<rect width=\"100%%\" height=\"100%%\" fill=\"white\"/>\n";
  let elbow a b ~snaked =
    let dash = if snaked then " stroke-dasharray=\"4 3\"" else "" in
    p
      "<path d=\"M %.1f %.1f L %.1f %.1f L %.1f %.1f\" fill=\"none\" stroke=\"#555\" stroke-width=\"1\"%s/>\n"
      (sx a.Pt.x) (sy a.Pt.y) (sx b.Pt.x) (sy a.Pt.y) (sx b.Pt.x) (sy b.Pt.y)
      dash
  in
  let rec wires t =
    match t with
    | Tree.Leaf _ -> ()
    | Tree.Node n ->
      let edge len child =
        let cpos = Tree.pos child in
        elbow n.pos cpos ~snaked:(len > Pt.dist n.pos cpos +. Tree.edge_tol)
      in
      edge n.llen n.left;
      edge n.rlen n.right;
      wires n.left;
      wires n.right
  in
  let root_pos = Tree.pos r.tree in
  elbow r.source root_pos
    ~snaked:(r.source_len > Pt.dist r.source root_pos +. Tree.edge_tol);
  wires r.tree;
  let rec nodes t =
    match t with
    | Tree.Leaf s ->
      p
        "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"3.5\" fill=\"%s\"><title>sink %d (group %d)</title></circle>\n"
        (sx s.Sink.loc.x) (sy s.Sink.loc.y)
        (group_color s.Sink.group)
        s.Sink.id s.Sink.group
    | Tree.Node n ->
      p "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"1.5\" fill=\"#999\"/>\n" (sx n.pos.x)
        (sy n.pos.y);
      nodes n.left;
      nodes n.right
  in
  nodes r.tree;
  p
    "<rect x=\"%.1f\" y=\"%.1f\" width=\"9\" height=\"9\" fill=\"black\"><title>clock source</title></rect>\n"
    (sx r.source.x -. 4.5)
    (sy r.source.y -. 4.5);
  p "</svg>\n";
  Buffer.contents buf

let write_file path inst r =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (render inst r))
