(** SVG rendering of routed clock trees: sinks colored by group, internal
    nodes, rectilinear elbow wires (snaked edges dashed), and the source
    marked.  For inspecting routing quality visually. *)

(** [write_file path inst routed] writes a complete standalone SVG
    document, 800 pixels wide. *)
val write_file : string -> Instance.t -> Tree.routed -> unit
