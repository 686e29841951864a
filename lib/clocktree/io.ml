(* --- Writer -------------------------------------------------------------- *)

(* Every float is written as [Printf.sprintf "%.17g"] writes it, without
   Printf: the exact decimal digits of [m·2^e] in integer arithmetic,
   rounded half to even, then glibc's fixed/exponent choice and
   trailing-zero stripping (DESIGN §37).  Outside the fast range
   (non-finite, subnormal, below about 1e-10 or from 1e17 up) the C
   conversion writes it. *)
external format_float : string -> float -> string = "caml_format_float"

(* 5^q for q in [0, 26]: 5^26 < 2^61, the largest that fits. *)
let pow5 =
  let a = Array.make 27 1 in
  for q = 1 to 26 do
    a.(q) <- 5 * a.(q - 1)
  done;
  a

let pow10 =
  let a = Array.make 18 1 in
  for i = 1 to 17 do
    a.(i) <- 10 * a.(i - 1)
  done;
  a

let mask30 = (1 lsl 30) - 1

(* [P = c2·2^60 + c1·2^30 + c0]: [P / 2^j] rounded down for [j <= 60]
   (the caller knows it fits in an int), and whether [P mod 2^j] is
   non-zero for [j < 60]. *)
let[@inline] bits_above c0 c1 c2 j =
  if j >= 30 then (c2 lsl (60 - j)) lor (c1 lsr (j - 30))
  else (c2 lsl (60 - j)) lor (c1 lsl (30 - j)) lor (c0 lsr j)

let[@inline] bits_below c0 c1 j =
  if j >= 30 then c0 lor (c1 land ((1 lsl (j - 30)) - 1)) <> 0
  else c0 land ((1 lsl j) - 1) <> 0

(* [F = floor (m·2^e·10^q)] for [m < 2^53], [0 <= q <= 26] and
   [10^16 <= F < 2^58], returned as [4F + 2h + s]: [h] is the first
   dropped bit (the half) and [s] whether any bit below it is set.  With
   [t = e + q], [m·2^e·10^q = m·5^q·2^t]; for [t < 0] the product [m·5^q]
   (below 2^114) is held in three 30-bit limbs and shifted right by
   [-t], which is at most 60 since [F >= 10^16 > 2^53].  The caller
   discards a result outside that range. *)
let scaled m e q =
  let p = Array.unsafe_get pow5 q in
  let t = e + q in
  if t >= 0 then ((m * p) lsl t) lsl 2
  else begin
    let a0 = m land mask30 and a1 = m lsr 30 in
    let b0 = p land mask30 and b1 = p lsr 30 in
    let lo = a0 * b0 in
    let mid = (a0 * b1) + (a1 * b0) + (lo lsr 30) in
    let c0 = lo land mask30 and c1 = mid land mask30 in
    let c2 = (a1 * b1) + (mid lsr 30) in
    let s = -t in
    (bits_above c0 c1 c2 s lsl 2)
    lor ((bits_above c0 c1 c2 (s - 1) land 1) lsl 1)
    lor Bool.to_int (bits_below c0 c1 (s - 1))
  end

(* The [n] low decimal digits of [v >= 0], zero-padded, at [pos]. *)
let put_digits b pos v n =
  let v = ref v in
  for i = pos + n - 1 downto pos do
    Bytes.set b i (Char.unsafe_chr (48 + (!v mod 10)));
    v := !v / 10
  done;
  pos + n

let put_string b pos s =
  Bytes.blit_string s 0 b pos (String.length s);
  pos + String.length s

(* [h·10^(x-16)] for [10^16 <= h < 10^17] in [%.17g]'s layout: exponent
   style below 1e-4 or from 1e17 up, fixed style otherwise, trailing
   fraction zeros (and a bare point) stripped. *)
let put_decimal b pos h x =
  let h = ref h and nd = ref 17 in
  while !h mod 10 = 0 do
    h := !h / 10;
    decr nd
  done;
  let h = !h and nd = !nd in
  if x < -4 || x >= 17 then begin
    let pos = put_digits b pos (h / pow10.(nd - 1)) 1 in
    let pos =
      if nd = 1 then pos
      else begin
        Bytes.set b pos '.';
        put_digits b (pos + 1) (h mod pow10.(nd - 1)) (nd - 1)
      end
    in
    Bytes.set b pos 'e';
    Bytes.set b (pos + 1) (if x < 0 then '-' else '+');
    let ax = abs x in
    put_digits b (pos + 2) ax (if ax >= 100 then 3 else 2)
  end
  else if x >= 0 then begin
    let int_digits = x + 1 in
    if nd <= int_digits then put_digits b pos (h * pow10.(int_digits - nd)) int_digits
    else begin
      let frac = nd - int_digits in
      let pos = put_digits b pos (h / pow10.(frac)) int_digits in
      Bytes.set b pos '.';
      put_digits b (pos + 1) (h mod pow10.(frac)) frac
    end
  end
  else begin
    Bytes.set b pos '0';
    Bytes.set b (pos + 1) '.';
    let pos = put_digits b (pos + 2) 0 (-x - 1) in
    put_digits b pos h nd
  end

let put_fallback b pos x = put_string b pos (format_float "%.17g" x)

(* [Printf.sprintf "%.17g" x] written at [pos].  [xlo = floor (b·log10 2)]
   for [b = floor (log2 |x|)] is the decimal exponent or one below it, so
   [F = floor (|x|·10^(16 - xlo))] lies in [10^16, 2·10^17); at or above
   10^17 the exponent is [xlo + 1] and [F] is taken one power lower.
   Rounding [F] half to even on the exact dropped bits can carry it to
   10^17, which raises the exponent once more. *)
let put_g17 b pos x =
  let bits = Int64.bits_of_float x in
  if Int64.equal bits 0L then put_string b pos "0"
  else if Int64.equal bits Int64.min_int then put_string b pos "-0"
  else begin
    let bexp = Int64.to_int (Int64.shift_right_logical bits 52) land 0x7ff in
    let xlo = ((bexp - 1023) * 78913) asr 18 in
    let q = 16 - xlo in
    if bexp = 0 || bexp = 0x7ff || q < 0 || q > 26 then put_fallback b pos x
    else begin
      let m = Int64.to_int bits land ((1 lsl 52) - 1) lor (1 lsl 52) in
      let e = bexp - 1075 in
      let r = scaled m e q in
      let over = r lsr 2 >= pow10.(17) in
      if (over && q = 0) || r lsr 2 < pow10.(16) then put_fallback b pos x
      else begin
        let r = if over then scaled m e (q - 1) else r in
        let x10 = if over then 17 - q else 16 - q in
        let f = r lsr 2 in
        let h = if r land 2 <> 0 && r land 1 lor (f land 1) <> 0 then f + 1 else f in
        let pos = if Int64.compare bits 0L < 0 then put_string b pos "-" else pos in
        if h = pow10.(17) then put_decimal b pos pow10.(16) (x10 + 1)
        else put_decimal b pos h x10
      end
    end
  end

let float_to_string x =
  let b = Bytes.create 32 in
  Bytes.sub_string b 0 (put_g17 b 0 x)

(* [string_of_int n] written at [pos]. *)
let put_int b pos n =
  if n < 0 || n >= pow10.(17) then put_string b pos (string_of_int n)
  else begin
    let nd = ref 1 in
    while n >= pow10.(!nd) do
      incr nd
    done;
    put_digits b pos n !nd
  end

(* One record at a time: each is laid out in [line] (the longest, a sink
   line, is under 128 bytes) and handed to [emit line len]. *)
let write_records inst emit =
  let line = Bytes.create 256 in
  let ( +> ) pos s = put_string line pos s in
  let num pos v = put_g17 line (pos +> " ") v in
  let int pos n = put_int line (pos +> " ") n in
  let eol pos = emit line (pos +> "\n") in
  let open Instance in
  eol (0 +> "# astskew clock routing instance");
  eol (num (num (0 +> "params") inst.params.r) inst.params.c);
  eol (num (0 +> "driver") inst.rd);
  eol (num (num (0 +> "source") inst.source.x) inst.source.y);
  eol (num (0 +> "bound") inst.bound);
  eol (int (0 +> "groups") inst.n_groups);
  Option.iter
    (Array.iteri (fun g bound -> eol (num (int (0 +> "groupbound") g) bound)))
    inst.group_bounds;
  Array.iter
    (fun (s : Sink.t) ->
      eol (int (num (num (num (int (0 +> "sink") s.id) s.loc.x) s.loc.y) s.cap) s.group))
    inst.sinks

(* A generated sink line is about 70 bytes: sized for the sinks, the
   buffer does not double its way up. *)
let to_string (inst : Instance.t) =
  let groups = match inst.group_bounds with Some bs -> Array.length bs | None -> 0 in
  let buf = Buffer.create (256 + (40 * groups) + (80 * Array.length inst.sinks)) in
  write_records inst (fun line len -> Buffer.add_subbytes buf line 0 len);
  Buffer.contents buf

let write_file path inst =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> write_records inst (fun line len -> output oc line 0 len))

(* --- Parser -------------------------------------------------------------- *)

(* One pass over the text by index.  A line is cut at its first [#],
   trimmed of [String.trim]'s white space and split on [' '], as
   [String.split_on_char] splits it; numbers are read by
   [float_of_string] and [int_of_string_opt] on the token (plain decimal
   integers by hand).  The first error ends the pass. *)

exception Parse_error of string

let fail lineno fmt =
  Printf.ksprintf (fun msg -> raise (Parse_error (Printf.sprintf "line %d: %s" lineno msg))) fmt

let[@inline] is_space = function
  | ' ' | '\012' | '\n' | '\r' | '\t' -> true
  | _ -> false

let rec same_chars text s kw i =
  i = String.length kw
  || (String.unsafe_get text (s + i) = String.unsafe_get kw i && same_chars text s kw (i + 1))

(* Token [k] is [text.[tok.(2k) .. tok.(2k+1) - 1]]. *)
let[@inline] token_is text tok k kw =
  let s = tok.(2 * k) in
  tok.((2 * k) + 1) - s = String.length kw && same_chars text s kw 0

let token text tok k = String.sub text tok.(2 * k) (tok.((2 * k) + 1) - tok.(2 * k))

(* [float_of_string] reads a whole string, so a short token is copied
   into a reused string of its own length instead of a fresh one. *)
let float_token text tok k scratch lineno =
  let s = tok.(2 * k) and e = tok.((2 * k) + 1) in
  let n = e - s in
  let str =
    if n < Array.length scratch then begin
      if Bytes.length scratch.(n) <> n then scratch.(n) <- Bytes.create n;
      Bytes.blit_string text s scratch.(n) 0 n;
      Bytes.unsafe_to_string scratch.(n)
    end
    else String.sub text s n
  in
  match float_of_string str with
  | v when Float.is_finite v -> v
  | _ -> fail lineno "non-finite number %S" (token text tok k)
  | exception Failure _ -> fail lineno "bad number %S" (token text tok k)

(* An optional [-] and 1-18 decimal digits cannot overflow and mean what
   [int_of_string] makes of them; anything else goes to it. *)
let int_token text tok k lineno =
  let s = tok.(2 * k) and e = tok.((2 * k) + 1) in
  let neg = String.unsafe_get text s = '-' in
  let d = if neg then s + 1 else s in
  let v = ref 0 and ok = ref (e - d >= 1 && e - d <= 18) and i = ref d in
  while !ok && !i < e do
    let c = Char.code (String.unsafe_get text !i) - 48 in
    if c < 0 || c > 9 then ok := false else v := (!v * 10) + c;
    incr i
  done;
  if !ok then if neg then - !v else !v
  else
    match int_of_string_opt (token text tok k) with
    | Some v -> v
    | None -> fail lineno "bad integer %S" (token text tok k)

let no_sink = { Sink.id = -1; loc = Geometry.Pt.zero; cap = 0.; group = 0 }

(* The parsed sinks by id.  A file that lists them in id order already
   has them there; any other file gets the order the reference parser
   hands to [Instance.make]: its list of sinks, most recent first,
   sorted stably by id.  For a permutation of [0, n) that is the id
   order; otherwise [Instance.make] rejects the ids, and the order only
   picks which of its messages is returned. *)
let by_id file_order n =
  let a = if Array.length file_order = n then file_order else Array.sub file_order 0 n in
  let in_order = ref true in
  Array.iteri (fun i (s : Sink.t) -> if s.id <> i then in_order := false) a;
  if !in_order then a
  else begin
    let r = Array.init n (fun i -> file_order.(n - 1 - i)) in
    Array.stable_sort (fun (a : Sink.t) b -> compare a.id b.id) r;
    r
  end

let parse text =
  let len = String.length text in
  let params = ref None and rd = ref None and source = ref None in
  let bound = ref None and n_groups = ref None in
  (* groupbound records in file order *)
  let gb_group = ref (Array.make 16 0) and gb_line = ref (Array.make 16 0) in
  let gb_bound = ref (Float.Array.make 16 0.) and n_gb = ref 0 in
  let sinks = ref (Array.make ((len / 64) + 16) no_sink) and n_sinks = ref 0 in
  let tok = Array.make 14 0 and scratch = Array.make 32 Bytes.empty in
  let pos = ref 0 and lineno = ref 1 in
  while !pos <= len do
    let l = !lineno in
    (* the line is [!pos, eol); its content stops at the first '#' *)
    let eol = ref !pos in
    while !eol < len && String.unsafe_get text !eol <> '\n' && String.unsafe_get text !eol <> '#' do
      incr eol
    done;
    let stop = !eol in
    while !eol < len && String.unsafe_get text !eol <> '\n' do
      incr eol
    done;
    let a = ref !pos and b = ref stop in
    while !a < !b && is_space (String.unsafe_get text !a) do
      incr a
    done;
    while !b > !a && is_space (String.unsafe_get text (!b - 1)) do
      decr b
    done;
    let ntok = ref 0 and i = ref !a in
    while !i < !b do
      if String.unsafe_get text !i = ' ' then incr i
      else begin
        let s = !i in
        while !i < !b && String.unsafe_get text !i <> ' ' do
          incr i
        done;
        if !ntok < 7 then begin
          tok.(2 * !ntok) <- s;
          tok.((2 * !ntok) + 1) <- !i
        end;
        incr ntok
      end
    done;
    let ntok = !ntok in
    (if ntok = 0 then ()
     else if ntok = 6 && token_is text tok 0 "sink" then begin
       let id = int_token text tok 1 l in
       let x = float_token text tok 2 scratch l in
       let y = float_token text tok 3 scratch l in
       let cap = float_token text tok 4 scratch l in
       let group = int_token text tok 5 l in
       (* the record constructors reject bad values with
          [Invalid_argument], which is reported against the line *)
       let s =
         match Sink.make ~id ~loc:(Geometry.Pt.make x y) ~cap ~group with
         | s -> s
         | exception Invalid_argument msg -> fail l "%s" msg
       in
       if !n_sinks = Array.length !sinks then begin
         let grown = Array.make (2 * !n_sinks) no_sink in
         Array.blit !sinks 0 grown 0 !n_sinks;
         sinks := grown
       end;
       !sinks.(!n_sinks) <- s;
       incr n_sinks
     end
     else if ntok = 3 && token_is text tok 0 "groupbound" then begin
       let g = int_token text tok 1 l in
       let bv = float_token text tok 2 scratch l in
       if !n_gb = Array.length !gb_group then begin
         let grow a = Array.append a a in
         gb_group := grow !gb_group;
         gb_line := grow !gb_line;
         gb_bound := Float.Array.append !gb_bound !gb_bound
       end;
       !gb_group.(!n_gb) <- g;
       !gb_line.(!n_gb) <- l;
       Float.Array.set !gb_bound !n_gb bv;
       incr n_gb
     end
     else if ntok = 3 && token_is text tok 0 "params" then begin
       let r = float_token text tok 1 scratch l in
       let c = float_token text tok 2 scratch l in
       match Rc.Wire.make ~r ~c with
       | p -> params := Some p
       | exception Invalid_argument msg -> fail l "%s" msg
     end
     else if ntok = 2 && token_is text tok 0 "driver" then
       rd := Some (float_token text tok 1 scratch l)
     else if ntok = 3 && token_is text tok 0 "source" then begin
       let x = float_token text tok 1 scratch l in
       let y = float_token text tok 2 scratch l in
       source := Some (Geometry.Pt.make x y)
     end
     else if ntok = 2 && token_is text tok 0 "bound" then
       bound := Some (float_token text tok 1 scratch l)
     else if ntok = 2 && token_is text tok 0 "groups" then
       n_groups := Some (int_token text tok 1 l)
     else fail l "unrecognized record %S" (token text tok 0));
    pos := !eol + 1;
    incr lineno
  done;
  match (!source, !n_groups) with
  | None, _ -> fail 0 "missing 'source' record"
  | _, None -> fail 0 "missing 'groups' record"
  | Some source, Some n_groups ->
    (* [groups] may come after a [groupbound], so ranges are checked
       here, against the first offending line. *)
    for r = 0 to !n_gb - 1 do
      let g = !gb_group.(r) in
      if g < 0 || g >= n_groups then fail !gb_line.(r) "group %d out of range" g
    done;
    (* Every group needs a sink: a count beyond the file's sinks can only
       be hostile, and would size per-group arrays by it. *)
    let n = !n_sinks in
    if n_groups > n then fail 0 "%d groups for %d sinks" n_groups n;
    (* the last record for a group wins *)
    let group_bounds =
      if !n_gb = 0 then None
      else begin
        let bs = Array.make n_groups (Option.value !bound ~default:0.) in
        for r = 0 to !n_gb - 1 do
          bs.(!gb_group.(r)) <- Float.Array.get !gb_bound r
        done;
        Some bs
      end
    in
    let sinks = by_id !sinks n in
    (try
       Ok
         (Instance.make ?params:!params ?rd:!rd ?bound:!bound ?group_bounds ~source
            ~n_groups sinks)
     with Invalid_argument msg -> Error msg)

let of_string text = try parse text with Parse_error msg -> Error msg

let read_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error e -> Error e
