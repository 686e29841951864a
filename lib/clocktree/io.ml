(* --- Writer -------------------------------------------------------------- *)

(* Every float is written as [Printf.sprintf "%.17g"] writes it, without
   Printf: the exact decimal digits of [m·2^e] in integer arithmetic,
   rounded half to even, then glibc's fixed/exponent choice and
   trailing-zero stripping (DESIGN §5.5).  Outside the fast range
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

(* The float whose bits are [top] (sign and exponent, bits 63..52) and
   [frac] (fraction, bits 51..0). *)
let put_fallback b pos top frac =
  let bits = Int64.logor (Int64.shift_left (Int64.of_int top) 52) (Int64.of_int frac) in
  put_string b pos (format_float "%.17g" (Int64.float_of_bits bits))

(* [Printf.sprintf "%.17g" x] written at [pos], for [x] given by the
   fields [top] and [frac] of its bits, so that no float crosses the
   call.  [xlo = floor (b·log10 2)] for [b = floor (log2 |x|)] is the
   decimal exponent or one below it, so [F = floor (|x|·10^(16 - xlo))]
   lies in [10^16, 2·10^17); at or above 10^17 the exponent is
   [xlo + 1] and [F] is taken one power lower.  Rounding [F] half to
   even on the exact dropped bits can carry it to 10^17, which raises
   the exponent once more. *)
let put_fields b pos top frac =
  let bexp = top land 0x7ff in
  if bexp = 0 && frac = 0 then put_string b pos (if top = 0 then "0" else "-0")
  else begin
    let xlo = ((bexp - 1023) * 78913) asr 18 in
    let q = 16 - xlo in
    if bexp = 0 || bexp = 0x7ff || q < 0 || q > 26 then put_fallback b pos top frac
    else begin
      let m = frac lor (1 lsl 52) in
      let e = bexp - 1075 in
      let r = scaled m e q in
      let over = r lsr 2 >= pow10.(17) in
      if (over && q = 0) || r lsr 2 < pow10.(16) then put_fallback b pos top frac
      else begin
        let r = if over then scaled m e (q - 1) else r in
        let x10 = if over then 17 - q else 16 - q in
        let f = r lsr 2 in
        let h = if r land 2 <> 0 && r land 1 lor (f land 1) <> 0 then f + 1 else f in
        let pos = if top > 0x7ff then put_string b pos "-" else pos in
        if h = pow10.(17) then put_decimal b pos pow10.(16) (x10 + 1)
        else put_decimal b pos h x10
      end
    end
  end

(* [Printf.sprintf "%.17g" x] written at [pos]. *)
let[@inline] put_g17 b pos x =
  let bits = Int64.bits_of_float x in
  put_fields b pos
    (Int64.to_int (Int64.shift_right_logical bits 52))
    (Int64.to_int bits land ((1 lsl 52) - 1))

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

(* A field after a space at [pos] of [line].  Top-level and closed, so
   they inline: a float field reaches [put_fields] as the two ints of
   its bits, never boxed. *)
let[@inline] num line pos v = put_g17 line (put_string line pos " ") v
let[@inline] int line pos n = put_int line (put_string line pos " ") n

(* One record at a time: each is laid out in [line] (the longest, a sink
   line, is under 128 bytes) and handed to [emit line len].  A record
   allocates nothing. *)
let write_records inst emit =
  let line = Bytes.create 256 in
  let ( +> ) pos s = put_string line pos s in
  let eol pos = emit line (pos +> "\n") in
  let open Instance in
  eol (0 +> "# astskew clock routing instance");
  eol (num line (num line (0 +> "params") inst.params.r) inst.params.c);
  eol (num line (0 +> "driver") inst.rd);
  eol (num line (num line (0 +> "source") inst.source.x) inst.source.y);
  eol (num line (0 +> "bound") inst.bound);
  eol (int line (0 +> "groups") inst.n_groups);
  Option.iter
    (fun bs ->
      for g = 0 to Array.length bs - 1 do
        eol (num line (int line (0 +> "groupbound") g) bs.(g))
      done)
    inst.group_bounds;
  Array.iter
    (fun (s : Sink.t) ->
      let pos = int line (0 +> "sink") s.id in
      let pos = num line (num line pos s.loc.x) s.loc.y in
      eol (int line (num line pos s.cap) s.group))
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
   [String.split_on_char] splits it.  Floats are read in place by the
   exact decimal reader below, integers of up to 18 digits by hand;
   every other token goes to [float_of_string] or [int_of_string_opt]
   on a copy of it, so values and messages are theirs.  The first error
   ends the pass. *)

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

(* --- The decimal reader (Eisel–Lemire, DESIGN §5.5) ---

   A token of an optional [-], decimal digits, optionally a point and
   more digits (maybe none), and optionally [e] or [E], a sign and
   digits, with at most 18 significant digits is [w·10^q] for an int
   [w < 10^18 < 2^60].  With [P_q] the leading 120 bits of [10^q] and
   [W = w·2^sh] in [[2^59, 2^60)], the product [Z = W·P_q] (below
   2^180, in 30-bit limbs) falls short of the scaled value by less than
   [W], so its leading bits round it whenever that error cannot carry
   into the round bit.  Everything else is declined, to go to
   [float_of_string]. *)

let q_min = -325 and q_max = 308

(* [5^q < 2^120] exactly for [q <= 51]: only those [P_q] are exact. *)
let exact_q_max = 51

(* [pow10_limbs.(4 (q - q_min) + i)] is limb [i] (least significant
   first) of [P_q], and [10^q = (P_q + d)·2^(pow10_exp.(q - q_min))] with
   [2^119 <= P_q < 2^120] and [0 <= d < 1], [d = 0] just for [0 <= q <=
   exact_q_max].  They are cut from exact naturals in 30-bit limbs:
   [5^q] for [q >= 0], and [floor (2^900 / 5^-q)] for [q < 0], whose top
   120 bits are [floor (2^s / 5^-q)] for the [s] that puts them in range
   (a floor of a floor by integers is one floor). *)
let pow10_limbs, pow10_exp =
  let limbs = Array.make (4 * (q_max - q_min + 1)) 0 in
  let exps = Array.make (q_max - q_min + 1) 0 in
  let a = Array.make 31 0 in
  let bit i = i >= 0 && (a.(i / 30) lsr (i mod 30)) land 1 = 1 in
  let bit_length () =
    let top = ref 30 in
    while a.(!top) = 0 do
      decr top
    done;
    let l = ref (30 * !top) in
    while a.(!top) lsr (!l - (30 * !top)) <> 0 do
      incr l
    done;
    !l
  in
  (* the top 120 bits of [a], of [l] bits, as [P_q], and [e] plus the
     [l - 120] bits dropped as its exponent *)
  let store q l e =
    for i = 0 to 3 do
      let v = ref 0 in
      for b = 29 downto 0 do
        v := (2 * !v) + Bool.to_int (bit (l - 120 + (30 * i) + b))
      done;
      limbs.((4 * (q - q_min)) + i) <- !v
    done;
    exps.(q - q_min) <- l - 120 + e
  in
  a.(0) <- 1;
  for q = 0 to q_max do
    let l = bit_length () in
    (* [5^q] is odd, so its truncation is exact just when nothing is cut *)
    assert (l <= 120 = (q <= exact_q_max));
    store q l q;
    let c = ref 0 in
    for i = 0 to 30 do
      let v = (5 * a.(i)) + !c in
      a.(i) <- v land mask30;
      c := v lsr 30
    done
  done;
  Array.fill a 0 31 0;
  a.(30) <- 1;
  for q = -1 downto q_min do
    let r = ref 0 in
    for i = 30 downto 0 do
      let v = (!r lsl 30) lor a.(i) in
      a.(i) <- v / 5;
      r := v mod 5
    done;
    store q (bit_length ()) (q - 900)
  done;
  (limbs, exps)

(* [pow2.(i) = 2^(i - 1074)], from the least subnormal up to 2^971. *)
let pow2 = Float.Array.init 2046 (fun i -> Float.ldexp 1. (i - 1074))

(* [w·10^q] for [0 < w < 2^60] and [q_min <= q <= q_max], negated if
   [neg], stored at [out.(j)] when it is a normal double the product
   decides; [false] otherwise.  [Z = W·P_q] lies in [[2^178, 2^180)];
   [top = Z / 2^120] and [k = 5] or [6] make [a = Z / 2^(120+k)] the
   54 bits of the mantissa and the round bit.  Below them lie [below]
   ([k] bits), [z3] and [z2] (30 each), down to bit 60.  The exact
   scaled value is [Z + W·d], [0 <= W·d < W < 2^60]:
   - round bit 1: above the half unless [d = 0] and nothing below it is
     set, a tie, rounded to even;
   - round bit 0: below the half unless [d > 0] and all of [below], [z3]
     and [z2] are ones, when [W·d] may carry into the round bit: the
     reader declines. *)
let set_product out j neg w q =
  (* [W = w·2^sh] in [[2^59, 2^60)]: [w]'s binary exponent read off its
     nearest double, one less when that rounded up to a power of two *)
  let e = Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float (Float.of_int w)) 52) - 1023 in
  let sh = 59 - e + (1 - (w lsr e)) in
  let v = w lsl sh in
  let w0 = v land mask30 and w1 = v lsr 30 in
  let t = 4 * (q - q_min) in
  let p0 = Array.unsafe_get pow10_limbs t and p1 = Array.unsafe_get pow10_limbs (t + 1) in
  let p2 = Array.unsafe_get pow10_limbs (t + 2) and p3 = Array.unsafe_get pow10_limbs (t + 3) in
  let c0 = w0 * p0 in
  let c1 = (w0 * p1) + (w1 * p0) + (c0 lsr 30) in
  let c2 = (w0 * p2) + (w1 * p1) + (c1 lsr 30) in
  let c3 = (w0 * p3) + (w1 * p2) + (c2 lsr 30) in
  let top = (w1 * p3) + (c3 lsr 30) in
  let k = 5 + (top lsr 59) in
  let a = top lsr k and below = top land ((1 lsl k) - 1) in
  let z2 = c2 land mask30 and z3 = c3 land mask30 in
  let exact = q >= 0 && q <= exact_q_max in
  if below = (1 lsl k) - 1 && z3 = mask30 && z2 = mask30 && a land 1 = 0 && not exact then false
  else begin
    (* round up on the round bit, unless an exact tie meets an even [m] *)
    let m = a lsr 1 in
    let above =
      if exact then
        m land 1 lor Bool.to_int (below lor z3 lor z2 lor (c1 land mask30) lor (c0 land mask30) <> 0)
      else 1
    in
    let m = m + (a land above) in
    (* [m·2^x], [2^52 <= m <= 2^53]; its biased exponent is [x + 1075] *)
    let x = 121 + k + Array.unsafe_get pow10_exp (q - q_min) - sh in
    let carry = m lsr 53 in
    let xr = x + carry in
    if x + 1075 < 1 || xr + 1075 > 2046 then false
    else begin
      let f = Float.of_int (m lsr carry) *. Float.Array.unsafe_get pow2 (xr + 1074) in
      Float.Array.unsafe_set out j (if neg then -.f else f);
      true
    end
  end

let[@inline] is_digit c = c >= '0' && c <= '9'

external get64u : string -> int -> int64 = "%caml_string_get64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* The value of the 8 bytes at [i] if all are decimal digits, else -1:
   the SWAR digit test and fold of Lemire's paper, on the bytes in text
   order. *)
let[@inline] eight_digits text i =
  let v = get64u text i in
  let v = if Sys.big_endian then bswap64 v else v in
  let open Int64 in
  if logand (logor (add v 0x4646464646464646L) (sub v 0x3030303030303030L)) 0x8080808080808080L
     <> 0L
  then -1
  else begin
    let v = sub v 0x3030303030303030L in
    let v = add (mul v 10L) (shift_right_logical v 8) in
    let lo = mul (logand v 0x000000FF000000FFL) 0x000F424000000064L in
    let hi = mul (logand (shift_right_logical v 16) 0x000000FF000000FFL) 0x0000271000000001L in
    to_int (shift_right_logical (add lo hi) 32)
  end

(* The zeros before the first non-zero digit of [text.[s .. e-1]]. *)
let leading_zeros text s e =
  let n = ref 0 and i = ref s in
  while !i < e && (String.unsafe_get text !i = '0' || String.unsafe_get text !i = '.') do
    if String.unsafe_get text !i = '0' then incr n;
    incr i
  done;
  !n

(* Reads [text.[s .. e-1]] into [out.(j)] if it is in the grammar and
   the product decides it; [false] (declined) otherwise.  The digits
   are folded into [w] whatever their number: past 18 significant ones
   it wraps, and the token is declined.  An exponent of a million or
   more is declined as out of the table. *)
let read_decimal text s e out j =
  let neg = s < e && String.unsafe_get text s = '-' in
  let start = if neg then s + 1 else s in
  let w = ref 0 and i = ref start in
  while !i < e && is_digit (String.unsafe_get text !i) do
    w := (!w * 10) + Char.code (String.unsafe_get text !i) - 48;
    incr i
  done;
  let int_end = !i and frac = ref 0 in
  if int_end < e && String.unsafe_get text int_end = '.' then begin
    incr i;
    let d8 = ref (if !i + 8 <= e then eight_digits text !i else -1) in
    while !d8 >= 0 do
      w := (!w * 100_000_000) + !d8;
      i := !i + 8;
      d8 := if !i + 8 <= e then eight_digits text !i else -1
    done;
    while !i < e && is_digit (String.unsafe_get text !i) do
      w := (!w * 10) + Char.code (String.unsafe_get text !i) - 48;
      incr i
    done;
    frac := !i - int_end - 1
  end;
  let digits_end = !i and x = ref 0 and eneg = ref false and ok = ref (int_end > start) in
  if !ok && !i < e && (String.unsafe_get text !i = 'e' || String.unsafe_get text !i = 'E')
  then begin
    incr i;
    eneg := !i < e && String.unsafe_get text !i = '-';
    if !i < e && (!eneg || String.unsafe_get text !i = '+') then incr i;
    let digits = !i in
    while !i < e && is_digit (String.unsafe_get text !i) do
      x := Int.min 1_000_000 ((!x * 10) + Char.code (String.unsafe_get text !i) - 48);
      incr i
    done;
    ok := !i > digits && !x < 1_000_000
  end;
  let q = (if !eneg then - !x else !x) - !frac in
  let nd = int_end - start + !frac in
  if not (!ok && !i = e && q >= q_min && q <= q_max) then false
  else if nd > 18 && nd - leading_zeros text start digits_end > 18 then false
  else if !w = 0 then begin
    Float.Array.unsafe_set out j (if neg then -0. else 0.);
    true
  end
  else set_product out j neg !w q

let decimal token =
  let out = Float.Array.create 1 in
  if read_decimal token 0 (String.length token) out 0 then Some (Float.Array.get out 0)
  else None

let declined text =
  List.fold_left
    (fun n line ->
      match String.split_on_char ' ' line with
      | kw :: nums when kw <> "" && kw.[0] <> '#' ->
        List.fold_left (fun n t -> if decimal t = None then n + 1 else n) n nums
      | _ -> n)
    0 (String.split_on_char '\n' text)

(* Token [k]'s number, stored at [out.(j)]: the reader's when it decides
   the token, [float_of_string]'s on a copy of it otherwise. *)
let float_token text tok k out j lineno =
  let s = tok.(2 * k) and e = tok.((2 * k) + 1) in
  if not (read_decimal text s e out j) then
    let str = String.sub text s (e - s) in
    match float_of_string str with
    | v when Float.is_finite v -> Float.Array.unsafe_set out j v
    | _ -> fail lineno "non-finite number %S" str
    | exception Failure _ -> fail lineno "bad number %S" str

(* A record's lone number. *)
let number text tok k num lineno =
  float_token text tok k num 0 lineno;
  Float.Array.get num 0

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

(* Whether one of the 8 bytes at [i] is a newline or a [#]: the
   zero-byte test of [(x - 0x01..01) land (lnot x) land 0x80..80] on the
   bytes xor-ed with each, exact for whether there is one. *)
let[@inline] ends_line text i =
  let v = get64u text i in
  let n = Int64.logxor v 0x0A0A0A0A0A0A0A0AL and h = Int64.logxor v 0x2323232323232323L in
  let open Int64 in
  logand
    (logor
       (logand (sub n 0x0101010101010101L) (lognot n))
       (logand (sub h 0x0101010101010101L) (lognot h)))
    0x8080808080808080L
  <> 0L

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
  let tok = Array.make 14 0 and num = Float.Array.create 3 in
  let pos = ref 0 and lineno = ref 1 in
  while !pos <= len do
    let l = !lineno in
    (* the line is [!pos, eol); its content stops at the first '#' *)
    let eol = ref !pos in
    while !eol + 8 <= len && not (ends_line text !eol) do
      eol := !eol + 8
    done;
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
       float_token text tok 2 num 0 l;
       float_token text tok 3 num 1 l;
       float_token text tok 4 num 2 l;
       let group = int_token text tok 5 l in
       let loc = Geometry.Pt.make (Float.Array.get num 0) (Float.Array.get num 1) in
       (* the record constructors reject bad values with
          [Invalid_argument], which is reported against the line *)
       let s =
         match Sink.make ~id ~loc ~cap:(Float.Array.get num 2) ~group with
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
       let bv = number text tok 2 num l in
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
       let r = number text tok 1 num l in
       let c = number text tok 2 num l in
       match Rc.Wire.make ~r ~c with
       | p -> params := Some p
       | exception Invalid_argument msg -> fail l "%s" msg
     end
     else if ntok = 2 && token_is text tok 0 "driver" then
       rd := Some (number text tok 1 num l)
     else if ntok = 3 && token_is text tok 0 "source" then begin
       let x = number text tok 1 num l in
       let y = number text tok 2 num l in
       source := Some (Geometry.Pt.make x y)
     end
     else if ntok = 2 && token_is text tok 0 "bound" then
       bound := Some (number text tok 1 num l)
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
