(* Little-endian binary writer/reader. The reader is deliberately
   paranoid: every primitive checks the cursor against the end of input,
   and every length prefix is validated against the remaining byte count
   before allocating, so corrupt input degrades to a [Corrupt] exception
   the store layer turns into a clean [Error]. *)

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun msg -> raise (Corrupt msg)) fmt

module Writer = struct
  type t = Buffer.t

  let create () = Buffer.create 4096

  let u8 b v =
    if v < 0 || v > 0xFF then invalid_arg "Bin_io.Writer.u8: out of range";
    Buffer.add_char b (Char.chr v)

  let u32 b v =
    if v < 0 || v > 0xFFFFFFFF then invalid_arg "Bin_io.Writer.u32: out of range";
    Buffer.add_int32_le b (Int32.of_int v)

  let i64 b v = Buffer.add_int64_le b (Int64.of_int v)

  let f64 b v = Buffer.add_int64_le b (Int64.bits_of_float v)

  let str b s =
    u32 b (String.length s);
    Buffer.add_string b s

  let int_array b a =
    u32 b (Array.length a);
    Array.iter (fun v -> i64 b v) a

  let float_array b a =
    u32 b (Array.length a);
    Array.iter (fun v -> f64 b v) a

  let raw = Buffer.add_string

  let contents = Buffer.contents
end

module Reader = struct
  type t = { src : string; mutable pos : int }

  let of_string src = { src; pos = 0 }

  let remaining r = String.length r.src - r.pos

  let need r n what =
    if n < 0 || remaining r < n then
      corrupt "truncated input: needed %d byte(s) for %s, %d left" n what (remaining r)

  let u8 r =
    need r 1 "u8";
    let v = Char.code r.src.[r.pos] in
    r.pos <- r.pos + 1;
    v

  let u32 r =
    need r 4 "u32";
    let v = Int32.to_int (String.get_int32_le r.src r.pos) land 0xFFFFFFFF in
    r.pos <- r.pos + 4;
    v

  let i64 r =
    need r 8 "i64";
    let v64 = String.get_int64_le r.src r.pos in
    let v = Int64.to_int v64 in
    if Int64.of_int v <> v64 then corrupt "i64 value %Ld exceeds the native int range" v64;
    r.pos <- r.pos + 8;
    v

  let f64 r =
    need r 8 "f64";
    let v = Int64.float_of_bits (String.get_int64_le r.src r.pos) in
    r.pos <- r.pos + 8;
    v

  let take r n =
    need r n "raw bytes";
    let s = String.sub r.src r.pos n in
    r.pos <- r.pos + n;
    s

  let str r =
    let n = u32 r in
    need r n "string body";
    take r n

  (* Length prefixes of arrays are checked against the minimum encoded
     size before any allocation: a flipped length byte must fail cleanly
     instead of attempting a gigabyte [Array.make]. *)
  let int_array r =
    let n = u32 r in
    need r (n * 8) "int array body";
    Array.init n (fun _ -> i64 r)

  let float_array r =
    let n = u32 r in
    need r (n * 8) "float array body";
    Array.init n (fun _ -> f64 r)

  let expect_end r =
    if remaining r <> 0 then corrupt "trailing garbage: %d byte(s) past the end of data" (remaining r)
end

let decode s f =
  match f (Reader.of_string s) with
  | v -> Ok v
  | exception Corrupt msg -> Error msg
  | exception Invalid_argument msg -> Error ("invalid data: " ^ msg)
  | exception Failure msg -> Error ("invalid data: " ^ msg)
