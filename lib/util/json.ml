(* Shared JSON tree + printer (extracted from the server protocol so the
   metrics dump, bench rows and trace output use the same emitter). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list
  | Floats of float array
  | Float_rows of { rows : int; width : int; data : float array }

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* The C primitive behind Printf's %.17g, without the format
   interpreter around it. *)
external format_float : string -> float -> string = "caml_format_float"

(* nan AND ±inf map to null: JSON has no non-finite tokens, and %.17g
   would print the invalid literal "inf". Integers below 1e15 print as
   %.0f would ("-0" included), the rest as %.17g. *)
let rec digits_to buf i =
  if i >= 10 then digits_to buf (i / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (i mod 10)))

let float_to buf f =
  if not (Float.is_finite f) then Buffer.add_string buf "null"
  else if Float.is_integer f && Float.abs f < 1e15 then begin
    (* |f| < 1e15: exact as an int, and its digits are string_of_int's. *)
    if Float.sign_bit f then Buffer.add_char buf '-';
    digits_to buf (int_of_float (Float.abs f))
  end
  else Buffer.add_string buf (format_float "%.17g" f)

(* [data.(off) .. data.(off + len - 1)] as one JSON list of floats. *)
let floats_to buf data off len =
  Buffer.add_char buf '[';
  for i = off to off + len - 1 do
    if i > off then Buffer.add_char buf ',';
    float_to buf data.(i)
  done;
  Buffer.add_char buf ']'

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> float_to buf f
  | Str s -> escape_to buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_to buf k;
          Buffer.add_char buf ':';
          to_buffer buf v)
        fields;
      Buffer.add_char buf '}'
  | Floats data -> floats_to buf data 0 (Array.length data)
  | Float_rows { rows; width; data } ->
      Buffer.add_char buf '[';
      for r = 0 to rows - 1 do
        if r > 0 then Buffer.add_char buf ',';
        floats_to buf data (r * width) width
      done;
      Buffer.add_char buf ']'

let to_string j =
  let buf = Buffer.create 128 in
  to_buffer buf j;
  Buffer.contents buf

(* Recursive-descent parser, the inverse of the printer above. The
   router needs it to merge per-shard replies; keeping it next to the
   printer means round-trips preserve field order (objects are assoc
   lists in document order). Numbers without '.', 'e' or 'E' parse as
   [Int] when they fit, so printer output round-trips exactly. *)

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let w = String.length word in
    if !pos + w <= n && String.sub s !pos w = word then begin
      pos := !pos + w;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = int_of_string ("0x" ^ String.sub s !pos 4) in
    pos := !pos + 4;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          if !pos >= n then fail "unterminated escape";
          let c = s.[!pos] in
          incr pos;
          (match c with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'u' ->
              (* Only the escapes the printer emits (< 0x20) need exact
                 round-trips; other code points decode as UTF-8. *)
              let v = hex4 () in
              if v < 0x80 then Buffer.add_char b (Char.chr v)
              else if v < 0x800 then begin
                Buffer.add_char b (Char.chr (0xC0 lor (v lsr 6)));
                Buffer.add_char b (Char.chr (0x80 lor (v land 0x3F)))
              end
              else begin
                Buffer.add_char b (Char.chr (0xE0 lor (v lsr 12)));
                Buffer.add_char b (Char.chr (0x80 lor ((v lsr 6) land 0x3F)));
                Buffer.add_char b (Char.chr (0x80 lor (v land 0x3F)))
              end
          | _ -> fail "bad escape");
          go ()
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then incr pos;
    let is_float = ref false in
    let continue_ = ref true in
    while !continue_ && !pos < n do
      match s.[!pos] with
      | '0' .. '9' -> incr pos
      | '.' | 'e' | 'E' | '+' | '-' ->
          is_float := true;
          incr pos
      | _ -> continue_ := false
    done;
    let tok = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> Str (parse_string ())
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            incr pos;
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            incr pos;
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
  in
  match parse_value () with
  | v ->
      skip_ws ();
      if !pos <> n then Error (Printf.sprintf "trailing input at offset %d" !pos) else Ok v
  | exception Parse_error msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let int_member key j =
  match member key j with
  | Some (Int i) -> Some i
  | Some (Float f) when Float.is_integer f -> Some (int_of_float f)
  | _ -> None
