(* The checksummed section container. Framing errors are reported with
   enough context to tell truncation, version skew and bit-rot apart —
   the tests assert on these prefixes. *)

module Bin_io = Glql_util.Bin_io
module Crc32 = Glql_util.Crc32
module W = Bin_io.Writer
module R = Bin_io.Reader

let magic = "GLQS"

let format_version = 1

(* The checksum covers the tag as well as the payload: a flipped byte in
   the tag would otherwise parse as a valid container with a renamed
   section (which a reader tolerating unknown tags would silently drop). *)
let section_crc tag payload =
  let c = Crc32.update Crc32.init tag ~pos:0 ~len:(String.length tag) in
  Crc32.finish (Crc32.update c payload ~pos:0 ~len:(String.length payload))

let to_string sections =
  let w = W.create () in
  W.raw w magic;
  W.u32 w format_version;
  W.u32 w (List.length sections);
  List.iter
    (fun (tag, payload) ->
      W.str w tag;
      W.u32 w (String.length payload);
      W.u32 w (section_crc tag payload);
      W.raw w payload)
    sections;
  W.contents w

let of_string s =
  Bin_io.decode s (fun r ->
      let m = R.take r (String.length magic) in
      if m <> magic then Bin_io.corrupt "bad magic %S (not a glql snapshot)" m;
      let v = R.u32 r in
      if v <> format_version then
        Bin_io.corrupt "unsupported snapshot format version %d (this build reads version %d)" v
          format_version;
      let count = R.u32 r in
      let sections =
        List.init count (fun _ ->
            let tag = R.str r in
            let len = R.u32 r in
            let crc = R.u32 r in
            let payload = R.take r len in
            if section_crc tag payload <> crc then
              Bin_io.corrupt "checksum mismatch in section %S (corrupt snapshot)" tag;
            (tag, payload))
      in
      R.expect_end r;
      sections)

(* Write via a temp file in the destination directory plus an atomic
   rename, so a crash mid-save can never leave a half-written snapshot
   where a later boot would try to restore it. *)
let write_file path sections =
  let data = to_string sections in
  let tmp = path ^ ".tmp" in
  match
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc data);
    Sys.rename tmp path
  with
  | () -> Ok (String.length data)
  | exception Sys_error msg ->
      (try Sys.remove tmp with Sys_error _ -> ());
      Error msg
