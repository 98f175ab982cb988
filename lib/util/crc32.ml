(* CRC-32 (IEEE 802.3), reflected, polynomial 0xEDB88320 — the variant
   used by zlib, gzip and PNG, so snapshot checksums can be verified with
   any standard tool. The 256-entry table is built once at module load. *)

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

type t = int (* the running register, already pre/post-conditioned by init/finish *)

let init = 0xFFFFFFFF

let update t s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.update: range out of bounds";
  let table = Lazy.force table in
  let c = ref t in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code s.[i]) land 0xFF) lxor (!c lsr 8)
  done;
  !c

let finish t = t lxor 0xFFFFFFFF
