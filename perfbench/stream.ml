(* The request stream shared by the sender, the in-process replay and the
   reply checker.

   A stream file is written by perfbench/streams.py from the workload seed.
   One request per line, seven tab-separated fields:

     phase  due_us  conn  class  keys  check  request-line

   [phase] names a measured phase ("warm", then rounds "nominal.<k>" and
   "capacity.<k>", whose due times are all 0) or "setup" / "final"
   (closed-loop, unmeasured); [due_us] is the send time relative to the phase start; [conn] is 0 or 1; [class] is L (light), H (heavy)
   or W (write: LOAD, MUTATE, TRAIN); [keys] are the graph and model names
   the request reads or writes, comma-separated; [check] says how its
   reply is verified: B (byte-identical to the replay, modulo cache tags
   and timings), S (STATS: structure only), M (a read of a mutated graph:
   OK only, its final state is checked after the run) or F (a final
   quiesced check, byte-identical). *)

type req = {
  idx : int;
  phase : string;
  due_us : int;
  conn : int;
  cls : char;
  keys : string list;
  check : char;
  line : string;
}

let load path =
  let ic = open_in_bin path in
  let acc = ref [] in
  let idx = ref 0 in
  (try
     while true do
       let raw = input_line ic in
       if raw <> "" && raw.[0] <> '#' then
         match String.split_on_char '\t' raw with
         | [ phase; due; conn; cls; keys; check; line ] ->
             acc :=
               {
                 idx = !idx;
                 phase;
                 due_us = int_of_string due;
                 conn = int_of_string conn;
                 cls = cls.[0];
                 keys = List.filter (( <> ) "") (String.split_on_char ',' keys);
                 check = check.[0];
                 line;
               }
               :: !acc;
             incr idx
         | _ -> failwith ("malformed stream line: " ^ raw)
     done
   with End_of_file -> close_in ic);
  Array.of_list (List.rev !acc)

(* Phases in first-appearance order. *)
let phases reqs =
  Array.fold_left
    (fun acc r -> if List.mem r.phase acc then acc else acc @ [ r.phase ])
    [] reqs

let in_phase reqs phase = List.filter (fun r -> r.phase = phase) (Array.to_list reqs)

(* A phase's kind is its name up to the first '.': the rounds
   "nominal.3" and "capacity.3" are of kinds "nominal" and "capacity". *)
let kind phase = List.hd (String.split_on_char '.' phase)

let in_kind reqs k = List.filter (fun r -> kind r.phase = k) (Array.to_list reqs)

let command line =
  match String.index_opt line ' ' with
  | Some i -> String.uppercase_ascii (String.sub line 0 i)
  | None -> String.uppercase_ascii line

(* Fields whose values legitimately differ between a daemon and the
   replay: cache-hit tags (they depend on arrival order and batching) and
   timings. Their values are blanked before hashing. *)
let volatile = [ "plan_cache"; "coloring_cache"; "cache_hits"; "cache_misses"; "total_ms"; "ms" ]

let pattern k = "\"" ^ k ^ "\":"

(* Volatile fields per command; every other reply is hashed as it is, so
   the long PREDICT and GRAPHS lines are never scanned. MODELS lists each
   source graph's registry generation, a per-process counter: a router
   worker numbers only its own shard's LOADs, so the router's MODELS
   reply differs from a single daemon's there and only there. *)
let volatile_of = function
  | "QUERY" | "EXPLAIN" | "WL" | "KWL" | "FEATURIZE" | "TRAIN" -> List.map pattern volatile
  | "MODELS" -> [ pattern "generation" ]
  | _ -> []

let matches_at s i pat =
  let n = String.length pat in
  i + n <= String.length s && String.sub s i n = pat

let normalize ~cmd reply =
  let patterns = volatile_of cmd in
  if patterns = [] then reply
  else begin
    let b = Buffer.create (String.length reply) in
    let len = String.length reply in
    let i = ref 0 in
    while !i < len do
      match String.index_from_opt reply !i '"' with
      | None ->
          Buffer.add_substring b reply !i (len - !i);
          i := len
      | Some q -> (
          Buffer.add_substring b reply !i (q - !i);
          match List.find_opt (matches_at reply q) patterns with
          | Some pat ->
              Buffer.add_string b pat;
              Buffer.add_char b '_';
              let j = ref (q + String.length pat) in
              while !j < len && not (List.mem reply.[!j] [ ','; '}'; ']' ]) do
                incr j
              done;
              i := !j
          | None ->
              Buffer.add_char b '"';
              i := q + 1)
    done;
    Buffer.contents b
  end

let digest ~cmd reply = Digest.to_hex (Digest.string (normalize ~cmd reply))

(* "OK" or the ERR_* code of a reply line. *)
let status reply =
  if String.length reply >= 3 && String.sub reply 0 3 = "OK " then "OK"
  else
    match Glql_util.Json.parse (String.sub reply 4 (max 0 (String.length reply - 4))) with
    | Ok j -> (
        match Glql_util.Json.member "code" j with
        | Some (Glql_util.Json.Str c) -> c
        | _ -> "ERR")
    | Error _ | (exception Invalid_argument _) -> "ERR"
