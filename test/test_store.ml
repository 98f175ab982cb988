(* Tests for lib/store: the CRC-32 implementation, the bounds-checked
   binary reader/writer, the sectioned container (corrupt-input
   behaviour: truncation, bit flips, bad magic, future versions), and
   bit-identical snapshot round trips over random graphs. *)

open Helpers
module Crc32 = Glql_util.Crc32
module Bin_io = Glql_util.Bin_io
module Container = Glql_store.Container
module Snapshot = Glql_store.Snapshot
module Graph = Glql_graph.Graph
module Generators = Glql_graph.Generators
module Cr = Glql_wl.Color_refinement
module Kwl = Glql_wl.Kwl
module W = Bin_io.Writer
module R = Bin_io.Reader

let is_error = function Error _ -> true | Ok _ -> false

let error_contains ~needle = function
  | Ok _ -> false
  | Error msg ->
      let nl = String.length needle and hl = String.length msg in
      let rec go i = i + nl <= hl && (String.sub msg i nl = needle || go (i + 1)) in
      go 0

(* --- CRC-32 --------------------------------------------------------------- *)

let test_crc32_vectors () =
  let crc s = Crc32.finish (Crc32.update Crc32.init s ~pos:0 ~len:(String.length s)) in
  (* The IEEE 802.3 check value, same as zlib's crc32(). *)
  check_int "123456789" 0xCBF43926 (crc "123456789");
  check_int "empty" 0 (crc "");
  check_bool "one-bit difference changes the crc" true (crc "abc" <> crc "abd");
  (* Incremental updates match the one-shot digest. *)
  let c = Crc32.init in
  let c = Crc32.update c "12345" ~pos:0 ~len:5 in
  let c = Crc32.update c "6789" ~pos:0 ~len:4 in
  check_int "incremental = one-shot" 0xCBF43926 (Crc32.finish c)

(* --- binary reader/writer ------------------------------------------------- *)

let test_bin_io_roundtrip () =
  let w = W.create () in
  W.u8 w 200;
  W.u32 w 0xDEADBEEF;
  W.i64 w (-12345678901234);
  W.f64 w 1.5e-300;
  W.f64 w Float.nan;
  W.str w "hello";
  W.int_array w [| min_int; -1; 0; max_int |];
  W.float_array w [| 0.1; -0.0 |];
  let r = R.of_string (W.contents w) in
  check_int "u8" 200 (R.u8 r);
  check_int "u32" 0xDEADBEEF (R.u32 r);
  check_int "i64" (-12345678901234) (R.i64 r);
  check_bool "f64" true (R.f64 r = 1.5e-300);
  check_bool "f64 nan bit-exact" true (Float.is_nan (R.f64 r));
  Alcotest.(check string) "str" "hello" (R.str r);
  check_bool "int array" true (R.int_array r = [| min_int; -1; 0; max_int |]);
  let fs = R.float_array r in
  check_bool "float array incl. -0." true
    (fs.(0) = 0.1 && Int64.bits_of_float fs.(1) = Int64.bits_of_float (-0.0));
  R.expect_end r

let test_bin_io_bounds () =
  (* Every primitive must fail cleanly on truncated input, including
     length prefixes larger than the remaining bytes (no allocation of
     attacker-controlled sizes). *)
  let truncated = [ ""; "\x01"; "\xff\xff\xff\xff"; "\xff\xff\xff\x7f abc" ] in
  List.iter
    (fun s ->
      check_bool "str on truncated input" true (is_error (Bin_io.decode s R.str));
      check_bool "int_array on truncated input" true (is_error (Bin_io.decode s R.int_array)))
    truncated;
  check_bool "u32 out of writer range" true
    (match W.u32 (W.create ()) (-1) with
    | () -> false
    | exception Invalid_argument _ -> true);
  (* Trailing garbage is an error, not silently ignored. *)
  check_bool "expect_end rejects leftovers" true
    (is_error
       (Bin_io.decode "\x00extra" (fun r ->
            let v = R.u8 r in
            R.expect_end r;
            v)))

(* --- container ------------------------------------------------------------ *)

let sections = [ ("AAAA", "first payload"); ("BBBB", ""); ("CCCC", "third") ]

let test_container_roundtrip () =
  let s = Container.to_string sections in
  (match Container.of_string s with
  | Ok decoded -> check_bool "sections round trip" true (decoded = sections)
  | Error e -> Alcotest.failf "container decode failed: %s" e);
  check_bool "starts with magic" true (String.sub s 0 4 = "GLQS")

let test_container_truncation () =
  let s = Container.to_string sections in
  (* Every strict prefix must be rejected — there is no length at which a
     cut-off file looks complete. *)
  for len = 0 to String.length s - 1 do
    if not (is_error (Container.of_string (String.sub s 0 len))) then
      Alcotest.failf "truncation to %d bytes accepted" len
  done

let test_container_bit_flips () =
  let s = Container.to_string sections in
  (* No single corrupted byte may yield a successful parse: header damage
     trips the magic/version/framing checks, body damage trips a CRC. *)
  for i = 0 to String.length s - 1 do
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xFF));
    if not (is_error (Container.of_string (Bytes.to_string b))) then
      Alcotest.failf "flipping byte %d accepted" i
  done;
  (* A payload flip specifically reports the checksum, naming the section. *)
  let payload_pos = String.length s - 1 (* last byte of the last payload *) in
  let b = Bytes.of_string s in
  Bytes.set b payload_pos 'X';
  check_bool "payload flip reports a checksum mismatch" true
    (error_contains ~needle:"checksum mismatch in section \"CCCC\""
       (Container.of_string (Bytes.to_string b)))

let test_container_bad_magic_and_version () =
  let s = Container.to_string sections in
  let bad_magic = "NOPE" ^ String.sub s 4 (String.length s - 4) in
  check_bool "bad magic reported" true
    (error_contains ~needle:"bad magic" (Container.of_string bad_magic));
  check_bool "plain text rejected" true
    (error_contains ~needle:"bad magic" (Container.of_string "this is not a snapshot file"));
  (* Patch the format version (bytes 4..7, little-endian) to a future one. *)
  let future = Bytes.of_string s in
  Bytes.set future 4 (Char.chr 99);
  check_bool "future version reported" true
    (error_contains ~needle:"unsupported snapshot format version 99"
       (Container.of_string (Bytes.to_string future)))

(* --- snapshots ------------------------------------------------------------ *)

let graph_labels g = Array.init (Graph.n_vertices g) (Graph.label g)

let graph_equal a b =
  Graph.n_vertices a = Graph.n_vertices b
  && Graph.to_csr a = Graph.to_csr b
  && graph_labels a = graph_labels b

let sample_snapshot () =
  let g = Generators.petersen () in
  let h = Generators.grid 2 3 in
  {
    Snapshot.producer = "test";
    saved_at = 1234.5;
    graphs =
      [
        { Snapshot.g_name = "g"; g_spec = "petersen"; g_gen = 0; g_graph = g };
        { Snapshot.g_name = "h"; g_spec = "grid2x3"; g_gen = 1; g_graph = h };
      ];
    colorings =
      [
        { Snapshot.c_name = "g"; c_data = Snapshot.Cr_data (Cr.run g) };
        {
          Snapshot.c_name = "h";
          c_data = Snapshot.Kwl_data (2, Kwl.run_joint ~k:2 ~variant:Kwl.Folklore [ h ]);
        };
      ];
    plans = [ ("key-a", "agg_sum{x2}([1] | E(x1,x2))"); ("key-b", "[1]") ];
    models =
      [
        {
          Snapshot.m_name = "deg-clf";
          m_task = 0;
          m_mode = 0;
          m_recipe = "deg;label";
          m_target = "agg_sum{x2}([1] | E(x1,x2))";
          m_schema = "vertex|deg=1;label=1";
          m_sources = [ ("g", 0) ];
          m_sizes = [ 2; 1 ];
          m_seed = 1;
          m_params =
            [ (2, 1, [| 0.25; -0.5 |]); (1, 1, [| 0.125 |]) ];
          m_rows = 10;
          m_epochs = 3;
          m_lr = 0.0625;
          m_split = 0.75;
          m_losses = [| 0.9; 0.5; 0.25 |];
          m_train_metric = 0.875;
          m_test_metric = 0.5;
        };
      ];
    metrics =
      Some
        {
          Snapshot.m_requests = 7;
          m_errors = 2;
          m_bytes_in = 100;
          m_bytes_out = 2000;
          m_by_command = [ ("QUERY", 4); ("WL", 3) ];
        };
  }

let test_snapshot_roundtrip () =
  let snap = sample_snapshot () in
  let encoded = Snapshot.encode snap in
  match Snapshot.decode encoded with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok decoded ->
      Alcotest.(check string) "producer" "test" decoded.Snapshot.producer;
      check_float "saved_at" 1234.5 decoded.Snapshot.saved_at;
      check_int "graph count" 2 (List.length decoded.Snapshot.graphs);
      List.iter2
        (fun (a : Snapshot.graph_entry) (b : Snapshot.graph_entry) ->
          check_bool ("graph " ^ a.Snapshot.g_name) true
            (a.Snapshot.g_name = b.Snapshot.g_name
            && a.Snapshot.g_spec = b.Snapshot.g_spec
            && a.Snapshot.g_gen = b.Snapshot.g_gen
            && graph_equal a.Snapshot.g_graph b.Snapshot.g_graph))
        snap.Snapshot.graphs decoded.Snapshot.graphs;
      (* Colourings survive with identical histories / stable colours. *)
      (match (snap.Snapshot.colorings, decoded.Snapshot.colorings) with
      | ( [ { Snapshot.c_data = Snapshot.Cr_data cr; _ }; { c_data = Snapshot.Kwl_data (k, kwl); _ } ],
          [ { Snapshot.c_data = Snapshot.Cr_data cr'; _ }; { c_data = Snapshot.Kwl_data (k', kwl'); _ } ] )
        ->
          check_bool "cr history identical" true (Cr.history cr = Cr.history cr');
          check_int "cr rounds" (Cr.rounds cr) (Cr.rounds cr');
          check_int "kwl k" k k';
          check_bool "kwl stable identical" true (Kwl.stable_colors kwl = Kwl.stable_colors kwl');
          check_int "kwl rounds" (Kwl.rounds kwl) (Kwl.rounds kwl')
      | _ -> Alcotest.fail "unexpected colouring shapes");
      check_bool "plans identical" true (decoded.Snapshot.plans = snap.Snapshot.plans);
      check_bool "metrics identical" true (decoded.Snapshot.metrics = snap.Snapshot.metrics);
      (* The decisive check: re-encoding the decoded snapshot reproduces
         the original byte string exactly. *)
      Alcotest.(check string) "bit-identical re-encoding" encoded (Snapshot.encode decoded)

let test_snapshot_file_roundtrip () =
  let snap = sample_snapshot () in
  let path = Filename.temp_file "glql_store_test" ".glqs" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (match Snapshot.write_file path snap with
      | Ok bytes -> check_int "write_file size" (String.length (Snapshot.encode snap)) bytes
      | Error e -> Alcotest.failf "write_file failed: %s" e);
      match Snapshot.read_file path with
      | Ok decoded ->
          Alcotest.(check string)
            "file round trip bit-identical" (Snapshot.encode snap) (Snapshot.encode decoded)
      | Error e -> Alcotest.failf "read_file failed: %s" e)

let test_snapshot_malformed () =
  let snap = sample_snapshot () in
  let encoded = Snapshot.encode snap in
  check_bool "missing file" true (is_error (Snapshot.read_file "/nonexistent/glql.snap"));
  check_bool "empty input" true (is_error (Snapshot.decode ""));
  check_bool "missing META section" true
    (error_contains ~needle:"missing"
       (Snapshot.decode (Container.to_string [ ("ZZZZ", "opaque") ])));
  (* A colouring naming a graph the snapshot does not carry is corrupt. *)
  let orphan =
    { snap with Snapshot.colorings = [ { Snapshot.c_name = "nope"; c_data = Snapshot.Cr_data (Cr.run (Generators.petersen ())) } ] }
  in
  check_bool "orphan colouring rejected" true
    (error_contains ~needle:"unknown graph" (Snapshot.decode (Snapshot.encode orphan)));
  (* Unknown extra sections are tolerated (minor format growth). *)
  (match Container.of_string encoded with
  | Error e -> Alcotest.failf "container re-parse failed: %s" e
  | Ok secs ->
      check_bool "unknown section tolerated" true
        (match Snapshot.decode (Container.to_string (secs @ [ ("XTRA", "future data") ])) with
        | Ok _ -> true
        | Error _ -> false));
  (* Truncating the snapshot anywhere still fails cleanly. *)
  let n = String.length encoded in
  List.iter
    (fun len ->
      check_bool (Printf.sprintf "truncated to %d bytes" len) true
        (is_error (Snapshot.decode (String.sub encoded 0 len))))
    [ 0; 3; 8; n / 4; n / 2; n - 1 ]

(* A model source may name a graph the file does not bind: files written
   before sources were recorded by binding key hold the client's spelling
   of a spec. Such a file decodes, and RESTORE resolves the spelling to
   the file's binding of the spec, so the model answers as it did when
   saved. *)
let test_snapshot_spelled_model_source () =
  let module Server = Glql_server.Server in
  let server () = Server.create { Server.default_config with Server.socket_path = None } in
  let path = Filename.temp_file "glql_store_test" ".glqs" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let t = server () in
      ignore
        (Server.handle_line t
           "TRAIN m ON \"cycle3 + path4\" WITH 'deg' TARGET 'agg_sum{x2}([1] | E(x1,x2))' EPOCHS 2");
      let pred = Server.handle_line t "PREDICT m \"cycle3 + path4\""
      and models = Server.handle_line t "MODELS" in
      ignore (Server.handle_line t ("SAVE " ^ path));
      let snap =
        match Snapshot.read_file path with
        | Ok s -> s
        | Error e -> Alcotest.failf "read_file failed: %s" e
      in
      let spelled =
        {
          snap with
          Snapshot.models =
            List.map
              (fun m ->
                {
                  m with
                  Snapshot.m_sources =
                    List.map (fun (_, gen) -> ("cycle3 + path4", gen)) m.Snapshot.m_sources;
                })
              snap.Snapshot.models;
        }
      in
      check_bool "a source naming no graph of the file decodes" true
        (Result.is_ok (Snapshot.decode (Snapshot.encode spelled)));
      (match Snapshot.write_file path spelled with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "write_file failed: %s" e);
      let t2 = server () in
      let reply = Server.handle_line t2 ("RESTORE " ^ path) in
      check_bool "RESTORE ok" true (String.length reply > 2 && String.sub reply 0 2 = "OK");
      Alcotest.(check string) "PREDICT as saved" pred
        (Server.handle_line t2 "PREDICT m \"cycle3 + path4\"");
      Alcotest.(check string) "the source resolves to the binding" models
        (Server.handle_line t2 "MODELS"))

(* Random labelled graphs round-trip bit-identically: structure, labels,
   and the colour-refinement run all survive encode/decode, and the
   re-encoding is byte-equal. *)
let test_snapshot_qcheck_roundtrip =
  qtest ~count:60 "snapshot round trip on random graphs" (graph_arbitrary ~max_n:9 ())
    (fun param ->
      let g = labelled_graph_of param in
      let snap =
        {
          Snapshot.producer = "qcheck";
          saved_at = 1.0;
          graphs = [ { Snapshot.g_name = "r"; g_spec = "random"; g_gen = 3; g_graph = g } ];
          colorings = [ { Snapshot.c_name = "r"; c_data = Snapshot.Cr_data (Cr.run g) } ];
          plans = [ ("k", "[1]") ];
          models = [];
          metrics = None;
        }
      in
      let encoded = Snapshot.encode snap in
      match Snapshot.decode encoded with
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e
      | Ok decoded -> (
          match (decoded.Snapshot.graphs, decoded.Snapshot.colorings) with
          | [ ge ], [ { Snapshot.c_data = Snapshot.Cr_data cr; _ } ] ->
              graph_equal g ge.Snapshot.g_graph
              && Cr.history cr = Cr.history (Cr.run g)
              && Snapshot.encode decoded = encoded
          | _ -> false))

let suite =
  ( "store",
    [
      case "crc32 vectors" test_crc32_vectors;
      case "bin_io round trip" test_bin_io_roundtrip;
      case "bin_io bounds checks" test_bin_io_bounds;
      case "container round trip" test_container_roundtrip;
      case "container truncation" test_container_truncation;
      case "container bit flips" test_container_bit_flips;
      case "container bad magic / future version" test_container_bad_magic_and_version;
      case "snapshot round trip" test_snapshot_roundtrip;
      case "snapshot file round trip" test_snapshot_file_roundtrip;
      case "snapshot malformed inputs" test_snapshot_malformed;
      case "snapshot model source naming a spelling" test_snapshot_spelled_model_source;
      test_snapshot_qcheck_roundtrip;
    ] )
