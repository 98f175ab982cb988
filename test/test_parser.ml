(* Tests for the GEL surface syntax: parsing, round-tripping with the
   printer, and error reporting. *)

open Helpers
module Graph = Glql_graph.Graph
module Generators = Glql_graph.Generators
module Expr = Glql_gel.Expr
module Parser = Glql_gel.Parser
module B = Glql_gel.Builder
module Rng = Glql_util.Rng
module Vec = Glql_tensor.Vec

let eval1 src g = Expr.eval_vertexwise g (Parser.parse src)

let test_parse_degree () =
  let g = unlabel (Generators.star 3) in
  let v = eval1 "agg_sum{x2}([1] | E(x1,x2))" g in
  check_float "centre" 3.0 v.(0).(0);
  check_float "leaf" 1.0 v.(1).(0)

let test_parse_atoms () =
  let g = Graph.with_one_hot_labels (Generators.path 2) [| 0; 1 |] ~n_colors:2 in
  check_float "lab" 1.0 (eval_at g (Parser.parse "lab1(x1)") [| 1 |]).(0);
  check_float "edge" 1.0 (eval_at g (Parser.parse "E(x1,x2)") [| 0; 1 |]).(0);
  check_float "eq" 1.0 (eval_at g (Parser.parse "1[x1=x2]") [| 1; 1 |]).(0);
  check_float "neq" 1.0 (eval_at g (Parser.parse "1[x1!=x2]") [| 0; 1 |]).(0)

let test_parse_constants () =
  (match Parser.parse "[1; -2.5; 3]" with
  | Expr.Const v -> check_bool "vector" true (v = [| 1.0; -2.5; 3.0 |])
  | _ -> Alcotest.fail "expected constant");
  match Parser.parse "concat([1], 2.5)" with
  | e -> check_int "scalar constant inside call" 2 (Expr.dim e)

let test_parse_functions () =
  let g = Generators.cycle 5 in
  let v = eval1 "relu(scale(-1)(agg_sum{x2}([1] | E(x1,x2))))" g in
  check_float "relu of negated degree" 0.0 v.(0).(0);
  let v = eval1 "add(agg_sum{x2}([1] | E(x1,x2)), [10])" g in
  check_float "add constant" 12.0 v.(0).(0);
  let v = eval1 "product(agg_sum{x2}([1] | E(x1,x2)), agg_sum{x2}([1] | E(x1,x2)))" g in
  check_float "degree squared" 4.0 v.(0).(0)

let test_parse_triangles () =
  let e =
    Parser.parse
      "scale(0.16666666666666666)(agg_sum{x1,x2,x3}(product(E(x1,x2), product(E(x2,x3), E(x3,x1))) | [1]))"
  in
  check_bool "GEL3 fragment" true (Expr.fragment e = Expr.Frag_gel 3);
  check_float "K4 triangles" 4.0 (Expr.eval_closed (Generators.complete 4) e).(0)

let test_parse_mean_max_count () =
  let g = unlabel (Generators.star 2) in
  let mean_deg = eval1 "agg_mean{x2}(agg_count{x1}([1] | E(x2,x1)) | E(x1,x2))" g in
  check_float "mean neighbour degree at leaf" 2.0 mean_deg.(1).(0);
  let max_lab = eval1 "agg_max{x2}(lab0(x2) | E(x1,x2))" g in
  check_float "max label" 1.0 max_lab.(0).(0)

let test_whitespace_insensitive () =
  let a = Parser.parse "agg_sum{x2}([1]|E(x1,x2))" in
  let b = Parser.parse "  agg_sum { x2 } ( [ 1 ] | E ( x1 , x2 ) )  " in
  Alcotest.(check string) "same print" (Expr.to_string a) (Expr.to_string b)

let test_parse_errors () =
  let fails src =
    match Parser.parse src with
    | _ -> Alcotest.failf "expected failure on %S" src
    | exception Parser.Parse_error _ -> ()
    | exception Expr.Type_error _ -> ()
  in
  List.iter fails
    [
      "";
      "agg_sum{}([1] | E(x1,x2))";
      "agg_typo{x2}([1] | E(x1,x2))";
      "E(x1)";
      "lab(x1)";
      "product([1], [1; 2])";
      "unknownfn([1])";
      "agg_sum{x2}([1] | E(x1,x2)) trailing";
      "[1; oops]";
    ]

(* Round trip: printing a parsed expression reproduces the source up to
   whitespace, and parsing the printer's output preserves semantics. *)
let printable_sources =
  [
    "agg_sum{x2}([1] | E(x1,x2))";
    "agg_mean{x2}(lab0(x2) | E(x1,x2))";
    "relu(concat(lab0(x1), agg_sum{x2}(lab0(x2) | E(x1,x2))))";
    "agg_sum{x2,x3}(product(E(x1,x2), product(E(x2,x3), E(x3,x1))) | [1])";
    "add(1[x1=x2], 1[x1!=x2])";
    "tanh(scale(2)(lab0(x1)))";
  ]

let test_round_trip_syntax () =
  List.iter
    (fun src ->
      let printed = Expr.to_string (Parser.parse src) in
      let reparsed = Expr.to_string (Parser.parse printed) in
      Alcotest.(check string) src printed reparsed)
    printable_sources

let prop_round_trip_semantics =
  qtest ~count:20 "parse(print(e)) has the same semantics" (graph_arbitrary ~min_n:1 ~max_n:6 ())
    (fun input ->
      let g = labelled_graph_of ~n_colors:2 input in
      List.for_all
        (fun src ->
          let e = Parser.parse src in
          let e' = Parser.parse (Expr.to_string e) in
          match Expr.free_vars e with
          | [] -> vec_approx (Expr.eval_closed g e) (Expr.eval_closed g e')
          | _ ->
              let t = Expr.eval g e and t' = Expr.eval g e' in
              Array.for_all2 (fun a b -> vec_approx a b) t.Expr.tdata t'.Expr.tdata)
        printable_sources)

let test_builder_prints_parseable () =
  (* Standard builder expressions print into the parseable fragment. *)
  List.iter
    (fun e ->
      let printed = Expr.to_string e in
      let reparsed = Parser.parse printed in
      Alcotest.(check string) printed printed (Expr.to_string reparsed))
    [
      B.degree ~x:B.x1 ~y:B.x2;
      B.two_walks ~x:B.x1 ~y:B.x2;
      B.triangle_count ();
      B.common_neighbors ();
      B.triangles_at_x1 ();
    ]

let suite =
  ( "parser",
    [
      case "degree" test_parse_degree;
      case "atoms" test_parse_atoms;
      case "constants" test_parse_constants;
      case "functions" test_parse_functions;
      case "triangles" test_parse_triangles;
      case "mean/max/count" test_parse_mean_max_count;
      case "whitespace insensitive" test_whitespace_insensitive;
      case "errors" test_parse_errors;
      case "round trip syntax" test_round_trip_syntax;
      prop_round_trip_semantics;
      case "builder prints parseable" test_builder_prints_parseable;
    ] )
