(* Text protocol of glqld. Requests are one line each; the tokenizer
   honours single and double quotes so GEL expressions (which contain
   blanks and parentheses) travel as one argument. Replies are one line:
   "OK <json>" or "ERR <json-object>". Keeping the framing line-based
   makes the protocol usable from netcat and trivial to parse in tests. *)

(* Wire-format revision. Bump whenever the reply shapes or the command
   set change incompatibly; clients compare it in the HELLO reply.
   v1: initial protocol. v2: EXPLAIN/VERSION commands, TRACE option,
   protocol_version + stage histograms in STATS. v3: SAVE/RESTORE
   commands and the "restored" section in STATS. v4: ERR replies carry a
   machine-readable {"code","message"} object instead of a bare string
   (resource-governance limits need errors clients can branch on).
   v5: the MUTATE command family — batched ADD_EDGES / DEL_EDGES /
   SET_LABEL applied atomically with a generation bump; every v4
   read-path reply is byte-unchanged.
   v6: model serving — FEATURIZE / TRAIN / PREDICT / MODELS, backed by a
   server-side feature-recipe evaluator and a persisted model registry;
   the v5 reply grammar is byte-unchanged, three error codes are added
   (ERR_UNKNOWN_MODEL, ERR_BAD_RECIPE, ERR_SCHEMA_MISMATCH).
   Still v6 (additive): the batched "PREDICT <model> ON g1,g2,..." form
   and the "unseen" field in PREDICT replies — single-graph PREDICT
   lines and their replies are byte-unchanged apart from that
   deterministic field. *)
let protocol_version = 6

(* The JSON tree lives in Glql_util.Json so bench, metrics and trace
   output share one printer; the aliased constructors keep P.Obj /
   P.Str call sites working unchanged. *)
type json = Glql_util.Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of json list
  | Obj of (string * json) list
  | Floats of float array
  | Float_rows of { rows : int; width : int; data : float array }

let json_to_string = Glql_util.Json.to_string

let ok j = "OK " ^ json_to_string j

(* Machine-readable errors (v4): every ERR line carries a stable
   ERR_*-code so clients and the fault harness can branch on the failure
   class without scraping prose. The codes in use:

     ERR_PARSE           malformed request line (tokenizer / grammar)
     ERR_BAD_ARG         argument out of its accepted range
     ERR_UNKNOWN_GRAPH   graph name not registered and not a spec
     ERR_BAD_SPEC        graph spec rejected (syntax or size caps)
     ERR_QUERY           GEL parse/type error
     ERR_LIMIT_CELLS     --max-cells table guard
     ERR_LIMIT_COST      estimated kernel cost over the cell budget
     ERR_LIMIT_LINE      request line over --max-line-bytes
     ERR_LIMIT_INBUF     connection buffered too many bytes, no newline
     ERR_LIMIT_CONNS     connection-count cap reached
     ERR_DEADLINE        per-request --timeout deadline passed
     ERR_SNAPSHOT        SAVE/RESTORE failure
     ERR_UNKNOWN_MODEL   model name not in the model registry (v6)
     ERR_BAD_RECIPE      feature recipe rejected (syntax or mode) (v6)
     ERR_SCHEMA_MISMATCH features no longer match a model's schema (v6)
     ERR_INTERNAL        unexpected exception *)
type error = { code : string; message : string }

let error ~code message = { code; message }

let err_line e = "ERR " ^ json_to_string (Obj [ ("code", Str e.code); ("message", Str e.message) ])

(* Exactly "OK" or "OK <json>" — a reply like "OKRA" is not a success,
   and clients exit nonzero on anything else. *)
let is_ok line =
  line = "OK" || (String.length line >= 3 && String.sub line 0 3 = "OK ")

(* One mutation op inside a MUTATE batch (v5). *)
type mutation =
  | M_add_edge of int * int
  | M_del_edge of int * int
  | M_set_label of int * float array

(* Featurization scope (v6): one row per vertex, or one summary row for
   the whole graph. *)
type feat_mode = Fm_vertex | Fm_graph

(* A parsed TRAIN command (v6). [t_mode = None] means auto: vertex mode
   for a single source graph, graph mode for several. *)
type train_spec = {
  t_model : string;
  t_graphs : string list;
  t_recipe : string;
  t_target : string;
  t_mode : feat_mode option;
  t_epochs : int option;
  t_lr : float option;
  t_seed : int option;
  t_split : float option;
}

type request =
  | Hello
  | Ping
  | Version
  | Load of string * string
  | Graphs
  | Generators
  | Query of string * string
  | Explain of string * string
  | Wl of string * int option
  | Kwl of string * int
  | Hom of string * int
  | Mutate of string * mutation list
  | Featurize of string * string * feat_mode
  | Train of train_spec
  | Predict of string * string * int list
  | Predict_batch of string * string list  (* PREDICT <model> ON g1,g2,... *)
  | Models
  | Save of string option
  | Restore of string option
  | Stats
  | Quit
  | Shutdown

type parsed = { req : request; traced : bool }

let tokenize line =
  let n = String.length line in
  let tokens = ref [] in
  let buf = Buffer.create 32 in
  let in_token = ref false in
  let flush_token () =
    if !in_token then begin
      tokens := Buffer.contents buf :: !tokens;
      Buffer.clear buf;
      in_token := false
    end
  in
  let rec go i =
    if i >= n then begin
      flush_token ();
      Ok (List.rev !tokens)
    end
    else
      match line.[i] with
      | ' ' | '\t' | '\r' ->
          flush_token ();
          go (i + 1)
      | ('\'' | '"') as q -> in_quote q (i + 1)
      | c ->
          in_token := true;
          Buffer.add_char buf c;
          go (i + 1)
  and in_quote q i =
    if i >= n then Error "unbalanced quote"
    else if line.[i] = q then begin
      (* A quoted span always yields a token, even when empty. *)
      in_token := true;
      go (i + 1)
    end
    else begin
      Buffer.add_char buf line.[i];
      in_quote q (i + 1)
    end
  in
  go 0

let int_arg name s =
  match int_of_string_opt s with
  | Some k -> Ok k
  | None -> Error (Printf.sprintf "%s: expected an integer, got %S" name s)

let int_args name tokens =
  List.fold_right
    (fun t acc -> Result.bind (int_arg name t) (fun k -> Result.map (List.cons k) acc))
    tokens (Ok [])

let mutate_usage =
  "usage: MUTATE <graph> { ADD_EDGES <u> <v> ... | DEL_EDGES <u> <v> ... | \
   SET_LABEL <v> <float> ... } ..."

(* Parse the op tokens of a MUTATE batch: a sequence of sections, each
   opened by a (case-insensitive) keyword — ADD_EDGES / DEL_EDGES take
   vertex pairs, SET_LABEL takes a vertex and its full replacement label
   vector. Sections may repeat; the batch must contain at least one op.
   Shared with the offline clients' scriptable --mutate syntax. *)
let parse_mutations tokens =
  let keyword t =
    match String.uppercase_ascii t with
    | ("ADD_EDGES" | "DEL_EDGES" | "SET_LABEL") as k -> Some k
    | _ -> None
  in
  let take_section tokens =
    let rec go acc = function
      | t :: _ as rest when keyword t <> None -> (List.rev acc, rest)
      | t :: rest -> go (t :: acc) rest
      | [] -> (List.rev acc, [])
    in
    go [] tokens
  in
  let rec floats name acc = function
    | [] -> Ok (List.rev acc)
    | t :: rest -> (
        match float_of_string_opt t with
        | Some f -> floats name (f :: acc) rest
        | None -> Error (Printf.sprintf "%s: expected a float, got %S" name t))
  in
  let rec pair_up mk acc = function
    | u :: v :: rest -> pair_up mk (mk u v :: acc) rest
    | _ -> List.rev acc (* even length checked by the caller *)
  in
  let rec sections acc tokens =
    match tokens with
    | [] ->
        if acc = [] then Error "MUTATE: at least one mutation op required"
        else Ok (List.rev acc)
    | kw :: rest -> (
        match keyword kw with
        | None -> Error (Printf.sprintf "MUTATE: expected a section keyword, got %S" kw)
        | Some k -> (
            let body, remaining = take_section rest in
            match k with
            | "ADD_EDGES" | "DEL_EDGES" -> (
                let mk =
                  if k = "ADD_EDGES" then fun u v -> M_add_edge (u, v)
                  else fun u v -> M_del_edge (u, v)
                in
                if body = [] then Error (k ^ ": expected vertex pairs")
                else if List.length body mod 2 <> 0 then
                  Error (k ^ ": odd number of vertex tokens")
                else
                  match int_args k body with
                  | Error e -> Error e
                  | Ok vs -> sections (List.rev_append (pair_up mk [] vs) acc) remaining)
            | _ -> (
                (* SET_LABEL *)
                match body with
                | v :: (_ :: _ as fs) -> (
                    match int_arg "SET_LABEL vertex" v with
                    | Error e -> Error e
                    | Ok vtx -> (
                        match floats "SET_LABEL value" [] fs with
                        | Error e -> Error e
                        | Ok fl ->
                            sections (M_set_label (vtx, Array.of_list fl) :: acc) remaining))
                | _ -> Error "SET_LABEL: expected <vertex> <float> ...")))
  in
  sections [] tokens

let feat_mode_of_token t =
  match String.uppercase_ascii t with
  | "VERTEX" -> Ok Fm_vertex
  | "GRAPH" -> Ok Fm_graph
  | _ -> Error (Printf.sprintf "expected VERTEX or GRAPH, got %S" t)

let feat_mode_name = function Fm_vertex -> "vertex" | Fm_graph -> "graph"

let train_usage =
  "usage: TRAIN <model> ON <graph>[,<graph>...] WITH '<recipe>' TARGET \
   '<gel-expression>' [MODE VERTEX|GRAPH] [EPOCHS <n>] [LR <f>] [SEED <n>] \
   [SPLIT <f>]"

(* Parse the tokens of a TRAIN command after the model name: a sequence
   of (case-insensitive) keyword/value sections, same style as
   parse_mutations. ON and WITH and TARGET are mandatory; the option
   sections may appear in any order but at most once each. *)
let parse_train model tokens =
  let split_on_comma s = String.split_on_char ',' s |> List.filter (fun x -> x <> "") in
  let rec go spec = function
    | [] ->
        if spec.t_graphs = [] then Error "TRAIN: missing ON <graph> section"
        else if spec.t_recipe = "" then Error "TRAIN: missing WITH '<recipe>' section"
        else if spec.t_target = "" then Error "TRAIN: missing TARGET '<gel-expression>' section"
        else Ok spec
    | kw :: value :: rest -> (
        match String.uppercase_ascii kw with
        | "ON" ->
            let graphs = split_on_comma value in
            if graphs = [] then Error "TRAIN ON: expected at least one graph name"
            else go { spec with t_graphs = graphs } rest
        | "WITH" -> go { spec with t_recipe = value } rest
        | "TARGET" -> go { spec with t_target = value } rest
        | "MODE" ->
            Result.bind (feat_mode_of_token value) (fun m ->
                go { spec with t_mode = Some m } rest)
        | "EPOCHS" ->
            Result.bind (int_arg "EPOCHS" value) (fun n ->
                if n < 1 then Error "EPOCHS: must be >= 1"
                else go { spec with t_epochs = Some n } rest)
        | "SEED" ->
            Result.bind (int_arg "SEED" value) (fun n -> go { spec with t_seed = Some n } rest)
        | "LR" -> (
            match float_of_string_opt value with
            | Some f when f > 0.0 -> go { spec with t_lr = Some f } rest
            | _ -> Error (Printf.sprintf "LR: expected a positive float, got %S" value))
        | "SPLIT" -> (
            match float_of_string_opt value with
            | Some f when f > 0.0 && f <= 1.0 -> go { spec with t_split = Some f } rest
            | _ -> Error (Printf.sprintf "SPLIT: expected a fraction in (0,1], got %S" value))
        | _ -> Error (Printf.sprintf "TRAIN: unknown section keyword %S" kw))
    | [ kw ] -> Error (Printf.sprintf "TRAIN: section %S is missing its value" kw)
  in
  go
    {
      t_model = model;
      t_graphs = [];
      t_recipe = "";
      t_target = "";
      t_mode = None;
      t_epochs = None;
      t_lr = None;
      t_seed = None;
      t_split = None;
    }
    tokens

(* A trailing bare TRACE token on any command asks for the per-request
   span breakdown in the reply; it is an option, not an argument, so it
   is stripped before command dispatch. *)
let split_trace args =
  match List.rev args with
  | last :: rest when String.uppercase_ascii last = "TRACE" -> (List.rev rest, true)
  | _ -> (args, false)

let parse_tokens = function
  | [] -> Error "empty request"
  | cmd :: args ->
      let args, traced = split_trace args in
      let with_trace = Result.map (fun req -> { req; traced }) in
      with_trace
        (match (String.uppercase_ascii cmd, args) with
        | "HELLO", [] -> Ok Hello
        | "PING", [] -> Ok Ping
        | "VERSION", [] -> Ok Version
        | "LOAD", [ name; spec ] -> Ok (Load (name, spec))
        | "LOAD", _ -> Error "usage: LOAD <name> <graph-spec>"
        | "GRAPHS", [] -> Ok Graphs
        | "GENERATORS", [] -> Ok Generators
        | "QUERY", [ graph; src ] -> Ok (Query (graph, src))
        | "QUERY", _ -> Error "usage: QUERY <graph> '<gel-expression>'"
        | "EXPLAIN", [ graph; src ] -> Ok (Explain (graph, src))
        | "EXPLAIN", _ -> Error "usage: EXPLAIN <graph> '<gel-expression>'"
        | "WL", [ graph ] -> Ok (Wl (graph, None))
        | "WL", [ graph; rounds ] ->
            Result.map (fun r -> Wl (graph, Some r)) (int_arg "rounds" rounds)
        | "WL", _ -> Error "usage: WL <graph> [rounds]"
        | "KWL", [ graph; k ] -> Result.map (fun k -> Kwl (graph, k)) (int_arg "k" k)
        | "KWL", _ -> Error "usage: KWL <graph> <k>"
        | "HOM", [ graph; size ] ->
            Result.map (fun s -> Hom (graph, s)) (int_arg "max-tree-size" size)
        | "HOM", _ -> Error "usage: HOM <graph> <max-tree-size>"
        | "MUTATE", graph :: (_ :: _ as ops) ->
            Result.map (fun ms -> Mutate (graph, ms)) (parse_mutations ops)
        | "MUTATE", _ -> Error mutate_usage
        | "FEATURIZE", [ graph; recipe ] -> Ok (Featurize (graph, recipe, Fm_vertex))
        | "FEATURIZE", [ graph; recipe; mode ] ->
            Result.map (fun m -> Featurize (graph, recipe, m)) (feat_mode_of_token mode)
        | "FEATURIZE", _ -> Error "usage: FEATURIZE <graph> '<recipe>' [VERTEX|GRAPH]"
        | "TRAIN", model :: (_ :: _ as rest) -> Result.map (fun s -> Train s) (parse_train model rest)
        | "TRAIN", _ -> Error train_usage
        | "PREDICT", [ model; on; graphs ] when String.uppercase_ascii on = "ON" -> (
            (* Batched corpus form: one reply with a per-graph payload
               list, same order as the (comma-separated) graph list. *)
            match String.split_on_char ',' graphs |> List.filter (fun g -> g <> "") with
            | [] -> Error "PREDICT ON: expected at least one graph name"
            | gs -> Ok (Predict_batch (model, gs)))
        | "PREDICT", _ :: on :: _ when String.uppercase_ascii on = "ON" ->
            Error "usage: PREDICT <model> ON <graph>[,<graph>...]"
        | "PREDICT", model :: graph :: vertices ->
            Result.map (fun vs -> Predict (model, graph, vs)) (int_args "vertex" vertices)
        | "PREDICT", _ ->
            Error "usage: PREDICT <model> <graph> [vertex ...] | PREDICT <model> ON <graph>[,...]"
        | "MODELS", [] -> Ok Models
        | "SAVE", [] -> Ok (Save None)
        | "SAVE", [ path ] -> Ok (Save (Some path))
        | "SAVE", _ -> Error "usage: SAVE [path]"
        | "RESTORE", [] -> Ok (Restore None)
        | "RESTORE", [ path ] -> Ok (Restore (Some path))
        | "RESTORE", _ -> Error "usage: RESTORE [path]"
        | "STATS", [] -> Ok Stats
        | "QUIT", [] -> Ok Quit
        | "SHUTDOWN", [] -> Ok Shutdown
        | c, _ -> Error (Printf.sprintf "unknown command %S" c))

let parse_request line = Result.bind (tokenize line) parse_tokens

let command_name = function
  | Hello -> "HELLO"
  | Ping -> "PING"
  | Version -> "VERSION"
  | Load _ -> "LOAD"
  | Graphs -> "GRAPHS"
  | Generators -> "GENERATORS"
  | Query _ -> "QUERY"
  | Explain _ -> "EXPLAIN"
  | Wl _ -> "WL"
  | Kwl _ -> "KWL"
  | Hom _ -> "HOM"
  | Mutate _ -> "MUTATE"
  | Featurize _ -> "FEATURIZE"
  | Train _ -> "TRAIN"
  | Predict _ | Predict_batch _ -> "PREDICT"
  | Models -> "MODELS"
  | Save _ -> "SAVE"
  | Restore _ -> "RESTORE"
  | Stats -> "STATS"
  | Quit -> "QUIT"
  | Shutdown -> "SHUTDOWN"
