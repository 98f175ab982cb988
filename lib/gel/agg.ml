(* The aggregation collection Theta (slides 45-46, 61): functions from
   bags of vectors in R^d to R^{d'}.  The bag is passed as a list; the
   empty bag must be meaningful (mean/max return the zero vector, the
   convention also used by the tensor-level GNNs). *)

module Vec = Glql_tensor.Vec

(* Which aggregate [apply] computes. [Expr.eval] folds the built-in ones
   as it enumerates, with the same float operations as their [apply],
   and recognises them by this tag, never by name. *)
type kind = Sum | Mean | Max | Min | Count | Custom

type t = {
  name : string;
  kind : kind;
  in_dim : int;
  out_dim : int;
  apply : Vec.t list -> Vec.t;
}

let apply t bag =
  List.iter
    (fun v ->
      if Vec.dim v <> t.in_dim then
        invalid_arg (Printf.sprintf "Agg.%s: element dim %d, expected %d" t.name (Vec.dim v) t.in_dim))
    bag;
  let out = t.apply bag in
  if Vec.dim out <> t.out_dim then
    failwith (Printf.sprintf "Agg.%s: produced dim %d, declared %d" t.name (Vec.dim out) t.out_dim);
  out

let sum d =
  {
    name = "sum";
    kind = Sum;
    in_dim = d;
    out_dim = d;
    apply =
      (fun bag ->
        let out = Vec.zeros d in
        List.iter (fun v -> Vec.add_inplace ~into:out v) bag;
        out);
  }

let mean d =
  {
    name = "mean";
    kind = Mean;
    in_dim = d;
    out_dim = d;
    apply =
      (fun bag ->
        match bag with
        | [] -> Vec.zeros d
        | _ ->
            let out = Vec.zeros d in
            List.iter (fun v -> Vec.add_inplace ~into:out v) bag;
            Vec.scale (1.0 /. float_of_int (List.length bag)) out);
  }

let max d =
  {
    name = "max";
    kind = Max;
    in_dim = d;
    out_dim = d;
    apply =
      (fun bag ->
        match bag with
        | [] -> Vec.zeros d
        | first :: rest -> List.fold_left (Vec.map2 Float.max) (Vec.copy first) rest);
  }

let min d =
  {
    name = "min";
    kind = Min;
    in_dim = d;
    out_dim = d;
    apply =
      (fun bag ->
        match bag with
        | [] -> Vec.zeros d
        | first :: rest -> List.fold_left (Vec.map2 Float.min) (Vec.copy first) rest);
  }

(* Cardinality of the bag, ignoring the values. *)
let count d =
  {
    name = "count";
    kind = Count;
    in_dim = d;
    out_dim = 1;
    apply = (fun bag -> [| float_of_int (List.length bag) |]);
  }

let custom ~name ~in_dim ~out_dim f = { name; kind = Custom; in_dim; out_dim; apply = f }
