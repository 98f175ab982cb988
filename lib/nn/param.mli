(** A learnable parameter matrix with gradient and Adam moment buffers.
    All buffers are mutated in place by layers and optimizers. *)

module Mat = Glql_tensor.Mat

type t = {
  name : string;
  data : Mat.t;
  grad : Mat.t;
  moment1 : Mat.t;
  moment2 : Mat.t;
}

val create : name:string -> Mat.t -> t
val zero_grad : t -> unit

(** A shadow parameter sharing [data] (read-only during forward/backward)
    but owning a private zeroed [grad], for race-free gradient
    accumulation on worker domains. *)
val shadow : t -> t
