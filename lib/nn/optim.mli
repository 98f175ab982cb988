(** The Adam gradient-descent optimizer (slide 20). [step] applies and
    then zeroes the accumulated gradients. *)

type t

val adam : ?beta1:float -> ?beta2:float -> ?eps:float -> lr:float -> unit -> t
val step : t -> Param.t list -> unit
