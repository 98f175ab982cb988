(** Random-weight expressions simulating Weisfeiler-Leman refinements:
    the constructive halves of rho(CR) = rho(MPNN) (slide 52) and
    rho(k-WL) = rho(GEL^{k+1}) (slide 66) for k = 1, 2. *)

(** MPNN-fragment expression simulating [rounds] steps of colour
    refinement; free variable x1, output dimension [dim]. *)
val cr_expr : Glql_util.Rng.t -> label_dim:int -> rounds:int -> dim:int -> Expr.t

(** GEL^3 expression simulating [rounds] steps of folklore 2-WL on the
    pair (x1, x2). *)
val fwl2_expr : Glql_util.Rng.t -> label_dim:int -> rounds:int -> dim:int -> Expr.t
