(** Cai-Fürer-Immerman graphs: for a connected base graph [B] and a set of
    twisted base edges, a labelled graph such that twisting an odd number of
    edges yields a non-isomorphic companion that low-dimensional
    Weisfeiler-Leman cannot distinguish (slide 65). *)

type vertex_kind =
  | Middle of int * int list
      (** [Middle (v, s)]: gadget-interior vertex of base vertex [v] for the
          even incident-edge subset [s] (edge indices). *)
  | Port of int * int * int
      (** [Port (v, e, bit)]: port of base vertex [v] on base edge [e]. *)

type t

(** [build ?twisted base] constructs CFI(base, twisted) where [twisted]
    lists indices into [Graph.edges base]. Raises if [base] is not
    connected. *)
val build : ?twisted:int list -> Graph.t -> t

(** The resulting labelled graph. *)
val graph : t -> Graph.t

(** What CFI vertex [v] encodes. *)
val kind : t -> int -> vertex_kind

(** [(untwisted, one-twist)] — the canonical non-isomorphic pair. *)
val pair : Graph.t -> Graph.t * Graph.t
