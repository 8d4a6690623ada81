(** Service graphs: series–parallel composition of NF instances.

    The orchestrator compiles policies into these terms; the
    infrastructure turns them into classifier/forwarding/merging tables.
    Every shape in the paper's Fig. 14 is expressible: sequential
    chains, plain parallelism, trees (an NF followed by a parallel
    stage), and parallel branches that are themselves chains. *)

type t =
  | Nf of string  (** a single NF instance *)
  | Seq of t list  (** sequential composition *)
  | Par of t list  (** parallel branches, merged when all complete *)

val nf : string -> t
val seq : t list -> t
val par : t list -> t
(** Smart constructors: flatten nested [Seq]/[Par] and collapse
    singletons. @raise Invalid_argument on empty composition. *)

val nfs : t -> string list
(** NF names in left-to-right (sequential-order) appearance. *)

val nf_count : t -> int

val equivalent_length : t -> int
(** The paper's "equivalent chain length": [Seq] sums, [Par] takes the
    max, a single NF counts 1. Mergers are not counted (the paper does
    not count them either when quoting equivalent lengths). *)

val contains : t -> string -> bool

val well_formed : t -> (unit, string) result
(** No duplicate NF names, no empty compositions. *)

val pp : Format.formatter -> t -> unit
(** Inline rendering, e.g. [vpn -> (mon | fw) -> lb]. *)

val to_string : t -> string

val to_dot : t -> string
(** Graphviz rendering of the service graph: NFs as boxes, parallel
    blocks fanning out of a fork point and back into a merger node
    (diamond), matching the paper's service-graph drawings. *)
