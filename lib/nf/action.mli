(** NF actions on packets.

    An NF's *action profile* is the set of actions it may perform on a
    packet: reading or writing specific fields, adding/removing headers,
    or dropping (paper Table 2). The orchestrator's dependency analysis
    (Table 3, Algorithm 1) works entirely on these profiles. *)

open Nfp_packet

type t =
  | Read of Field.t
  | Write of Field.t
  | Add_rm_header  (** adds headers to or removes headers from packets *)
  | Drop  (** may drop the packet *)

(** The four action classes of the paper's Table 3 rows/columns. *)
type kind = K_read | K_write | K_add_rm | K_drop

val kind : t -> kind

val field : t -> Field.t option
(** The field a [Read]/[Write] touches; [None] for header/drop actions. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

val pp_profile : Format.formatter -> t list -> unit

(** {1 Profile helpers} *)

val reads : t list -> Field.t list

val writes : t list -> Field.t list

val may_drop : t list -> bool

val adds_or_removes_headers : t list -> bool

val normalize : t list -> t list
(** Sorted, deduplicated profile. *)
