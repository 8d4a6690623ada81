(** Dataplane table generation — paper §4.4.3 and Fig. 4.

    Compiles a service graph into the artifacts the infrastructure
    executes: classifier actions (the CT row for a flow), per-NF
    forwarding-table entries (FT), and merge specifications (AT totals
    plus merge operations). Versions are 1-based; version 1 is the
    primary copy that threads the graph and becomes the output.

    Copy placement implements the paper's resource optimizations:
    branches whose writes conflict with no sibling share the primary
    buffer (Dirty Memory Reusing); branches that need a copy get a
    header-only copy unless they read or write the payload
    (Header-Only Copying). The evaluation's rig setups (Fig. 10) are
    expressible through [copy_mode]: [`Copy_all] forces a copy for every
    non-first branch, [`Share_all] forces reference sharing with no
    copies at all (a performance rig, not a semantics-preserving
    deployment), and the default [`Auto] applies the dependency
    analysis. *)

open Nfp_nf

type hop =
  | To_nf of string
  | To_merger of int
  | Deliver  (** transmit out of the graph *)

type action =
  | Copy of { src_version : int; dst_version : int; full : bool }
      (** header-only unless [full] *)
  | Distribute of { version : int; targets : hop list }

type deliverer = D_nf of string | D_merger of int

type expect = {
  deliverer : deliverer;  (** the branch's terminal: who hands the copy over *)
  version : int;  (** version that branch processes *)
  members : string list;  (** every NF inside the branch (nil attribution) *)
}

type merge_spec = {
  id : int;
  result_version : int;  (** the version that continues after merging *)
  expected : expect list;  (** one entry per parallel branch *)
  ops : Merge_op.t list;  (** applied in order; later = higher priority *)
  drop_policy : [ `Any | `Priority_to of deliverer ];
      (** [`Any]: any nil drops the packet (sequential semantics);
          [`Priority_to d]: [d]'s verdict wins (Priority rules) *)
  next : action list;  (** executed on the merged packet *)
}

type nf_entry = {
  nf : string;
  version : int;  (** version this NF processes *)
  actions : action list;  (** the NF runtime's FT row *)
  nil_target : int option;
      (** merger to send a nil packet to when the NF drops *)
}

type plan = {
  graph : Graph.t;
  classifier_actions : action list;
  nf_entries : nf_entry list;
  merges : merge_spec list;
  version_count : int;  (** versions in use, including version 1 *)
  header_copies : int;  (** header-only copies made per packet *)
  full_copies : int;
  serial_order : string list;
      (** the sequential NF order this plan's parallel execution is
          equivalent to: within a parallel block, buffer-sharing
          branches act before copy-carrying branches (whose merge
          operations apply last and therefore win). The result
          correctness principle is stated against this serialization. *)
  priority : int;
      (** the chain's admission priority class (from the policy's Admit
          rule; 0 = best effort): under overload the admission
          controller sheds lower classes first *)
}

val plan :
  ?copy_mode:[ `Auto | `Copy_all | `Share_all ] ->
  ?priority:int ->
  profile_of:(string -> Action.t list) ->
  Graph.t ->
  (plan, string) result
(** [priority] (default 0) is the chain's admission class.
    Errors: malformed graph, unknown NF profile, more than 15 versions
    (the 4-bit metadata limit, paper Fig. 5). *)

val of_output : Compiler.output -> (plan, string) result
(** Plan for a compiler result, carrying its priority pairs and
    admission class. *)

val find_merge : plan -> int -> merge_spec option

val copies_bytes_per_packet : plan -> packet_bytes:int -> header_bytes:int -> int
(** Extra bytes materialized per packet by copies — the numerator of
    the paper's resource-overhead ratio (§6.3.1). *)

val pp : Format.formatter -> plan -> unit
