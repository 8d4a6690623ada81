(** NF parallelism identification — paper Algorithm 1.

    Given two action profiles in their intended order, decide whether
    the NFs can run in parallel and which conflicting action pairs make
    packet copying necessary. *)

type result = {
  parallelizable : bool;
  conflicting_actions : (Nfp_nf.Action.t * Nfp_nf.Action.t) list;
      (** non-empty iff parallel execution needs a packet copy *)
  blocking : (Nfp_nf.Action.t * Nfp_nf.Action.t) option;
      (** the first action pair that forbids parallelism, when any *)
}

val analyze :
  ?field_sensitive_write_read:bool ->
  Nfp_nf.Action.t list ->
  Nfp_nf.Action.t list ->
  result
(** [analyze p1 p2] runs Algorithm 1 on [Order(NF1, before, NF2)] where
    [p1]/[p2] are the NFs' profiles (fetched from the registry — "AT" —
    by the callers). Exhaustively classifies every action pair against
    the dependency table; a single [Not_parallelizable] pair makes the
    whole pair sequential. *)

val analyze_kinds :
  ?field_sensitive_write_read:bool -> string -> string -> result
(** Convenience over registry profiles.
    @raise Not_found for unregistered NF types. *)

val verdict : result -> Dependency.verdict
(** Collapse to the three-way classification of Table 3. *)
