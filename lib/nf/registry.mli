(** The NF action table — paper Table 2.

    Maps each commonly deployed NF type to its action profile and its
    deployment percentage in enterprise networks. The orchestrator
    consults this table ("AT" in Algorithm 1) to fetch the actions of
    the NFs named in a policy, and the §4 statistics weight NF pairs by
    these percentages. New NFs are accommodated by {!register}
    (typically with a profile derived by the {!Nfp_inspector}). *)

type entry = {
  kind : string;
  profile : Action.t list;
  deployment_pct : float option;
      (** share of enterprise deployments (paper Table 2 "%" column);
          [None] for rows the paper leaves unquantified *)
}

val find : string -> entry option
(** Case-insensitive lookup by NF type name. *)

val profile_of : string -> Action.t list
(** @raise Not_found for unregistered types. *)

val register : kind:string -> profile:Action.t list -> unit
(** Register or overwrite an NF type (paper §4.3: "operators could
    generate an action profile… and register it"). A registered type
    carries no deployment percentage. *)

val weighted_kinds : unit -> (string * float) list
(** NF types carrying a deployment percentage, normalized to sum 1 —
    the population the §4 pair statistics are computed over. *)

val instantiate : string -> name:string -> Nf.t option
(** Build a fresh default-configured instance of a built-in NF type
    ([None] for types without an implementation, e.g. custom rows). *)

val instances : (string * string) list -> string -> Nf.t
(** [instances bindings] builds one fresh instance per (name, kind)
    binding, now, and returns the lookup by name ([Not_found] for a
    name it does not bind). Apply it once per deployment: two
    deployments never share an instance.
    @raise Invalid_argument for a kind {!instantiate} cannot build. *)
