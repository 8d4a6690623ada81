(** Intermediate representations — paper §4.4.1.

    Policies are transformed into two IR forms before graph
    construction: a placement block per [Position] rule, and a
    relationship block per [Order]/[Priority] rule carrying the
    Algorithm-1 analysis (parallelizability and conflicting actions).
    NFs bound in the policy but mentioned by no rule are "free". *)

open Nfp_nf

type position = { nf : string; place : Nfp_policy.Rule.place }

type pair = {
  earlier : string;  (** lower priority: earlier in the intended order *)
  later : string;  (** higher priority: its result wins conflicts *)
  source : [ `Order | `Priority ];
  parallelizable : bool;
  conflicting_actions : (Action.t * Action.t) list;
}

type t = {
  positions : position list;
  pairs : pair list;
  free : string list;
  profile_of : string -> Action.t list;
      (** resolved binding: instance name to its registry profile *)
}

val transform :
  ?field_sensitive_write_read:bool -> Nfp_policy.Rule.policy -> (t, string) result
(** Resolve names (explicit bindings first, then registry type names),
    run Algorithm 1 on every [Order] pair, and collect conflicting
    actions for every [Priority] pair (which the operator forces
    parallel regardless of gray verdicts — paper §3). Fails on names
    that resolve to no registered profile. *)
