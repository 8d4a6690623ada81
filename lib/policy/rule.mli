(** NFP policy rules (paper §3).

    A policy is a list of rules over NF instance names plus a binding of
    each name to its NF type (whose action profile lives in the
    registry). The three rule forms are exactly the paper's:

    - [Order (a, b)] — "Order(a, before, b)": desired execution order;
      the orchestrator may still parallelize the pair if the dependency
      analysis allows (§4.1).
    - [Priority (hi, lo)] — "Priority(hi > lo)": run in parallel,
      resolving action conflicts in favour of [hi].
    - [Position (nf, place)] — pin an NF to the head or tail of the
      graph.

    One rule form extends the paper for the overload control plane:

    - [Admit cls] — the chain's admission priority class (an SLO
      intent): under pressure the admission controller sheds lower
      classes first. 0 (the default when no Admit rule is present) is
      best-effort; higher is more important. The policy file syntax
      also accepts the aliases [bronze]/[silver]/[gold] for 0/1/2. *)

type place = First | Last

type t =
  | Order of string * string
  | Priority of string * string
  | Position of string * place
  | Admit of int

type policy = {
  bindings : (string * string) list;  (** instance name → NF type *)
  rules : t list;
}

val nfs_of_rules : t list -> string list
(** Every NF name mentioned, in first-appearance order, deduplicated. *)

val admit_class : t list -> int option
(** The first [Admit] rule's class, if any ({!Validate} flags
    disagreeing duplicates). [None] means best-effort (class 0). *)

val of_chain : string list -> t list
(** Translate a traditional sequential chain [n1; n2; …] into Order
    rules for neighbouring NFs (paper §3: sequential descriptions are
    converted automatically, then parallelism is explored). *)

val pp : Format.formatter -> t -> unit
(** Kept for tests: the printing tests pin each rule's form; programs
    print whole policies with {!pp_policy}. *)

val pp_policy : Format.formatter -> policy -> unit
