(** Policy sanity checking and conflict detection.

    The paper (§3) notes that hand-written rules may conflict — e.g.
    opposite [Order] rules, or one NF assigned both [first] and [last]
    — and leaves detection to future work. This module implements it:
    structural validation against the NF registry plus detection of
    contradictory rules. *)

(** Conflicts name both the NFs involved and the 1-based index of the
    offending rule in [policy.rules] — the operator-facing rendering
    ({!pp_conflict}, {!suggest}) points at the line to edit. Binding
    problems carry the binding's instance name instead of an index. *)
type conflict =
  | Unknown_nf of { name : string; rule : int }
      (** [rule] is the first rule mentioning the unbound name *)
  | Unknown_kind of string * string  (** binding uses an unregistered NF type *)
  | Duplicate_binding of string
  | Order_cycle of { names : string list; rules : int list }
      (** NF names forming a precedence cycle, with every rule whose
          edge lies inside the cycle *)
  | Priority_both_ways of { a : string; b : string; rules : int * int }
  | Position_conflict of { name : string; rules : int * int }
      (** same NF pinned first and last, by the two given rules *)
  | Position_order_conflict of { pinned : string; other : string; rule : int }
      (** order rule [rule] contradicts first/last pinning, e.g.
          [Position(a, last)] with [Order(a, before, b)] *)
  | Self_rule of { name : string; rule : int }  (** rule relates an NF to itself *)
  | Admission_conflict of { classes : int * int; rules : int * int }
      (** two [Admit] rules declare different admission classes *)
  | Admission_negative of { cls : int; rule : int }
      (** an [Admit] rule declares a negative class *)

val pp_conflict : Format.formatter -> conflict -> unit

val check : Rule.policy -> conflict list
(** All detected conflicts; the empty list means the policy is
    compilable. Order cycles are reported once per strongly connected
    component. Priority edges participate in cycle detection with
    their [hi] NF treated as logically later (the paper converts a
    parallelizable [Order(a, before, b)] into [Priority(b > a)]). *)

val suggest : conflict -> string
(** A remediation hint for the operator — the paper defers conflict
    resolution to future work; this offers the obvious fixes. *)
