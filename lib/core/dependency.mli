(** The action dependency table — paper Table 3.

    For an [Order(NF1, before, NF2)] pair, each pair of actions
    (a1 from NF1, a2 from NF2) is classified as parallelizable without
    copying (green), parallelizable with packet copying (orange), or not
    parallelizable (gray). The classification follows the paper's result
    correctness principle: parallel execution must yield the same packet
    and NF internal state as sequential execution.

    Field sensitivity: read–write and write–write pairs compare the
    fields they touch — different fields need no copy (the paper's Dirty
    Memory Reusing, OP#1). Write–read is unconditionally sequential (the
    operator intends the write to be observed); the optional
    [field_sensitive_write_read] mode relaxes that for disjoint fields
    and is benchmarked as an ablation. *)

type verdict =
  | Parallel_no_copy
  | Parallel_with_copy
  | Not_parallelizable

val verdict_to_string : verdict -> string

val pp_verdict : Format.formatter -> verdict -> unit

val action_pair :
  ?field_sensitive_write_read:bool ->
  Nfp_nf.Action.t ->
  Nfp_nf.Action.t ->
  verdict
(** Classify a concrete action pair, applying the same-field test to
    read–write and write–write combinations (and, when
    [field_sensitive_write_read] is set, to write–read). *)

val pp_table : Format.formatter -> unit -> unit
(** Render Table 3 as ASCII. *)
