(** The NF action inspector — paper §5.4.

    The paper inspects NF source for calls into the packet-access
    interfaces. Source inspection is not available to a library that
    receives compiled closures, so this inspector derives the profile
    *behaviourally*: it runs fresh NF instances over probe packets and

    - detects {b writes} by diffing each field before/after processing,
    - detects {b header changes} by watching AH presence and length,
    - detects {b drops} from returned verdicts,
    - detects {b reads} by flipping one field at a time and comparing
      the NF's outputs and its internal-state digest ([Nf.state_digest])
      across the pair of runs — a field whose value changes behaviour
      was read.

    Read detection is a lower bound (an NF that reads a field but never
    acts on it in any probe is undetectable), so {!compare_profiles}
    reports declared-but-unobserved actions separately from undeclared
    ones. *)

open Nfp_nf

val derive_profile : (unit -> Nf.t) -> Action.t list
(** [derive_profile factory] builds fresh instances via [factory] and
    probes them with 64 packets. *)

type comparison = {
  matching : Action.t list;  (** declared and observed *)
  undeclared : Action.t list;  (** observed but missing from the profile *)
  unobserved : Action.t list;  (** declared but never seen in any probe *)
}

val compare_profiles : declared:Action.t list -> observed:Action.t list -> comparison
(** Kept for tests: the comparison tests feed it hand-written profiles;
    programs get it through {!inspect_registered}. *)

val inspect_registered :
  ?probes:int -> string -> (Action.t list * comparison) option
(** Probe a built-in NF type via {!Nfp_nf.Registry.instantiate} and
    compare against its registered profile, with [probes] packets
    (default 64). [None] for types without an implementation. *)

val pp_comparison : Format.formatter -> comparison -> unit
