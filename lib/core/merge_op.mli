(** Merging operations — paper §5.3.

    A merge operation transplants a field (or header structure) from one
    packet version into another. The orchestrator generates a per-graph
    MO list; the merger applies it, in order, once all copies of a
    packet arrive. Versions are 1-based; version 1 is the original copy
    the final output is built from.

    [Modify] is the paper's [modify(v_dst.F, v_src.F)]. [Align_headers]
    realises both [add(v_src.AH, after, v_dst.IP)] and
    [remove(v_dst.AH)]: it makes [dst]'s header structure match
    [src]'s, which is what merging an Add/Rm NF's version requires
    without knowing statically whether the NF added or removed. *)

open Nfp_packet

type t =
  | Modify of { dst : int; src : int; field : Field.t }
  | Align_headers of { dst : int; src : int }

val apply : t -> get:('env -> int -> Packet.t) -> 'env -> unit
(** [apply op ~get env] executes [op] over the version store
    [get env], which answers {!Packet.absent} for a missing version.
    Missing versions (e.g. a branch that dropped under a priority
    policy) make the op a no-op. A header-field [Modify] allocates
    nothing ({!Packet.transfer_field}). *)

val version_mask : t -> int
(** The versions [op] reads and writes, as the bit set
    [(1 lsl dst) lor (1 lsl src)]. *)

val pp : Format.formatter -> t -> unit
