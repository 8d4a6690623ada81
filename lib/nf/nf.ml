open Nfp_packet

type verdict = Forward | Dropped

(* Extensible so every NF module can declare its own checkpoint payload
   without this module knowing about NAT bindings or cache tables. *)
type state = ..

(* A cheaper processing mode an NF can fall back to when its core is
   under occupancy pressure — distinct from the fault-Degrade recovery
   policy (which swaps the whole graph for a sequential twin). The
   semantics may coarsen (sampled inspection, passthrough compression)
   but must stay safe: never corrupt packets, never violate the chain's
   merge discipline. *)
type degrade = {
  d_label : string;  (* e.g. "sampled-1/8", "passthrough" *)
  d_cost_cycles : Packet.t -> int;
  d_process : Packet.t -> verdict;
}

type t = {
  name : string;
  kind : string;
  profile : Action.t list;
  cost_cycles : Packet.t -> int;
  process : Packet.t -> verdict;
  state_digest : unit -> int;
  snapshot : (unit -> state) option;
  restore : (state -> unit) option;
  state_access : State_access.t option;
  fresh : (unit -> t) option;
  merge : (state list -> state) option;
  degrade : degrade option;
  extract : ((Flow.t -> bool) -> state) option;
}

let make ~name ~kind ~profile ~cost_cycles ?(state_digest = fun () -> 0) ?snapshot
    ?restore ?state_access ?fresh ?merge ?degrade ?extract process =
  {
    name;
    kind;
    profile = Action.normalize profile;
    cost_cycles;
    process;
    state_digest;
    snapshot;
    restore;
    state_access;
    fresh;
    merge;
    degrade;
    extract;
  }

(* Fold a shard of state carved out of another replica into this one:
   merge the carried per-flow entries (and any commutative increments)
   with a snapshot of the live state, then restore the union. The
   elastic migration commit pairs this with [extract] on the source —
   entries move exactly once, so the deployment-wide merged digest is
   invariant across the handover. *)
let absorb t shard =
  match (t.snapshot, t.restore, t.merge) with
  | Some snapshot, Some restore, Some merge -> restore (merge [ snapshot (); shard ])
  | _ -> invalid_arg "Nf.absorb: NF lacks snapshot/restore/merge"
