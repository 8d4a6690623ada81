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

(* Commutative counter components, each a label and a width in int
   cells, laid out one after another in [cells] in declaration order. *)
type counters = { components : (string * int) list; cells : int array }

type state += Counts of int array

let counters components =
  let width = List.fold_left (fun n (_, w) -> n + w) 0 components in
  { components; cells = Array.make width 0 }

let cells c = c.cells

(* A counter-only NF's state machinery, derived from its counters: a
   checkpoint copies the cells, a merge sums them cell by cell (so the
   order of the list does not matter), and a migration moves the zero
   shard, since every count stays where it was counted. Each component
   is declared global and commutative. *)
let with_counters t { components; cells } =
  let n = Array.length cells in
  let restore = function
    | Counts a when Array.length a = n -> Array.blit a 0 cells 0 n
    | _ -> invalid_arg "Nf.restore: foreign state"
  in
  let merge states =
    let sum = Array.make n 0 in
    List.iter
      (function
        | Counts a when Array.length a = n ->
            Array.iteri (fun i x -> sum.(i) <- sum.(i) + x) a
        | _ -> invalid_arg "Nf.merge: foreign state")
      states;
    Counts sum
  in
  let declared =
    List.map (fun (label, _) -> State_access.global Commutative label) components
  in
  {
    t with
    state_digest = (fun () -> Array.fold_left Nfp_algo.Hashing.combine 17 cells);
    snapshot = Some (fun () -> Counts (Array.copy cells));
    restore = Some restore;
    merge = Some merge;
    extract = Some (fun _ -> Counts (Array.make n 0));
    state_access = Some (Option.value t.state_access ~default:[] @ declared);
  }

let make ~name ~kind ~profile ~cost_cycles ?state_digest ?snapshot ?restore ?state_access
    ?fresh ?merge ?degrade ?extract ?counters process =
  let t =
    {
      name;
      kind;
      profile = Action.normalize profile;
      cost_cycles;
      process;
      state_digest = Option.value state_digest ~default:(fun () -> 0);
      snapshot;
      restore;
      state_access;
      fresh;
      merge;
      degrade;
      extract;
    }
  in
  match counters with
  | None -> t
  | Some _
    when Option.is_some state_digest || Option.is_some snapshot || Option.is_some restore
         || Option.is_some merge || Option.is_some extract ->
      invalid_arg
        "Nf.make: counters derive state_digest, snapshot, restore, merge and extract"
  | Some c -> with_counters t c

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
