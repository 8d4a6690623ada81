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

let shared build =
  let lock = Mutex.create () and built = Hashtbl.create 4 in
  fun key ->
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt built key with
        | Some v -> v
        | None ->
            let v = build key in
            Hashtbl.add built key v;
            v)

(* Commutative counter components, each a label and a width in int
   cells, laid out one after another in [cells] in declaration order. *)
type counters = { components : (string * int) list; cells : int array }

(* Keyed int cells: one row of [width] cells per key in a [Pair_table],
   so a packet of a known key updates its row in place. [access] is the
   table's state-access entry. *)
type table = {
  access : State_access.component;
  width : int;
  rows : int array Nfp_algo.Pair_table.t;
}

(* The checkpoint, merge and migration format of every derived NF: the
   counter cells and one row table per declared table. *)
type state += Cells of int array * int array Nfp_algo.Pair_table.t array

let counters components =
  let width = List.fold_left (fun n (_, w) -> n + w) 0 components in
  { components; cells = Array.make width 0 }

let cells c = c.cells

let table ~label ~scope ~mode ~width =
  if width < 1 then invalid_arg "Nf.table: width must be positive";
  {
    access = State_access.component ~label ~scope ~mode;
    width;
    rows = Nfp_algo.Pair_table.create ();
  }

(* The probe loops of [Pair_table] return a slot, so neither lookup
   allocates; a new key allocates only its row. *)
let row t ~a ~b =
  match Nfp_algo.Pair_table.find t.rows ~a ~b with
  | -1 ->
      let r = Array.make t.width 0 in
      Nfp_algo.Pair_table.replace t.rows ~a ~b r;
      r
  | s -> Nfp_algo.Pair_table.value t.rows s

let find_row t ~a ~b =
  match Nfp_algo.Pair_table.find t.rows ~a ~b with
  | -1 -> [||]
  | s -> Nfp_algo.Pair_table.value t.rows s

let rows t = Nfp_algo.Pair_table.length t.rows

(* The flow whose packets carry the key limbs [a] = [Packet.key_a] and
   [b] = [Packet.key_b], for [extract]'s predicate. *)
let flow_of a b =
  Flow.make
    ~sip:(Int32.of_int (a lsr 24))
    ~dip:(Int32.of_int (b lsr 16))
    ~sport:((a lsr 8) land 0xffff)
    ~dport:(b land 0xffff) ~proto:(a land 0xff)

(* The state machinery of an NF whose mutable state is declared
   counters and tables, derived from each part's scope and mode alone.
   A checkpoint copies every cell. A merge sums the counters, sums a
   [Commutative] table's rows per key and unions any other table's,
   accepting a key held twice only with equal cells; each is
   insensitive to the order of the list. A migration shard carves the
   matching flows out of a [Per_flow] table and moves nothing else,
   since a count stays where it was counted and a global entry is not
   any one flow's. The digest sums per-row hashes, so shard merging,
   which permutes slot order, leaves it alone. *)
type declared = { live : int array; tables : table array }

(* A derived checkpoint's counter cells and row tables, or
   [invalid_arg msg] when it is not one of this NF's. *)
let parts msg d state =
  match state with
  | Cells (c, rows)
    when Array.length c = Array.length d.live && Array.length rows = Array.length d.tables ->
      (c, rows)
  | _ -> invalid_arg msg

let copy_row msg tb r = if Array.length r = tb.width then Array.copy r else invalid_arg msg

let snapshot d =
  let copy tb =
    let saved = Nfp_algo.Pair_table.create () in
    Nfp_algo.Pair_table.iter
      (fun a b r -> Nfp_algo.Pair_table.replace saved ~a ~b (Array.copy r))
      tb.rows;
    saved
  in
  Cells (Array.copy d.live, Array.map copy d.tables)

let restore d state =
  let c, rows = parts "Nf.restore: foreign state" d state in
  Array.blit c 0 d.live 0 (Array.length c);
  Array.iteri
    (fun i tb ->
      Nfp_algo.Pair_table.clear tb.rows;
      Nfp_algo.Pair_table.iter
        (fun a b r ->
          Nfp_algo.Pair_table.replace tb.rows ~a ~b (copy_row "Nf.restore: foreign state" tb r))
        rows.(i))
    d.tables

let add_row tb into a b r =
  match Nfp_algo.Pair_table.find into ~a ~b with
  | -1 -> Nfp_algo.Pair_table.replace into ~a ~b (copy_row "Nf.merge: foreign state" tb r)
  | s ->
      let sum = Nfp_algo.Pair_table.value into s in
      if tb.access.mode = Commutative then Array.iteri (fun i x -> sum.(i) <- sum.(i) + x) r
      else if sum <> r then invalid_arg "Nf.merge: two shards hold one key with different cells"

let merge d states =
  let sum = Array.make (Array.length d.live) 0 in
  let merged = Array.map (fun _ -> Nfp_algo.Pair_table.create ()) d.tables in
  List.iter
    (fun state ->
      let c, rows = parts "Nf.merge: foreign state" d state in
      Array.iteri (fun i x -> sum.(i) <- sum.(i) + x) c;
      Array.iteri (fun i tb -> Nfp_algo.Pair_table.iter (add_row tb merged.(i)) rows.(i)) d.tables)
    states;
  Cells (sum, merged)

let extract d pred =
  let carve tb =
    let moved = Nfp_algo.Pair_table.create () in
    if tb.access.scope = Per_flow then begin
      Nfp_algo.Pair_table.iter
        (fun a b r -> if pred (flow_of a b) then Nfp_algo.Pair_table.replace moved ~a ~b r)
        tb.rows;
      Nfp_algo.Pair_table.iter (fun a b _ -> Nfp_algo.Pair_table.remove tb.rows ~a ~b) moved
    end;
    moved
  in
  Cells (Array.make (Array.length d.live) 0, Array.map carve d.tables)

let digest d =
  let table_hash acc tb =
    let sum = ref 0 in
    Nfp_algo.Pair_table.iter
      (fun a b r ->
        sum :=
          !sum
          + Nfp_algo.Hashing.combine
              (Nfp_algo.Hashing.mix2_int a b land max_int)
              (Array.fold_left Nfp_algo.Hashing.combine 17 r))
      tb.rows;
    Nfp_algo.Hashing.combine acc (!sum land max_int)
  in
  Array.fold_left table_hash (Array.fold_left Nfp_algo.Hashing.combine 17 d.live) d.tables

let make ~name ~kind ~profile ~cost_cycles ?state_digest ?snapshot:snap ?restore:rest
    ?state_access ?fresh ?merge:mrg ?degrade ?extract:ext ?counters ?tables process =
  let t =
    {
      name;
      kind;
      profile = Action.normalize profile;
      cost_cycles;
      process;
      state_digest = Option.value state_digest ~default:(fun () -> 0);
      snapshot = snap;
      restore = rest;
      state_access;
      fresh;
      merge = mrg;
      degrade;
      extract = ext;
    }
  in
  match (counters, tables) with
  | None, None -> t
  | _
    when Option.is_some state_digest || Option.is_some snap || Option.is_some rest
         || Option.is_some mrg || Option.is_some ext ->
      if Option.is_some counters then
        invalid_arg "Nf.make: counters derive state_digest, snapshot, restore, merge and extract"
      else invalid_arg "Nf.make: tables derive state_digest, snapshot, restore, merge and extract"
  | _ ->
      let { components; cells } =
        Option.value counters ~default:{ components = []; cells = [||] }
      in
      let d = { live = cells; tables = Array.of_list (Option.value tables ~default:[]) } in
      let counted =
        List.map (fun (label, _) -> State_access.global Commutative label) components
      in
      {
        t with
        state_digest = (fun () -> digest d);
        snapshot = Some (fun () -> snapshot d);
        restore = Some (fun state -> restore d state);
        merge = Some (fun states -> merge d states);
        extract = Some (fun pred -> extract d pred);
        state_access =
          Some
            (Array.fold_right
               (fun tb acc -> tb.access :: acc)
               d.tables
               (Option.value state_access ~default:[] @ counted));
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
