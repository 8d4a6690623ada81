open Nfp_packet

type counter = { packets : int; bytes : int }

type stats = {
  flows : unit -> int;
  lookup : Flow.t -> counter option;
  total_packets : unit -> int;
}

type Nf.state += State of (Flow.t, counter) Hashtbl.t * int

let profile =
  Action.
    [ Read Field.Sip; Read Field.Dip; Read Field.Sport; Read Field.Dport; Read Field.Len ]

let state_access =
  State_access.
    [
      per_flow Commutative "flow-counters"; global Commutative "total-packets";
    ]

(* Shards recombine by summing, so the merged table's iteration order
   differs from a single instance's — the digest must be a commutative
   fold (a sum of per-entry hashes), not an order-dependent chain. *)
let merge states =
  let table = Hashtbl.create 1024 and total = ref 0 in
  List.iter
    (function
      | State (t, n) ->
          total := !total + n;
          Hashtbl.iter
            (fun flow c ->
              let prev =
                match Hashtbl.find_opt table flow with
                | Some p -> p
                | None -> { packets = 0; bytes = 0 }
              in
              Hashtbl.replace table flow
                { packets = prev.packets + c.packets; bytes = prev.bytes + c.bytes })
            t
      | _ -> invalid_arg "Monitor.merge: foreign state")
    states;
  State (table, !total)

(* The live table is keyed by the packet's 5-tuple limbs
   ([Packet.key_a]/[key_b]) and holds one mutable cell per flow, so a
   packet of a known flow updates in place: no [Flow.t], no polymorphic
   hash over boxed int32 fields, no fresh counter. Checkpoints, [merge]
   and migration shards keep the [(Flow.t, counter) Hashtbl.t] state;
   [flow_of] and [key_a]/[key_b] convert at that boundary. *)
type cell = { mutable c_packets : int; mutable c_bytes : int }

let flow_of a b =
  Flow.make
    ~sip:(Int32.of_int (a lsr 24))
    ~dip:(Int32.of_int (b lsr 16))
    ~sport:((a lsr 8) land 0xffff)
    ~dport:(b land 0xffff) ~proto:(a land 0xff)

let key_a (f : Flow.t) = Nfp_algo.Hashing.pack_a f.sip f.sport f.proto
let key_b (f : Flow.t) = Nfp_algo.Hashing.pack_b f.dip f.dport

let counter_of c = { packets = c.c_packets; bytes = c.c_bytes }

let rec create ?(name = "mon") () =
  let table : cell Nfp_algo.Pair_table.t = Nfp_algo.Pair_table.create () in
  let total = ref 0 in
  let process pkt =
    let a = Packet.key_a pkt and b = Packet.key_b pkt and len = Packet.wire_length pkt in
    (match Nfp_algo.Pair_table.find table ~a ~b with
    | -1 -> Nfp_algo.Pair_table.replace table ~a ~b { c_packets = 1; c_bytes = len }
    | s ->
        let c = Nfp_algo.Pair_table.value table s in
        c.c_packets <- c.c_packets + 1;
        c.c_bytes <- c.c_bytes + len);
    incr total;
    Nf.Forward
  in
  (* [mix2_int] over the limbs is [Flow.hash] of the entry's flow. *)
  let state_digest () =
    let acc = ref !total in
    Nfp_algo.Pair_table.iter
      (fun a b c ->
        acc :=
          (!acc
          + Nfp_algo.Hashing.combine
              (Nfp_algo.Hashing.mix2_int a b land max_int)
              (Nfp_algo.Hashing.combine c.c_packets c.c_bytes))
          land max_int)
      table;
    !acc
  in
  let snapshot () =
    let saved = Hashtbl.create (max 16 (Nfp_algo.Pair_table.length table)) in
    Nfp_algo.Pair_table.iter
      (fun a b c -> Hashtbl.replace saved (flow_of a b) (counter_of c))
      table;
    State (saved, !total)
  in
  let restore = function
    | State (t, n) ->
        Nfp_algo.Pair_table.clear table;
        Hashtbl.iter
          (fun flow c ->
            Nfp_algo.Pair_table.replace table ~a:(key_a flow) ~b:(key_b flow)
              { c_packets = c.packets; c_bytes = c.bytes })
          t;
        total := n
    | _ -> invalid_arg "Monitor.restore: foreign state"
  in
  (* Migration source half: carve the matching flows' counters out of
     the live table. The global total is commutative — it stays where
     the packets were counted and sums back under [merge]. *)
  let extract pred =
    let moved = Hashtbl.create 64 and keys = ref [] in
    Nfp_algo.Pair_table.iter
      (fun a b c ->
        let flow = flow_of a b in
        if pred flow then begin
          Hashtbl.replace moved flow (counter_of c);
          keys := (a, b) :: !keys
        end)
      table;
    List.iter (fun (a, b) -> Nfp_algo.Pair_table.remove table ~a ~b) !keys;
    State (moved, 0)
  in
  ( Nf.make ~name ~kind:"Monitor" ~profile ~cost_cycles:(fun _ -> 220) ~state_digest
      ~snapshot ~restore ~state_access
      ~fresh:(fun () -> fst (create ~name ()))
      ~merge ~extract process,
    {
      flows = (fun () -> Nfp_algo.Pair_table.length table);
      lookup =
        (fun f ->
          match Nfp_algo.Pair_table.find table ~a:(key_a f) ~b:(key_b f) with
          | -1 -> None
          | s -> Some (counter_of (Nfp_algo.Pair_table.value table s)));
      total_packets = (fun () -> !total);
    } )
