open Nfp_packet

type counter = { packets : int; bytes : int }

type stats = {
  flows : unit -> int;
  lookup : Flow.t -> counter option;
  total_packets : unit -> int;
}

let profile =
  Action.
    [ Read Field.Sip; Read Field.Dip; Read Field.Sport; Read Field.Dport; Read Field.Len ]

(* One row per flow, keyed by the packet's 5-tuple limbs: its packet
   count, then its byte count. A packet of a known flow updates the row
   in place, with no [Flow.t] and no hash over boxed int32 fields. *)
let rec create ?(name = "mon") () =
  let flows = Nf.table ~label:"flow-counters" ~scope:Per_flow ~mode:Commutative ~width:2 in
  let counters = Nf.counters [ ("total-packets", 1) ] in
  let total = Nf.cells counters in
  let process pkt =
    let r = Nf.row flows ~a:(Packet.key_a pkt) ~b:(Packet.key_b pkt) in
    r.(0) <- r.(0) + 1;
    r.(1) <- r.(1) + Packet.wire_length pkt;
    total.(0) <- total.(0) + 1;
    Nf.Forward
  in
  let lookup (f : Flow.t) =
    match
      Nf.find_row flows
        ~a:(Nfp_algo.Hashing.pack_a f.sip f.sport f.proto)
        ~b:(Nfp_algo.Hashing.pack_b f.dip f.dport)
    with
    | [||] -> None
    | r -> Some { packets = r.(0); bytes = r.(1) }
  in
  ( Nf.make ~name ~kind:"Monitor" ~profile ~cost_cycles:(fun _ -> 220)
      ~fresh:(fun () -> fst (create ~name ()))
      ~counters ~tables:[ flows ] process,
    { flows = (fun () -> Nf.rows flows); lookup; total_packets = (fun () -> total.(0)) } )
