open Nfp_packet

type stats = { sessions : unit -> int; packets : unit -> int }

let profile = Action.[ Read Field.Sip; Read Field.Dip ]

(* The (sip, dip) session key is coarser than a 5-tuple, so flows from
   different shards can touch the same entry — but the only write is a
   commutative increment the NF never reads back, so partial counts sum
   across replicas. Hence Global/Commutative, not Per_flow. *)
let rec create ?(name = "gw") () =
  let sessions =
    Nf.table ~label:"session-counters" ~scope:Global ~mode:Commutative ~width:1
  in
  let counters = Nf.counters [ ("packet-counter", 1) ] in
  let packets = Nf.cells counters in
  let process pkt =
    let r = Nf.row sessions ~a:(Packet.sip_int pkt) ~b:(Packet.dip_int pkt) in
    r.(0) <- r.(0) + 1;
    packets.(0) <- packets.(0) + 1;
    Nf.Forward
  in
  ( Nf.make ~name ~kind:"Gateway" ~profile ~cost_cycles:(fun _ -> 150)
      ~fresh:(fun () -> fst (create ~name ()))
      ~counters ~tables:[ sessions ] process,
    { sessions = (fun () -> Nf.rows sessions); packets = (fun () -> packets.(0)) } )
