open Nfp_packet

type stats = { active_bindings : unit -> int; exhausted : unit -> int }

let profile =
  Action.
    [
      Read Field.Sip;
      Write Field.Sip;
      Read Field.Dip;
      Write Field.Dip;
      Read Field.Sport;
      Write Field.Sport;
      Read Field.Dport;
      Write Field.Dport;
      Drop;
    ]

let default_public = Int32.of_int ((203 lsl 24) lor (113 lsl 8) lor 7)

(* The binding table is per-flow, one port per flow. The sequential
   allocator hands out [port_base] plus the number of bindings, a global
   cursor: which port a flow gets depends on the cross-flow arrival
   order, so a sharded run could hand out different ports than a
   sequential one. `Hashed derives the port from the flow itself
   (collisions between flows are acceptable in this one-way simulator —
   two flows sharing a public port still translate deterministically),
   which removes the global write and makes the NAT shardable; a
   binding held by two shards then carries the same port, which the
   derived merge accepts. *)
let rec create ?(name = "nat") ?(public_ip = default_public) ?(port_base = 20000)
    ?(port_count = 10000) ?(alloc = `Sequential) () =
  let bindings = Nf.table ~label:"binding-table" ~scope:Per_flow ~mode:General ~width:1 in
  let counters = Nf.counters [ ("exhausted-counter", 1) ] in
  let exhausted = Nf.cells counters in
  let sequential = alloc = `Sequential in
  let translate pkt port =
    Packet.set_sip pkt public_ip;
    Packet.set_sport pkt port;
    Nf.Forward
  in
  let process pkt =
    let a = Packet.key_a pkt and b = Packet.key_b pkt in
    match Nf.find_row bindings ~a ~b with
    | [||] when sequential && Nf.rows bindings >= port_count ->
        exhausted.(0) <- exhausted.(0) + 1;
        Nf.Dropped
    | [||] ->
        let port =
          port_base
          + if sequential then Nf.rows bindings else Packet.flow_hash pkt mod port_count
        in
        (Nf.row bindings ~a ~b).(0) <- port;
        translate pkt port
    | r -> translate pkt r.(0)
  in
  ( Nf.make ~name ~kind:"NAT" ~profile ~cost_cycles:(fun _ -> 240)
      ?state_access:
        (if sequential then Some [ State_access.global General "port-allocator" ] else None)
      ~fresh:(fun () -> fst (create ~name ~public_ip ~port_base ~port_count ~alloc ()))
      ~counters ~tables:[ bindings ] process,
    { active_bindings = (fun () -> Nf.rows bindings); exhausted = (fun () -> exhausted.(0)) }
  )
