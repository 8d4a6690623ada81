open Nfp_packet

type stats = { redirected : unit -> int }

let profile =
  Action.
    [
      Read Field.Dip; Write Field.Dip; Read Field.Payload; Write Field.Payload;
      Write Field.Len;
    ]

let default_origin = Int32.of_int ((198 lsl 24) lor (51 lsl 16) lor (100 lsl 8) lor 10)

let rec create ?(name = "proxy") ?(origin = default_origin) ?(via = "Via:nfp-proxy ") () =
  let counters = Nf.counters [ ("redirected-counter", 1) ] in
  let c = Nf.cells counters in
  let process pkt =
    Packet.set_dip pkt origin;
    Packet.set_payload pkt (via ^ Packet.payload pkt);
    c.(0) <- c.(0) + 1;
    Nf.Forward
  in
  ( Nf.make ~name ~kind:"Proxy" ~profile
      ~cost_cycles:(fun _ -> 380)
      ~fresh:(fun () -> fst (create ~name ~origin ~via ()))
      ~counters process,
    { redirected = (fun () -> c.(0)) } )
