open Nfp_packet

type stats = { per_backend : unit -> int array }

let default_backends =
  Array.init 8 (fun i -> Int32.of_int ((172 lsl 24) lor (16 lsl 16) lor (i + 1)))

let default_vip = Int32.of_int ((192 lsl 24) lor (168 lsl 16) lor 1)

let profile =
  Action.
    [
      Read Field.Sip;
      Write Field.Sip;
      Read Field.Dip;
      Write Field.Dip;
      Read Field.Sport;
      Read Field.Dport;
      Read Field.Proto;
    ]

(* The backend pick is a pure function of the flow hash, not of the
   counters — the counters only tally the choice — so replicas reach
   identical rewrites and the per-backend counts sum. *)
let rec create ?(name = "lb") ?(vip = default_vip) ?(backends = default_backends) () =
  if Array.length backends = 0 then invalid_arg "Load_balancer.create: no backends";
  let counters = Nf.counters [ ("backend-counters", Array.length backends) ] in
  let counts = Nf.cells counters in
  let process pkt =
    let i = Packet.flow_hash pkt mod Array.length backends in
    counts.(i) <- counts.(i) + 1;
    Packet.set_dip pkt backends.(i);
    Packet.set_sip pkt vip;
    Nf.Forward
  in
  ( Nf.make ~name ~kind:"LoadBalancer" ~profile
      ~cost_cycles:(fun _ -> 200)
      ~fresh:(fun () -> fst (create ~name ~vip ~backends ()))
      ~counters process,
    { per_backend = (fun () -> Array.copy counts) } )
