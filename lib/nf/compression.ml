open Nfp_packet

type stats = {
  compressed : unit -> int;
  skipped : unit -> int;
  bytes_saved : unit -> int;
}

let profile = Action.[ Read Field.Payload; Write Field.Payload; Write Field.Len ]

let rec create ?(name = "comp") () =
  let counters =
    Nf.counters
      [ ("compressed-counter", 1); ("skipped-counter", 1); ("bytes-saved-counter", 1) ]
  in
  let c = Nf.cells counters and compressed = 0 and skipped = 1 and saved = 2 in
  let process pkt =
    let payload = Packet.payload pkt in
    let packed = Nfp_algo.Lz77.compress payload in
    if String.length packed < String.length payload then begin
      Packet.set_payload pkt packed;
      c.(compressed) <- c.(compressed) + 1;
      c.(saved) <- c.(saved) + String.length payload - String.length packed
    end
    else c.(skipped) <- c.(skipped) + 1;
    Nf.Forward
  in
  let cost_cycles pkt = 1200 + (8 * Packet.payload_length pkt) in
  (* Pressure-degrade mode: passthrough. Compression is an optimization,
     not a correctness requirement, so under pressure the NF forwards
     payloads untouched for a flat token cost (the skipped counter still
     moves — operators see how much traffic went uncompressed). *)
  let degrade =
    {
      Nf.d_label = "passthrough";
      d_cost_cycles = (fun _ -> 200);
      d_process =
        (fun _ ->
          c.(skipped) <- c.(skipped) + 1;
          Nf.Forward);
    }
  in
  ( Nf.make ~name ~kind:"Compression" ~profile ~cost_cycles
      ~fresh:(fun () -> fst (create ~name ()))
      ~degrade ~counters process,
    {
      compressed = (fun () -> c.(compressed));
      skipped = (fun () -> c.(skipped));
      bytes_saved = (fun () -> c.(saved));
    } )
