open Nfp_packet

type stats = {
  compressed : unit -> int;
  skipped : unit -> int;
  bytes_saved : unit -> int;
}

type Nf.state += State of int * int * int

let profile = Action.[ Read Field.Payload; Write Field.Payload; Write Field.Len ]

let state_access =
  State_access.
    [
      global Commutative "compressed-counter";
      global Commutative "skipped-counter";
      global Commutative "bytes-saved-counter";
    ]

let merge states =
  let compressed = ref 0 and skipped = ref 0 and saved = ref 0 in
  List.iter
    (function
      | State (c, sk, sv) ->
          compressed := !compressed + c;
          skipped := !skipped + sk;
          saved := !saved + sv
      | _ -> invalid_arg "Compression.merge: foreign state")
    states;
  State (!compressed, !skipped, !saved)

let rec create ?(name = "comp") () =
  let compressed = ref 0 and skipped = ref 0 and saved = ref 0 in
  let process pkt =
    let payload = Packet.payload pkt in
    let packed = Nfp_algo.Lz77.compress payload in
    if String.length packed < String.length payload then begin
      Packet.set_payload pkt packed;
      incr compressed;
      saved := !saved + String.length payload - String.length packed
    end
    else incr skipped;
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
          incr skipped;
          Nf.Forward);
    }
  in
  let snapshot () = State (!compressed, !skipped, !saved) in
  let restore = function
    | State (c, sk, sv) ->
        compressed := c;
        skipped := sk;
        saved := sv
    | _ -> invalid_arg "Compression.restore: foreign state"
  in
  ( Nf.make ~name ~kind:"Compression" ~profile ~cost_cycles
      ~state_digest:(fun () ->
        Nfp_algo.Hashing.combine !compressed (Nfp_algo.Hashing.combine !skipped !saved))
      ~snapshot ~restore ~state_access
      ~fresh:(fun () -> fst (create ~name ()))
      ~merge ~degrade
        (* Only commutative counters: migration moves the zero state. *)
      ~extract:(fun _ -> State (0, 0, 0))
      process,
    {
      compressed = (fun () -> !compressed);
      skipped = (fun () -> !skipped);
      bytes_saved = (fun () -> !saved);
    } )
