open Nfp_packet

type stats = { encrypted : unit -> int; sequence : unit -> int32 }

type Nf.state += State of int32 * int

let default_key = "nfp-vpn-aes-key!"

(* The security parameter index every tunnel this VPN opens carries. *)
let spi = 0x1001l

let profile =
  Action.
    [
      Read Field.Sip;
      Read Field.Dip;
      Read Field.Payload;
      Write Field.Payload;
      Add_rm_header;
    ]

let nonce_of ~spi ~seq =
  Int64.logor
    (Int64.shift_left (Int64.of_int32 spi) 32)
    (Int64.logand (Int64.of_int32 seq) 0xffffffffL)

(* The sequence counter feeds every packet's nonce: ciphertext depends
   on the exact cross-flow packet order, so sharding would change the
   bytes on the wire. Sequential. *)
let state_access =
  State_access.
    [
      global Read_only "aes-key-schedule";
      global General "sequence-counter";
      global Commutative "encrypted-counter";
    ]

let create ?(name = "vpn") ?(key = default_key) () =
  let aes = Nfp_algo.Aes.expand_key key in
  let seq = ref 0l in
  let encrypted = ref 0 in
  let process pkt =
    seq := Int32.add !seq 1l;
    let payload = Bytes.of_string (Packet.payload pkt) in
    Nfp_algo.Aes.ctr_transform aes ~nonce:(nonce_of ~spi ~seq:!seq) payload ~pos:0
      ~len:(Bytes.length payload);
    Packet.set_payload pkt (Bytes.to_string payload);
    let icv =
      Int32.of_int (Nfp_algo.Hashing.fnv1a32_bytes payload ~pos:0 ~len:(Bytes.length payload))
    in
    (* A packet already inside a tunnel is not re-encapsulated — this
       also keeps the evaluation's forced-no-copy rig (two VPN instances
       sharing one buffer) from tripping on a double header. *)
    if not (Packet.has_ah pkt) then Packet.add_ah pkt ~spi ~seq:!seq ~icv;
    incr encrypted;
    Nf.Forward
  in
  let cost_cycles pkt = 2000 + (10 * Packet.payload_length pkt) in
  (* The sequence counter is the security-critical state: replaying the
     input log after a restore re-issues the exact nonce sequence, so
     re-encrypted payloads are byte-identical to the fault-free run. *)
  let snapshot () = State (!seq, !encrypted) in
  let restore = function
    | State (s, e) ->
        seq := s;
        encrypted := e
    | _ -> invalid_arg "Vpn.restore: foreign state"
  in
  ( Nf.make ~name ~kind:"VPN" ~profile ~cost_cycles
      ~state_digest:(fun () -> Nfp_algo.Hashing.combine (Int32.to_int !seq) !encrypted)
      ~snapshot ~restore ~state_access process,
    { encrypted = (fun () -> !encrypted); sequence = (fun () -> !seq) } )

let decrypt ~key pkt =
  match Packet.remove_ah pkt with
  | None -> false
  | Some (spi, seq, _icv) ->
      let aes = Nfp_algo.Aes.expand_key key in
      let payload = Bytes.of_string (Packet.payload pkt) in
      Nfp_algo.Aes.ctr_transform aes ~nonce:(nonce_of ~spi ~seq) payload ~pos:0
        ~len:(Bytes.length payload);
      Packet.set_payload pkt (Bytes.to_string payload);
      true
