open Nfp_packet

type rule = {
  sip_prefix : int32 * int;
  dip_prefix : int32 * int;
  sport_range : int * int;
  dport_range : int * int;
  proto : int option;
  permit : bool;
}

let any_rule ~permit =
  {
    sip_prefix = (0l, 0);
    dip_prefix = (0l, 0);
    sport_range = (0, 0xffff);
    dport_range = (0, 0xffff);
    proto = None;
    permit;
  }

(* A compiled ACL: [stride] ints per rule, in rule order: source and
   destination prefix as (address bits under the mask, mask) in the
   unsigned form [Packet.sip_int] reads, the two inclusive port ranges,
   the protocol or -1 for any, and 1 for deny. *)
type acl = int array

let stride = 10

let prefix_mask len =
  if len < 0 || len > 32 then invalid_arg "Firewall.compile: prefix length must be in [0, 32]";
  0xffff_ffff lxor ((1 lsl (32 - len)) - 1)

let compile_rule r =
  let (sip, sip_len), (dip, dip_len) = (r.sip_prefix, r.dip_prefix) in
  let sip_mask = prefix_mask sip_len and dip_mask = prefix_mask dip_len in
  let proto =
    match r.proto with
    | None -> -1
    | Some p when p < 0 || p > 255 -> invalid_arg "Firewall.compile: proto must be in [0, 255]"
    | Some p -> p
  in
  [|
    Int32.to_int sip land sip_mask; sip_mask;
    Int32.to_int dip land dip_mask; dip_mask;
    fst r.sport_range; snd r.sport_range;
    fst r.dport_range; snd r.dport_range;
    proto; Bool.to_int (not r.permit);
  |]

let compile rules = Array.concat (List.map compile_rule rules)

(* The first rule matching the packet's fields decides: a top-level
   loop over immediate ints, so no closure is built per packet. *)
let rec first_match acl o sip dip sport dport proto =
  if o >= Array.length acl then false
  else if
    sip land acl.(o + 1) = acl.(o)
    && dip land acl.(o + 3) = acl.(o + 2)
    && sport >= acl.(o + 4) && sport <= acl.(o + 5)
    && dport >= acl.(o + 6) && dport <= acl.(o + 7)
    && (acl.(o + 8) < 0 || acl.(o + 8) = proto)
  then acl.(o + 9) = 1
  else first_match acl (o + stride) sip dip sport dport proto

let denies acl pkt =
  first_match acl 0 (Packet.sip_int pkt) (Packet.dip_int pkt) (Packet.sport pkt)
    (Packet.dport pkt) (Packet.proto pkt)

let default_acl n =
  (* Deny a spread of /24s and port bands; deterministic so tests and
     benches see identical behaviour. *)
  List.init n (fun i ->
      let octet2 = (i * 7) mod 250 in
      let octet3 = (i * 13) mod 250 in
      {
        sip_prefix = (Int32.of_int ((10 lsl 24) lor (octet2 lsl 16) lor (octet3 lsl 8)), 24);
        dip_prefix = (0l, 0);
        sport_range = (0, 0xffff);
        dport_range = ((i * 101) mod 60000, ((i * 101) mod 60000) + 50);
        proto = None;
        permit = false;
      })

type stats = { passed : unit -> int; dropped : unit -> int }

type Nf.state += State of int * int

let profile =
  Action.
    [ Read Field.Sip; Read Field.Dip; Read Field.Sport; Read Field.Dport; Drop ]

let state_access =
  State_access.
    [
      global Read_only "acl";
      global Commutative "passed-counter";
      global Commutative "dropped-counter";
    ]

let merge states =
  let passed = ref 0 and dropped = ref 0 in
  List.iter
    (function
      | State (p, d) ->
          passed := !passed + p;
          dropped := !dropped + d
      | _ -> invalid_arg "Firewall.merge: foreign state")
    states;
  State (!passed, !dropped)

let rec create ?(name = "fw") ?(extra_cycles = 0) ?acl () =
  let acl = match acl with Some a -> a | None -> default_acl 100 in
  let compiled = compile acl in
  let passed = ref 0 and dropped = ref 0 in
  let process pkt =
    if denies compiled pkt then begin
      incr dropped;
      Nf.Dropped
    end
    else begin
      incr passed;
      Nf.Forward
    end
  in
  let cost_cycles _ = 190 + extra_cycles in
  let snapshot () = State (!passed, !dropped) in
  let restore = function
    | State (p, d) ->
        passed := p;
        dropped := d
    | _ -> invalid_arg "Firewall.restore: foreign state"
  in
  ( Nf.make ~name ~kind:"Firewall" ~profile ~cost_cycles
      ~state_digest:(fun () -> Nfp_algo.Hashing.combine !passed !dropped)
      ~snapshot ~restore ~state_access
      ~fresh:(fun () -> fst (create ~name ~extra_cycles ~acl ()))
      ~merge
        (* Only commutative counters: migration moves the zero state. *)
      ~extract:(fun _ -> State (0, 0))
      process,
    { passed = (fun () -> !passed); dropped = (fun () -> !dropped) } )
