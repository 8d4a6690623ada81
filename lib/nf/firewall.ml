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

(* A compiled ACL: the tuple space of the rules any packet can match,
   in rule order, and whether each of them denies. *)
type acl = { space : Tuple_space.t; deny : bool array }

let check_prefix (_, len) =
  if len < 0 || len > 32 then invalid_arg "Firewall.compile: prefix length must be in [0, 32]"

(* A rule as the tuple space keys it, or [None] for one no packet
   matches (an inverted or out-of-range port range), which can never
   decide: its ranges are clipped to the port space, and a range over
   all of it is a wildcard. *)
let to_match r =
  check_prefix r.sip_prefix;
  check_prefix r.dip_prefix;
  (match r.proto with
  | Some p when p < 0 || p > 255 -> invalid_arg "Firewall.compile: proto must be in [0, 255]"
  | _ -> ());
  let clip (lo, hi) = (max lo 0, min hi 0xffff) in
  let (slo, shi), (dlo, dhi) = (clip r.sport_range, clip r.dport_range) in
  if slo > shi || dlo > dhi then None
  else
    let range lo hi = if lo = 0 && hi = 0xffff then None else Some (lo, hi) in
    Some
      ( {
          Flow_match.sip_prefix = Some r.sip_prefix;
          dip_prefix = Some r.dip_prefix;
          sport_range = range slo shi;
          dport_range = range dlo dhi;
          proto = r.proto;
        },
        not r.permit )

let compile rules =
  let live = Array.of_list (List.filter_map to_match rules) in
  { space = Tuple_space.create (Array.map fst live); deny = Array.map snd live }

(* The packet's key limbs carry SIP, SPORT and the protocol, and DIP and
   DPORT, as the tuple space keys them. *)
let denies acl pkt =
  let r = Tuple_space.find acl.space (Packet.key_a pkt) (Packet.key_b pkt) in
  r >= 0 && acl.deny.(r)

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

let profile =
  Action.
    [ Read Field.Sip; Read Field.Dip; Read Field.Sport; Read Field.Dport; Drop ]

(* The default ACL is compiled once per process and shared by every
   instance and its [fresh] replicas: it is immutable (the "acl" state
   is [Read_only]). Built on first use under a mutex, because
   [Harness.parallel_runs] creates instances from several domains and a
   lazy value must not be forced from two at once. *)
let default_compiled =
  let lock = Mutex.create () in
  let built = lazy (compile (default_acl 100)) in
  fun () -> Mutex.protect lock (fun () -> Lazy.force built)

let rec create ?(name = "fw") ?(extra_cycles = 0) ?acl () =
  let compiled = match acl with Some a -> compile a | None -> default_compiled () in
  let counters = Nf.counters [ ("passed-counter", 1); ("dropped-counter", 1) ] in
  let c = Nf.cells counters and passed = 0 and dropped = 1 in
  let process pkt =
    if denies compiled pkt then begin
      c.(dropped) <- c.(dropped) + 1;
      Nf.Dropped
    end
    else begin
      c.(passed) <- c.(passed) + 1;
      Nf.Forward
    end
  in
  let cost_cycles _ = 190 + extra_cycles in
  ( Nf.make ~name ~kind:"Firewall" ~profile ~cost_cycles
      ~state_access:State_access.[ global Read_only "acl" ]
      ~fresh:(fun () -> fst (create ~name ~extra_cycles ?acl ()))
      ~counters process,
    { passed = (fun () -> c.(passed)); dropped = (fun () -> c.(dropped)) } )
