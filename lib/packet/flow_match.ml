type t = {
  sip_prefix : (int32 * int) option;
  dip_prefix : (int32 * int) option;
  sport_range : (int * int) option;
  dport_range : (int * int) option;
  proto : int option;
}

let any =
  { sip_prefix = None; dip_prefix = None; sport_range = None; dport_range = None; proto = None }

let check_prefix = function
  | Some (_, len) when len < 0 || len > 32 ->
      invalid_arg "Flow_match: prefix length must be in [0, 32]"
  | _ -> ()

let check_range name = function
  | Some (lo, hi) when lo < 0 || hi > 0xffff || lo > hi ->
      invalid_arg (Printf.sprintf "Flow_match: invalid %s range" name)
  | _ -> ()

let make ?sip_prefix ?dip_prefix ?sport_range ?dport_range ?proto () =
  check_prefix sip_prefix;
  check_prefix dip_prefix;
  check_range "sport" sport_range;
  check_range "dport" dport_range;
  (match proto with
  | Some p when p < 0 || p > 0xff -> invalid_arg "Flow_match: invalid protocol"
  | _ -> ());
  { sip_prefix; dip_prefix; sport_range; dport_range; proto }

let of_flow (f : Flow.t) =
  {
    sip_prefix = Some (f.sip, 32);
    dip_prefix = Some (f.dip, 32);
    sport_range = Some (f.sport, f.sport);
    dport_range = Some (f.dport, f.dport);
    proto = Some f.proto;
  }

let prefix_matches prefix addr =
  match prefix with
  | None -> true
  | Some (_, 0) -> true
  | Some (p, len) ->
      let mask = Int32.shift_left (-1l) (32 - len) in
      Int32.equal (Int32.logand addr mask) (Int32.logand p mask)

let range_matches range v =
  match range with None -> true | Some (lo, hi) -> v >= lo && v <= hi

let matches t (f : Flow.t) =
  prefix_matches t.sip_prefix f.sip
  && prefix_matches t.dip_prefix f.dip
  && range_matches t.sport_range f.sport
  && range_matches t.dport_range f.dport
  && match t.proto with None -> true | Some p -> p = f.proto

let matches_packet t pkt = matches t (Packet.flow pkt)

let is_any t = t = any
