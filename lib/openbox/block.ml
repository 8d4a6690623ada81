open Nfp_packet
open Nfp_nf

type outcome = Continue | Dropped | Alerted of string

type t = {
  name : string;
  kind : string;
  config_key : int;
  profile : Action.t list;
  cost_cycles : int;
  process : Packet.t -> outcome;
}

let read_packets () =
  {
    name = "read";
    kind = "ReadPackets";
    config_key = 0;
    profile = [];
    cost_cycles = 40;
    process = (fun _ -> Continue);
  }

(* Hashtbl.hash only inspects a bounded prefix of a structure, which
   would make distinct ACLs collide; fold over every rule instead. *)
let acl_key acl =
  List.fold_left
    (fun acc rule -> Nfp_algo.Hashing.combine acc (Hashtbl.hash rule))
    (List.length acl) acl

let signatures_key signatures =
  List.fold_left
    (fun acc s -> Nfp_algo.Hashing.combine acc (Nfp_algo.Hashing.fnv1a32 s))
    (List.length signatures) signatures

let header_classifier ~name ~acl =
  let compiled = Firewall.compile acl in
  {
    name;
    kind = "HeaderClassifier";
    config_key = acl_key acl;
    profile =
      Action.
        [ Read Field.Sip; Read Field.Dip; Read Field.Sport; Read Field.Dport; Drop ];
    cost_cycles = 150;
    process =
      (fun pkt -> if Firewall.denies compiled pkt then Dropped else Continue);
  }

let dpi ~name ~signatures =
  let automaton = Nfp_algo.Aho_corasick.build signatures in
  let scan buf pos len = Nfp_algo.Aho_corasick.matches_bytes automaton buf ~pos ~len in
  {
    name;
    kind = "DPI";
    config_key = signatures_key signatures;
    profile = Action.[ Read Field.Payload; Drop ];
    cost_cycles = 2200;
    process =
      (fun pkt ->
        if Packet.payload_exists pkt scan then Dropped
        else Continue);
  }

let alert ~name ~source =
  {
    name;
    kind = "Alert";
    config_key = Hashtbl.hash source;
    profile = Action.[ Read Field.Sip; Read Field.Dip ];
    cost_cycles = 120;
    process = (fun _ -> Alerted source);
  }

let output () =
  {
    name = "output";
    kind = "Output";
    config_key = 0;
    profile = [];
    cost_cycles = 40;
    process = (fun _ -> Continue);
  }

let same_work a b = a.kind = b.kind && a.config_key = b.config_key

let pp fmt t = Format.fprintf fmt "%s[%s]" t.name t.kind
