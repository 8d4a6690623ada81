open Nfp_packet
open Nfp_nf

(* A probe's observable outcome: verdict, wire bytes (or None when
   dropped), and the NF's internal-state digest after processing. *)
type fingerprint = { forwarded : bool; wire : bytes option; digest : int }

let run_once factory pkt =
  let nf : Nf.t = factory () in
  match nf.process pkt with
  | Nf.Forward ->
      { forwarded = true; wire = Some (Packet.to_bytes pkt); digest = nf.state_digest () }
  | Nf.Dropped -> { forwarded = false; wire = None; digest = nf.state_digest () }

(* Canonicalize a field so the trivial echo of a mutated input field
   does not count as a behavioural difference. *)
let normalize field pkt =
  let canonical = function
    | Field.Sip | Field.Dip -> "\x00\x00\x00\x00"
    | Field.Sport | Field.Dport -> "\x00\x00"
    | Field.Proto | Field.Ttl | Field.Tos -> "\x00"
    | Field.Payload -> String.make (String.length (Packet.get_field pkt Field.Payload)) '\x00'
    | Field.Len ->
        (* Canonical length = headers only: strips the payload, so the
           two sides compare on equal footing. *)
        let b = Packet.get_field pkt Field.Len in
        ignore b;
        String.init 2 (fun i ->
            let v = Packet.header_length pkt - 14 in
            Char.chr ((v lsr ((1 - i) * 8)) land 0xff))
  in
  Packet.set_field pkt field (canonical field)

(* Compare two outcomes, discounting the trivial echo of the mutated
   field: when the NF merely passed the field through (output value =
   its own input value), the field is blanked on both sides. When the
   NF visibly rewrote the field, the outputs are compared as is — a
   value difference then proves the write depended on the input. *)
let fingerprints_equal_modulo field (in1, a) (in2, b) =
  a.forwarded = b.forwarded && a.digest = b.digest
  &&
  match (a.wire, b.wire) with
  | None, None -> true
  | Some wa, Some wb -> (
      match (Packet.of_bytes wa, Packet.of_bytes wb) with
      | Ok pa, Ok pb ->
          let echoed out input = Packet.get_field out field = Packet.get_field input field in
          if echoed pa in1 && echoed pb in2 then begin
            normalize field pa;
            normalize field pb
          end;
          Packet.equal_wire pa pb
      | _ -> Bytes.equal wa wb)
  | None, Some _ | Some _, None -> false

let mutate field pkt =
  let flip_at i s =
    let b = Bytes.of_string s in
    if Bytes.length b > 0 then
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x55));
    Bytes.to_string b
  in
  let v = Packet.get_field pkt field in
  let mutated =
    match field with
    (* Signatures sit at the front of the probes' payloads; flipping the
       first byte toggles DPI matches. *)
    | Field.Payload -> flip_at 0 v
    | Field.Len ->
        (* Resize by one byte (grow when the payload is empty). *)
        let current = (Char.code v.[0] lsl 8) lor Char.code v.[1] in
        let header = Packet.header_length pkt - 14 in
        let target = if current > header then current - 1 else current + 1 in
        String.init 2 (fun i -> Char.chr ((target lsr ((1 - i) * 8)) land 0xff))
    | _ -> flip_at (String.length v - 1) v
  in
  Packet.set_field pkt field mutated

(* Probe packets exercise diverse flows, sizes, ACL deny bands (low
   destination ports) and IDS signatures so read-dependent behaviour
   has a chance to surface. *)
let probe_packet ~seed i =
  let prng = Nfp_algo.Prng.create ~seed:(Int64.add seed (Int64.of_int (i * 7919))) in
  let sip, dport =
    if i mod 5 = 1 then
      (* Target the synthetic ACL's first deny rule (10.0.0.0/24,
         destination ports 0-50) so dropping NFs reveal themselves. *)
      (Int32.of_int ((10 lsl 24) lor (i mod 250)), i mod 50)
    else
      ( Int32.of_int
          ((10 lsl 24) lor (Nfp_algo.Prng.int prng ~bound:200 lsl 8) lor (i mod 250)),
        61000 + (i mod 4000) )
  in
  let dip = Int32.of_int ((10 lsl 24) lor (8 lsl 16) lor Nfp_algo.Prng.int prng ~bound:65536) in
  let flow =
    Flow.make ~sip ~dip
      ~sport:(1024 + Nfp_algo.Prng.int prng ~bound:60000)
      ~dport ~proto:6
  in
  let len = [| 10; 46; 202; 970; 1446 |].(i mod 5) in
  let payload =
    if i mod 4 = 0 then
      (* Embed a known IDS signature. *)
      match Nfp_nf.Ids.default_signatures 100 with
      | s :: _ ->
          let pad = max 0 (len - String.length s) in
          s ^ String.make pad 'X'
      | [] -> String.make len 'X'
    else String.init len (fun j -> if j mod 2 = 0 then 'Q' else Char.chr (48 + (j mod 10)))
  in
  Packet.create ~flow ~payload ()

let mutable_fields = Field.all

let probe_profile ~probes factory =
  let actions = ref [] in
  let add a = if not (List.mem a !actions) then actions := a :: !actions in
  for i = 0 to probes - 1 do
    let base = probe_packet ~seed:97L i in
    let before = Packet.full_copy base in
    let fp = run_once factory base in
    (* base has been processed in place. *)
    (match fp.wire with
    | None -> add Action.Drop
    | Some _ ->
        let header_changed = Packet.has_ah base <> Packet.has_ah before in
        List.iter
          (fun f ->
            (* A length change explained by header addition/removal is
               the Add/Rm action, not a Len write. *)
            if f = Field.Len && header_changed then ()
            else if Packet.get_field before f <> Packet.get_field base f then
              add (Action.Write f))
          Field.all;
        if header_changed then add Action.Add_rm_header);
    (* Read detection: flip one field, compare outcomes. *)
    List.iter
      (fun f ->
        let p1 = Packet.full_copy before in
        let p2 = Packet.full_copy before in
        mutate f p2;
        let in1 = Packet.full_copy p1 and in2 = Packet.full_copy p2 in
        let f1 = run_once factory p1 in
        let f2 = run_once factory p2 in
        if not (fingerprints_equal_modulo f (in1, f1) (in2, f2)) then add (Action.Read f))
      mutable_fields
  done;
  Action.normalize !actions

let derive_profile factory = probe_profile ~probes:64 factory

type comparison = {
  matching : Action.t list;
  undeclared : Action.t list;
  unobserved : Action.t list;
}

let compare_profiles ~declared ~observed =
  let declared = Action.normalize declared and observed = Action.normalize observed in
  {
    matching = List.filter (fun a -> List.mem a declared) observed;
    undeclared = List.filter (fun a -> not (List.mem a declared)) observed;
    unobserved = List.filter (fun a -> not (List.mem a observed)) declared;
  }

let inspect_registered ?(probes = 64) kind =
  match Registry.find kind with
  | None -> None
  | Some entry -> (
      match Registry.instantiate kind ~name:"probe" with
      | None -> None
      | Some _ ->
          let factory () =
            match Registry.instantiate kind ~name:"probe" with
            | Some nf -> nf
            | None -> assert false
          in
          let observed = probe_profile ~probes factory in
          Some (observed, compare_profiles ~declared:entry.profile ~observed))

let pp_comparison fmt c =
  Format.fprintf fmt "@[<v>matching: %a@,undeclared: %a@,unobserved: %a@]"
    Action.pp_profile c.matching Action.pp_profile c.undeclared Action.pp_profile
    c.unobserved
