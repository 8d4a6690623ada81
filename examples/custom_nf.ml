(* Integrating a new NF into NFP (paper §5.4):

   1. implement the NF against the packet API,
   2. derive its action profile with the inspector,
   3. register the profile in the NF action table,
   4. write policies that name it — the orchestrator now reasons about
      its parallelism like any built-in NF.

   The custom NF here is a DSCP marker: it classifies flows by
   destination port and rewrites the IPv4 TOS byte.

   Run with: dune exec examples/custom_nf.exe *)

open Nfp_packet
open Nfp_nf

let make_dscp_marker ?(name = "dscp") () =
  let marked = ref 0 in
  let process pkt =
    let dscp =
      match Packet.dport pkt with
      | p when p < 1024 -> 0x2e (* expedited forwarding for well-known services *)
      | p when p < 32768 -> 0x0a (* AF11 *)
      | _ -> 0x00
    in
    Packet.set_tos pkt dscp;
    incr marked;
    Nf.Forward
  in
  Nf.make ~name ~kind:"DscpMarker"
    ~profile:Action.[ Read Field.Dport; Write Field.Tos ]
    ~cost_cycles:(fun _ -> 90)
    ~state_digest:(fun () -> !marked)
    process

let () =
  (* Derive the profile behaviourally, then compare with what we
     declared — the inspector is the paper's "analysis tool provided by
     NFP" (§5.4). *)
  let observed =
    Nfp_inspector.Inspector.derive_profile (fun () -> make_dscp_marker ())
  in
  Format.printf "inspector-derived profile: %a@." Action.pp_profile observed;

  (* Register the NF type so the orchestrator can fetch its actions. *)
  Registry.register ~kind:"DscpMarker" ~profile:observed;

  (* The marker writes TOS, which nothing else in this chain reads or
     writes, so Dirty Memory Reusing lets it share the packet buffer
     with the monitor — parallel, no copies. *)
  let policy_text =
    {|
NF(mark, DscpMarker)
NF(mon, Monitor)
NF(fw, Firewall)
Chain(fw, mark, mon)
|}
  in
  match Nfp_core.Compiler.compile_text policy_text with
  | Error es -> failwith (String.concat "; " es)
  | Ok out ->
      Format.printf "graph: %a@." Nfp_core.Graph.pp out.graph;
      let plan =
        match Nfp_core.Tables.of_output out with Ok p -> p | Error e -> failwith e
      in
      Format.printf "copies per packet: %d (Dirty Memory Reusing at work)@."
        (plan.header_copies + plan.full_copies);
      (* Execute one packet through the deployed plan. *)
      let table = Hashtbl.create 4 in
      Hashtbl.replace table "mark" (make_dscp_marker ~name:"mark" ());
      Hashtbl.replace table "mon" (fst (Monitor.create ~name:"mon" ()));
      Hashtbl.replace table "fw" (fst (Firewall.create ~name:"fw" ()));
      let flow =
        Flow.make
          ~sip:(Option.get (Flow.ip_of_string "10.0.0.1"))
          ~dip:(Option.get (Flow.ip_of_string "10.8.0.1"))
          ~sport:12345 ~dport:443 ~proto:6
      in
      let pkt = Packet.create ~flow ~payload:"GET / HTTP/1.1" () in
      (match
         Nfp_infra.Reference.run_plan ~plan ~nfs:(Hashtbl.find table) pkt
       with
      | Some out_pkt ->
          Format.printf "packet out: %a (tos=0x%02x)@." Packet.pp out_pkt
            (Packet.tos out_pkt)
      | None -> Format.printf "packet dropped@.")
