open Nfp_packet

type entry = { kind : string; profile : Action.t list; deployment_pct : float option }

(* Paper Table 2, row by row. "R/W" cells expand to [Read; Write]. The
   NIDS row has no Drop (detection only); the separately registered IPS
   type is the dropping variant used in §3's Priority example. *)
let paper_rows =
  let open Action in
  let r f = Read f and w f = Write f in
  [
    {
      kind = "Firewall";
      profile = [ r Field.Sip; r Field.Dip; r Field.Sport; r Field.Dport; Drop ];
      deployment_pct = Some 26.0;
    };
    {
      kind = "IDS";
      profile = [ r Field.Sip; r Field.Dip; r Field.Sport; r Field.Dport; r Field.Payload ];
      deployment_pct = Some 20.0;
    };
    { kind = "Gateway"; profile = [ r Field.Sip; r Field.Dip ]; deployment_pct = Some 19.0 };
    {
      kind = "LoadBalancer";
      profile =
        [ r Field.Sip; w Field.Sip; r Field.Dip; w Field.Dip; r Field.Sport; r Field.Dport ];
      deployment_pct = Some 10.0;
    };
    {
      kind = "Caching";
      profile = [ r Field.Sip; r Field.Dip; r Field.Payload ];
      deployment_pct = Some 10.0;
    };
    {
      kind = "VPN";
      profile = [ r Field.Sip; r Field.Dip; r Field.Payload; w Field.Payload; Add_rm_header ];
      deployment_pct = Some 7.0;
    };
    {
      kind = "NAT";
      profile =
        [
          r Field.Sip; w Field.Sip; r Field.Dip; w Field.Dip;
          r Field.Sport; w Field.Sport; r Field.Dport; w Field.Dport; Drop;
        ];
      deployment_pct = None;
    };
    {
      kind = "Proxy";
      profile =
        [ r Field.Dip; w Field.Dip; r Field.Payload; w Field.Payload; w Field.Len ];
      deployment_pct = None;
    };
    {
      kind = "Compression";
      profile = [ r Field.Payload; w Field.Payload; w Field.Len ];
      deployment_pct = None;
    };
    { kind = "TrafficShaper"; profile = [ r Field.Len; Drop ]; deployment_pct = None };
    {
      kind = "Monitor";
      profile =
        [ r Field.Sip; r Field.Dip; r Field.Sport; r Field.Dport; r Field.Len ];
      deployment_pct = None;
    };
    (* Implemented variants beyond the paper table. *)
    {
      kind = "IPS";
      profile =
        [ r Field.Sip; r Field.Dip; r Field.Sport; r Field.Dport; r Field.Payload; Drop ];
      deployment_pct = None;
    };
    { kind = "Forwarder"; profile = [ r Field.Dip ]; deployment_pct = None };
  ]

let entries : (string, entry) Hashtbl.t = Hashtbl.create 32

let order : string list ref = ref []

let key k = String.lowercase_ascii k

let put e =
  if not (Hashtbl.mem entries (key e.kind)) then order := !order @ [ key e.kind ];
  Hashtbl.replace entries (key e.kind) { e with profile = Action.normalize e.profile }

let () = List.iter put paper_rows

let table () = List.filter_map (Hashtbl.find_opt entries) !order

let find kind = Hashtbl.find_opt entries (key kind)

let profile_of kind =
  match find kind with Some e -> e.profile | None -> raise Not_found

let register ~kind ~profile = put { kind; profile; deployment_pct = None }

let weighted_kinds () =
  let weighted =
    List.filter_map
      (fun e -> match e.deployment_pct with Some p -> Some (e.kind, p) | None -> None)
      (table ())
  in
  let total = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 weighted in
  List.map (fun (k, p) -> (k, p /. total)) weighted

let instantiate kind ~name =
  match key kind with
  | "firewall" -> Some (fst (Firewall.create ~name ()))
  | "ids" -> Some (fst (Ids.create ~name ~mode:`Detect ()))
  | "ips" -> Some (fst (Ids.create ~name ~mode:`Prevent ()))
  | "gateway" -> Some (fst (Gateway.create ~name ()))
  | "loadbalancer" -> Some (fst (Load_balancer.create ~name ()))
  | "caching" -> Some (fst (Caching.create ~name ()))
  | "vpn" -> Some (fst (Vpn.create ~name ()))
  | "nat" -> Some (fst (Nat.create ~name ()))
  | "proxy" -> Some (fst (Proxy.create ~name ()))
  | "compression" -> Some (fst (Compression.create ~name ()))
  | "trafficshaper" ->
      let nf, _, _ = Traffic_shaper.create ~name () in
      Some nf
  | "monitor" -> Some (fst (Monitor.create ~name ()))
  | "forwarder" -> Some (fst (L3_forwarder.create ~name ()))
  | _ -> None

let instances bindings =
  let table = Hashtbl.create 8 in
  List.iter
    (fun (name, kind) ->
      match instantiate kind ~name with
      | Some nf -> Hashtbl.replace table name nf
      | None ->
          invalid_arg
            (Printf.sprintf "Registry.instances: NF type %S has no implementation" kind))
    bindings;
  Hashtbl.find table
