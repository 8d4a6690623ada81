(* The interpretive reference walks the plan's tables per packet. It is
   kept as the executable semantics of the compiled dataplane; the
   differential test in test/test_fastpath.ml holds the two to
   packet-for-packet agreement. *)

open Nfp_packet
open Nfp_core

type delivery = {
  ctx : Context.t;
  merge_id : int;
  deliverer : Tables.deliverer;
  version : int;
  nil : bool;
}

type at_entry = { mutable received : int; mutable nil_from : Tables.deliverer list }

let build ~(config : Runtime.config) ~(drops : Nfp_sim.Harness.drops) table nf_impls engine
    ~output =
  let cost = config.cost in
  let plan_of_mid mid : Tables.plan =
    let _, p, _ = table.(mid - 1) in
    p
  in
  (* Cores split the jitter PRNG in build order: NF cores in [nf_impls]
     order, mergers, the agent, the classifier. [System.make_multi]
     builds in the same order, which is what makes the two traces
     identical. *)
  let prng = Nfp_algo.Prng.create ~seed:config.seed in
  let core ~name ~service_ns ~execute =
    Runtime.new_core ~engine ~config ~watermarks:None ~fault:None ~name ~prng ~service_ns
      ~execute ~emit:Nfp_sim.Server.call ()
  in
  let egress =
    Nfp_sim.Engine.line engine ~delay:(cost.wire_ns /. 2.0) (fun pid pkt _ -> output ~pid pkt)
  in
  let nf_cores : (int * string, (Context.t, unit -> bool) Nfp_sim.Server.t) Hashtbl.t =
    Hashtbl.create 16
  in
  let merger_cores : (delivery, unit -> bool) Nfp_sim.Server.t array ref = ref [||] in
  let agent_core : (delivery, unit -> bool) Nfp_sim.Server.t option ref = ref None in
  let action_cost ctx actions =
    List.fold_left
      (fun acc -> function
        | Tables.Copy { full; src_version; _ } ->
            if full then
              acc + cost.copy_base
              + int_of_float
                  (cost.copy_per_byte *. float_of_int (Program.packet_bytes ctx src_version))
            else acc + cost.header_copy
        | Tables.Distribute { targets; _ } ->
            acc + (cost.ring_enqueue * List.length targets))
      0 actions
  in
  (* A single send attempt; [false] = downstream full, retry later. *)
  let send_to_merge (d : delivery) () =
    match !agent_core with
    | Some agent -> Nfp_sim.Server.offer agent d
    | None ->
        let instances = !merger_cores in
        Nfp_sim.Server.offer
          instances.(Nfp_algo.Hashing.slot_of_pid (Context.pid d.ctx) (Array.length instances))
          d
  in
  let send_to_nf name ctx () =
    match Hashtbl.find_opt nf_cores (Context.mid ctx, name) with
    | Some core -> Nfp_sim.Server.offer core ctx
    | None -> invalid_arg (Printf.sprintf "System: FT references unknown NF %S" name)
  in
  (* Execute an action list: copies happen now; distributes become a
     retryable emission worklist. *)
  let emission_of_actions ~self ctx actions =
    let sends =
      List.concat_map
        (function
          | Tables.Copy { src_version; dst_version; full } ->
              ignore (Context.copy ctx ~src:src_version ~dst:dst_version ~full);
              []
          | Tables.Distribute { version; targets } ->
              List.map
                (fun target () ->
                  match target with
                  | Tables.To_nf n -> send_to_nf n ctx ()
                  | Tables.To_merger id ->
                      send_to_merge
                        { ctx; merge_id = id; deliverer = self; version; nil = false }
                        ()
                  | Tables.Deliver ->
                      (match Context.get ctx version with
                      | Some pkt -> Nfp_sim.Engine.send egress (Context.pid ctx) pkt 0
                      | None -> ());
                      true)
                targets)
        actions
    in
    Array.of_list sends
  in
  (* One core per NF: the NF plus its runtime (paper §6: the runtime
     shares the CPU core with the NF). *)
  List.iter
    (fun (mid, (entry : Tables.nf_entry), (nf : Nfp_nf.Nf.t)) ->
      let service_ns ctx (cell : Nfp_sim.Server.cell) =
        let nf_cycles =
          match Context.get ctx entry.version with
          | Some pkt -> nf.cost_cycles pkt
          | None -> 0
        in
        cell.ns <-
          Nfp_sim.Cost.ns_of_cycles cost
            (cost.ring_dequeue + cost.nf_runtime + nf_cycles
           + action_cost ctx entry.actions)
      in
      let execute ctx =
        match Context.get ctx entry.version with
        | None -> [||]
        | Some pkt -> (
            (* A crashing NF drops its packet, with a nil where a
               merger expects this branch. *)
            match Runtime.run_nf ~who:entry.nf nf.process ~pid:(Context.pid ctx) pkt with
            | Nfp_nf.Nf.Forward ->
                emission_of_actions ~self:(Tables.D_nf entry.nf) ctx entry.actions
            | Nfp_nf.Nf.Dropped -> (
                match entry.nil_target with
                | Some id ->
                    [|
                        send_to_merge
                          {
                            ctx;
                            merge_id = id;
                            deliverer = Tables.D_nf entry.nf;
                            version = entry.version;
                            nil = true;
                          };
                    |]
                | None ->
                    drops.nf_dropped <- drops.nf_dropped + 1;
                    [||]))
      in
      Hashtbl.replace nf_cores (mid, entry.nf)
        (core ~name:(Printf.sprintf "mid%d:%s" mid entry.nf) ~service_ns ~execute))
    nf_impls;
  (* Merger instances: shared across service graphs (paper §5.3: "a
     merger instance can merge any packet from any service graph"),
     each with a private accumulating table keyed by MID and PID. *)
  let make_merger index =
    let at : at_entry Nfp_algo.Pair_table.t = Nfp_algo.Pair_table.create () in
    let spec_of mid id =
      match Tables.find_merge (plan_of_mid mid) id with
      | Some s -> s
      | None -> invalid_arg "System: delivery references unknown merge point"
    in
    let branch_of spec (deliverer : Tables.deliverer) =
      List.find_opt
        (fun (e : Tables.expect) ->
          e.deliverer = deliverer
          || match deliverer with Tables.D_nf n -> List.mem n e.members | _ -> false)
        spec.Tables.expected
    in
    let service_ns (d : delivery) (cell : Nfp_sim.Server.cell) =
      let spec = spec_of (Context.mid d.ctx) d.merge_id in
      let branches = List.length spec.expected in
      let completion =
        (List.length spec.ops * cost.merge_op) + action_cost d.ctx spec.next
      in
      cell.ns <-
        Nfp_sim.Cost.ns_of_cycles cost
          (cost.ring_dequeue + cost.merge_delivery + (completion / max 1 branches))
    in
    let execute (d : delivery) =
      let mid = Context.mid d.ctx in
      let spec = spec_of mid d.merge_id in
      let a = Int64.to_int (Context.pid d.ctx)
      and b = Dedup.merge_limb ~mid ~merge_id:d.merge_id in
      let entry =
        match Nfp_algo.Pair_table.find at ~a ~b with
        | -1 ->
            let e = { received = 0; nil_from = [] } in
            Nfp_algo.Pair_table.replace at ~a ~b e;
            e
        | s -> Nfp_algo.Pair_table.value at s
      in
      entry.received <- entry.received + 1;
      if d.nil then entry.nil_from <- d.deliverer :: entry.nil_from;
      if entry.received < List.length spec.expected then [||]
      else begin
        Nfp_algo.Pair_table.remove at ~a ~b;
        let nil_branches =
          List.filter_map (fun del -> branch_of spec del) entry.nil_from
        in
        let dropped =
          match spec.drop_policy with
          | `Any -> nil_branches <> []
          | `Priority_to winner -> (
              match branch_of spec winner with
              | Some wb -> List.exists (fun (b : Tables.expect) -> b = wb) nil_branches
              | None -> nil_branches <> [])
        in
        if dropped then begin
          (* Propagate a nil upward when an enclosing merger expects this
             branch; otherwise the packet dies here. *)
          let nil_sends =
            List.concat_map
              (function
                | Tables.Distribute { version; targets } ->
                    List.filter_map
                      (function
                        | Tables.To_merger outer ->
                            Some
                              (send_to_merge
                                 {
                                   ctx = d.ctx;
                                   merge_id = outer;
                                   deliverer = Tables.D_merger d.merge_id;
                                   version;
                                   nil = true;
                                 })
                        | Tables.To_nf _ | Tables.Deliver -> None)
                      targets
                | Tables.Copy _ -> [])
              spec.next
          in
          if nil_sends = [] then drops.nf_dropped <- drops.nf_dropped + 1;
          Array.of_list nil_sends
        end
        else begin
          (* Versions from branches that dropped under a priority policy
             are half-processed; their ops are skipped. *)
          let nil_versions =
            List.map (fun (b : Tables.expect) -> b.version) nil_branches
          in
          let get ctx v =
            if List.mem v nil_versions && v <> spec.result_version then Packet.absent
            else Context.slot ctx v
          in
          List.iter (fun op -> Merge_op.apply op ~get d.ctx) spec.ops;
          emission_of_actions ~self:(Tables.D_merger d.merge_id) d.ctx spec.next
        end
      end
    in
    core ~name:(Printf.sprintf "merger#%d" index) ~service_ns ~execute
  in
  merger_cores := Array.init config.mergers make_merger;
  (* The merger agent: hash the immutable PID, steer to an instance. *)
  if config.mergers > 1 then begin
    let instances = !merger_cores in
    let service_ns _ (cell : Nfp_sim.Server.cell) =
      cell.ns <-
        Nfp_sim.Cost.ns_of_cycles cost
          (cost.ring_dequeue + cost.merger_agent + cost.ring_enqueue)
    in
    let execute (d : delivery) =
      let i = Nfp_algo.Hashing.slot_of_pid (Context.pid d.ctx) (Array.length instances) in
      [| (fun () -> Nfp_sim.Server.offer instances.(i) d) |]
    in
    agent_core :=
      Some (core ~name:"merger-agent" ~service_ns ~execute)
  end;
  let classifier =
    let service_ns (ctx : Context.t) (cell : Nfp_sim.Server.cell) =
      let actions = (plan_of_mid (Context.mid ctx)).classifier_actions in
      cell.ns <-
        Nfp_sim.Cost.ns_of_cycles cost (cost.classifier + action_cost ctx actions)
    in
    let execute ctx =
      emission_of_actions ~self:(Tables.D_nf "classifier") ctx
        (plan_of_mid (Context.mid ctx)).classifier_actions
    in
    core ~name:"classifier" ~service_ns ~execute
  in
  fun ~pid ~mid pkt ->
    let ctx = Context.create ~pid ~mid ~versions:(plan_of_mid mid).version_count pkt in
    if not (Nfp_sim.Server.offer classifier ctx) then
      drops.ingress_rejected <- drops.ingress_rejected + 1
