open Nfp_packet
open Nfp_core
open Runtime

(* Degrade fallback: one sequential twin chain per service graph whose
   [recovery_of] yields Degrade for at least one of its NFs, built from
   the plan's provably-equivalent serial order; every other graph gets
   [None], since the watchdog can never degrade it. While the watchdog
   holds a graph degraded, new packets run the chain instead of the
   parallel deployment. Each chain is built tail first; twin cores draw
   jitter from a PRNG stream independent of the main one, so building
   them does not perturb the fault-free trace (the differential test
   holds this). *)
let chains rt nf_impls table =
  let cost = rt.config.cost in
  let prng = Nfp_algo.Prng.create ~seed:(Int64.logxor rt.config.seed 0x5eed_f417L) in
  let twin mid name (nf : Nfp_nf.Nf.t) next =
    let service_ns ((_, pkt) : int64 * Packet.t) (cell : Nfp_sim.Server.cell) =
      cell.ns <-
        Nfp_sim.Cost.ns_of_cycles cost
          (cost.ring_dequeue + cost.nf_runtime + nf.cost_cycles pkt + cost.ring_enqueue)
    in
    (* A twin's one send per forwarded job is the hop to the next twin
       core. *)
    let hop = [| () |] in
    let emit job () =
      match next with Some core -> Nfp_sim.Server.offer core job | None -> true
    in
    let who = name ^ " (sequential fallback)" in
    let execute (pid, pkt) =
      match run_nf ~who nf.process ~pid pkt with
      | Nfp_nf.Nf.Forward -> (
          match next with
          | Some _ -> hop
          | None ->
              Delivery.deliver_out rt pkt;
              [||])
      | Nfp_nf.Nf.Dropped ->
          rt.health.drops.nf_dropped <- rt.health.drops.nf_dropped + 1;
          [||]
    in
    core rt ~name:(Printf.sprintf "seq:mid%d:%s" mid name) ~prng ~service_ns ~execute ~emit ()
  in
  let degradable (e : Tables.nf_entry) =
    match rt.fault with Some fc -> fc.recovery_of e.nf = Watchdog.Degrade | None -> false
  in
  Array.mapi
    (fun i (_, (plan : Tables.plan), _) ->
      let mid = i + 1 in
      if not (List.exists degradable plan.nf_entries) then None
      else
        List.fold_right
          (fun name next ->
            match
              List.find_map
                (fun (m, (e : Tables.nf_entry), nf) ->
                  if m = mid && e.nf = name then Some nf else None)
                nf_impls
            with
            | Some nf -> Some (twin mid name nf next)
            | None -> next)
          plan.serial_order None)
    table
