open Nfp_packet

let cost = Nfp_sim.Cost.default
let ring_capacity = 128
let jitter = 0.05
let seed = 11L

type job = { pid : int64; pkt : Packet.t; next_stage : int }

(* Retry-until-delivered emission to one ring. The server retries a
   thunk only until it first returns [true], so no delivered-flag is
   needed. *)
let emit_to core job = [| (fun () -> Nfp_sim.Server.offer core job) |]

let make ~nfs engine ~output =
  let n = List.length nfs in
  let nf_arr = Array.of_list nfs in
  let health = Nfp_sim.Harness.fresh_health () in
  let drops = health.drops in
  let prng = Nfp_algo.Prng.create ~seed in
  let jitter_for () = (jitter, Nfp_algo.Prng.split prng) in
  let nf_cores : (job, unit -> bool) Nfp_sim.Server.t option array = Array.make n None in
  let wire_delay = cost.wire_ns /. 2.0 in
  (* The ONVM manager runs an RX thread (NIC ingress: descriptor
     handling, flow-table lookup) and a TX thread (relaying references
     between NF rings and NIC egress). NIC-facing RX bounds throughput;
     relays are cheap pointer moves, but every hop is an extra queueing
     stop that NFP's distributed runtime avoids. *)
  let tx =
    let service_ns (_ : job) (cell : Nfp_sim.Server.cell) =
      cell.ns <-
        Nfp_sim.Cost.ns_of_cycles cost
          (cost.ring_dequeue + cost.switch_per_hop + cost.ring_enqueue)
    in
    let execute (job : job) =
      if job.next_stage >= n then begin
        Nfp_sim.Engine.schedule engine ~delay:wire_delay (fun () ->
            output ~pid:job.pid job.pkt);
        [||]
      end
      else
        match nf_cores.(job.next_stage) with
        | Some core -> emit_to core job
        | None -> assert false
    in
    Nfp_sim.Server.create ~engine ~name:"switch-tx" ~ring_capacity
      ~batch:cost.batch ~jitter:(jitter_for ()) ~service_ns ~execute
      ~emit:Nfp_sim.Server.call ()
  in
  let rx =
    let service_ns (_ : job) (cell : Nfp_sim.Server.cell) =
      cell.ns <- Nfp_sim.Cost.ns_of_cycles cost (cost.switch_forward + cost.ring_enqueue)
    in
    let execute (job : job) =
      match nf_cores.(0) with
      | Some core -> emit_to core job
      | None -> emit_to tx job (* zero-length chain: straight to egress *)
    in
    Nfp_sim.Server.create ~engine ~name:"switch-rx" ~ring_capacity
      ~batch:cost.batch ~jitter:(jitter_for ()) ~service_ns ~execute
      ~emit:Nfp_sim.Server.call ()
  in
  Array.iteri
    (fun i (nf : Nfp_nf.Nf.t) ->
      let service_ns (job : job) (cell : Nfp_sim.Server.cell) =
        cell.ns <-
          Nfp_sim.Cost.ns_of_cycles cost
            (cost.ring_dequeue + nf.cost_cycles job.pkt + cost.ring_enqueue)
      in
      let execute (job : job) =
        match nf.process job.pkt with
        | Nfp_nf.Nf.Forward -> emit_to tx { job with next_stage = i + 1 }
        | Nfp_nf.Nf.Dropped ->
            drops.nf_dropped <- drops.nf_dropped + 1;
            [||]
      in
      nf_cores.(i) <-
        Some
          (Nfp_sim.Server.create ~engine ~name:nf.name ~ring_capacity
             ~batch:cost.batch ~jitter:(jitter_for ()) ~service_ns ~execute
      ~emit:Nfp_sim.Server.call ()))
    nf_arr;
  {
    Nfp_sim.Harness.inject =
      (fun ~pid pkt ->
        Nfp_sim.Engine.schedule engine ~delay:wire_delay (fun () ->
            if not (Nfp_sim.Server.offer rx { pid; pkt; next_stage = 0 }) then
              drops.ingress_rejected <- drops.ingress_rejected + 1));
    classifier = (fun () -> Nfp_sim.Harness.no_classifier_counters);
    health = (fun () -> Nfp_sim.Harness.copy_health health);
  }
