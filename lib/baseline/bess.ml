open Nfp_packet

let cost = Nfp_sim.Cost.default
let ring_capacity = 192
let jitter = 0.05
let seed = 13L

type job = { pid : int64; pkt : Packet.t }

let make ~cores ~chain engine ~output =
  if cores < 1 then invalid_arg "Bess.make: need at least one core";
  let health = Nfp_sim.Harness.fresh_health () in
  let drops = health.drops in
  let prng = Nfp_algo.Prng.create ~seed in
  let wire_delay = cost.wire_ns /. 2.0 in
  let make_core i =
    ignore i;
    let nfs = chain () in
    let service_ns (job : job) (cell : Nfp_sim.Server.cell) =
      let cycles =
        List.fold_left
          (fun acc (nf : Nfp_nf.Nf.t) -> acc + cost.rtc_call + nf.cost_cycles job.pkt)
          cost.ring_dequeue nfs
      in
      cell.ns <- Nfp_sim.Cost.ns_of_cycles cost cycles
    in
    let execute (job : job) =
      let rec go = function
        | [] ->
            Nfp_sim.Engine.schedule engine ~delay:wire_delay (fun () ->
                output ~pid:job.pid job.pkt)
        | (nf : Nfp_nf.Nf.t) :: rest -> (
            match nf.process job.pkt with
            | Nfp_nf.Nf.Forward -> go rest
            | Nfp_nf.Nf.Dropped -> drops.nf_dropped <- drops.nf_dropped + 1)
      in
      go nfs;
      [||]
    in
    Nfp_sim.Server.create ~engine
      ~name:(Printf.sprintf "rtc#%d" i)
      ~ring_capacity ~batch:cost.batch
      ~jitter:(jitter, Nfp_algo.Prng.split prng)
      ~service_ns ~execute ~emit:Nfp_sim.Server.call ()
  in
  let replicas = Array.init cores make_core in
  {
    Nfp_sim.Harness.inject =
      (fun ~pid pkt ->
        Nfp_sim.Engine.schedule engine ~delay:wire_delay (fun () ->
            (* NIC RSS: hash steers the packet to a replica. *)
            let i = Nfp_algo.Hashing.slot_of_pid pid cores in
            if not (Nfp_sim.Server.offer replicas.(i) { pid; pkt }) then
              drops.ingress_rejected <- drops.ingress_rejected + 1));
    classifier = (fun () -> Nfp_sim.Harness.no_classifier_counters);
    health = (fun () -> Nfp_sim.Harness.copy_health health);
  }
