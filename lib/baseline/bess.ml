open Nfp_packet

type config = {
  cost : Nfp_sim.Cost.t;
  ring_capacity : int;
  jitter : float;
  seed : int64;
}

let default_config =
  { cost = Nfp_sim.Cost.default; ring_capacity = 192; jitter = 0.05; seed = 13L }

type job = { pid : int64; pkt : Packet.t }

let make ?(config = default_config) ~cores ~chain engine ~output =
  if cores < 1 then invalid_arg "Bess.make: need at least one core";
  let cost = config.cost in
  let ring_drops = ref 0 and nf_drops = ref 0 in
  let prng = Nfp_algo.Prng.create ~seed:config.seed in
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
            | Nfp_nf.Nf.Dropped -> incr nf_drops)
      in
      go nfs;
      [||]
    in
    Nfp_sim.Server.create ~engine
      ~name:(Printf.sprintf "rtc#%d" i)
      ~ring_capacity:config.ring_capacity ~batch:cost.batch
      ~jitter:(config.jitter, Nfp_algo.Prng.split prng)
      ~service_ns ~execute ~emit:Nfp_sim.Server.call ()
  in
  let replicas = Array.init cores make_core in
  {
    Nfp_sim.Harness.inject =
      (fun ~pid pkt ->
        Nfp_sim.Engine.schedule engine ~delay:wire_delay (fun () ->
            (* NIC RSS: hash steers the packet to a replica. *)
            let i =
              Int64.to_int
                (Int64.rem
                   (Int64.logand (Nfp_algo.Hashing.mix64 pid) Int64.max_int)
                   (Int64.of_int cores))
            in
            if not (Nfp_sim.Server.offer replicas.(i) { pid; pkt }) then incr ring_drops));
    ring_drops = (fun () -> !ring_drops);
    nf_drops = (fun () -> !nf_drops);
    unmatched = (fun () -> 0);
    shed = (fun () -> 0);
    classifier = (fun () -> Nfp_sim.Harness.no_classifier_counters);
    health =
      (fun () ->
        {
          Nfp_sim.Harness.no_health with
          drops =
            {
              Nfp_sim.Harness.no_drops with
              ingress_rejected = !ring_drops;
              nf_dropped = !nf_drops;
            };
        });
  }
