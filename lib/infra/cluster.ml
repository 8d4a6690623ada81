let make ?config ?fault ?overload ?elastic ?links ?(link_latency_ns = 2000.0)
    ~segments
    engine ~output =
  if segments = [] then invalid_arg "Cluster.make: no segments";
  if not (link_latency_ns >= 0.0) then invalid_arg "Cluster.make: link_latency_ns must be >= 0";
  let classifier_fns = ref [] and health_fns = ref [] in
  let record (system : Nfp_sim.Harness.system) =
    classifier_fns := system.classifier :: !classifier_fns;
    health_fns := system.health :: !health_fns
  in
  (* Wire back to front: each server's output crosses the link into the
     next server's NIC. [fault] applies to every segment; plans match
     cores by name, so a pattern like "mid1:*" perturbs the matching
     core of each segment that has one. [overload] likewise arms every
     segment's watermarks and admission controller. *)
  let rec build = function
    | [] -> assert false
    | [ (plan, nfs) ] ->
        let system =
          System.make ?config ?fault ?overload ?elastic ?links ~plan ~nfs engine
            ~output
        in
        record system;
        system
    | (plan, nfs) :: rest ->
        let downstream = build rest in
        let forward ~pid pkt =
          Nfp_sim.Engine.schedule engine ~delay:link_latency_ns (fun () ->
              downstream.Nfp_sim.Harness.inject ~pid pkt)
        in
        let system =
          System.make ?config ?fault ?overload ?elastic ?links ~plan ~nfs engine
            ~output:forward
        in
        record system;
        system
  in
  let first = build segments in
  {
    Nfp_sim.Harness.inject = first.Nfp_sim.Harness.inject;
    classifier =
      (fun () ->
        List.fold_left
          (fun (acc : Nfp_sim.Harness.classifier_counters) f ->
            let (c : Nfp_sim.Harness.classifier_counters) = f () in
            {
              Nfp_sim.Harness.hits = acc.hits + c.hits;
              misses = acc.misses + c.misses;
              evictions = acc.evictions + c.evictions;
            })
          Nfp_sim.Harness.no_classifier_counters !classifier_fns);
    health =
      (fun () ->
        List.fold_left
          (fun acc f -> Nfp_sim.Harness.add_health acc (f ()))
          Nfp_sim.Harness.no_health !health_fns);
  }

let of_partition ?config ?fault ?overload ?elastic ?links ?link_latency_ns
    ~assignments
    ~profile_of ~nfs engine ~output =
  let rec plans acc = function
    | [] -> Ok (List.rev acc)
    | (a : Nfp_core.Partition.assignment) :: rest -> (
        match Nfp_core.Tables.plan ~profile_of a.segment with
        | Ok plan -> plans ((plan, nfs) :: acc) rest
        | Error e -> Error e)
  in
  match plans [] assignments with
  | Error e -> Error e
  | Ok segments ->
      Ok
        (make ?config ?fault ?overload ?elastic ?links ?link_latency_ns ~segments
           engine
           ~output)
