type classifier_counters = { hits : int; misses : int; evictions : int }

let no_classifier_counters = { hits = 0; misses = 0; evictions = 0 }

(* The unified drop taxonomy: every way a packet can fail to reach the
   output, in one record, so callers stop reconciling counters spread
   over Server / System / merger internals. [internal_rejected] is the
   odd one out — in-graph ring-full rejections are backpressure retry
   events, not losses (the upstream core stalls and re-offers), so it
   is excluded from every ledger; it is surfaced because a growing
   value is the signature of a saturated interior hop. *)
type drops = {
  ingress_rejected : int;  (* NIC-boundary ring full: packets lost at entry *)
  internal_rejected : int;  (* in-graph ring-full rejections: retries, not losses *)
  nf_dropped : int;  (* NF verdict Drop *)
  no_match : int;  (* no classifier rule matched *)
  fault_dropped : int;  (* injected Drop faults *)
  flush_lost : int;  (* in-flight work discarded by lossy restarts *)
  merge_timed_out : int;  (* merges force-completed without a failed branch *)
  shed : int;  (* refused by the admission controller under pressure *)
  shed_by_class : (int * int) list;  (* (priority class, shed count) *)
  degraded : int;  (* packets that took a pressure-degraded NF path *)
}

let no_drops =
  {
    ingress_rejected = 0;
    internal_rejected = 0;
    nf_dropped = 0;
    no_match = 0;
    fault_dropped = 0;
    flush_lost = 0;
    merge_timed_out = 0;
    shed = 0;
    shed_by_class = [];
    degraded = 0;
  }

(* Merge per-class shed counts: classes union, counts add, sorted by
   class so composition is order-insensitive. *)
let add_by_class a b =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (c, n) ->
      Hashtbl.replace tbl c (n + Option.value ~default:0 (Hashtbl.find_opt tbl c)))
    (a @ b);
  Hashtbl.fold (fun c n acc -> (c, n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let add_drops a b =
  {
    ingress_rejected = a.ingress_rejected + b.ingress_rejected;
    internal_rejected = a.internal_rejected + b.internal_rejected;
    nf_dropped = a.nf_dropped + b.nf_dropped;
    no_match = a.no_match + b.no_match;
    fault_dropped = a.fault_dropped + b.fault_dropped;
    flush_lost = a.flush_lost + b.flush_lost;
    merge_timed_out = a.merge_timed_out + b.merge_timed_out;
    shed = a.shed + b.shed;
    shed_by_class = add_by_class a.shed_by_class b.shed_by_class;
    degraded = a.degraded + b.degraded;
  }

(* The link taxonomy: what the lossy fabric and the reliable channels
   did, in one record. Raw link losses live inside the run ledger's
   [in_flight] residual (like injected fault drops: the packet was
   offered and vanished inside the system); with reliable channels
   armed they are transient — the retransmit machinery re-delivers, so
   they never show up as end-of-run losses. *)
type link_stats = {
  link_drops : int;  (* transits lost by the fabric (incl. lost retransmissions) *)
  retransmits : int;  (* re-emissions by reliable channels (RTO or NACK) *)
  duplicates_suppressed : int;  (* receiver-side dedup hits (fabric dup or spurious rtx) *)
  reordered : int;  (* transits the fabric delivered behind their successors *)
  partitions : int;  (* links declared Down (probe timeouts or budget exhaustion) *)
  reroutes : int;  (* packets detoured around a Down link *)
}

let no_link_stats =
  {
    link_drops = 0;
    retransmits = 0;
    duplicates_suppressed = 0;
    reordered = 0;
    partitions = 0;
    reroutes = 0;
  }

let add_link_stats a b =
  {
    link_drops = a.link_drops + b.link_drops;
    retransmits = a.retransmits + b.retransmits;
    duplicates_suppressed = a.duplicates_suppressed + b.duplicates_suppressed;
    reordered = a.reordered + b.reordered;
    partitions = a.partitions + b.partitions;
    reroutes = a.reroutes + b.reroutes;
  }

(* Per-core liveness as the watchdog sees it, plus the fault/recovery
   counters of the whole system. Systems without fault machinery report
   [no_health]. *)
type core_health = {
  core : string;
  state : string;
      (* "up" | "down" | "restarting" | "bypassed" | "migrating" |
         "standby" *)
  processed : int;
  queue : int;
}

type health = {
  cores : core_health list;
  detections : int;  (* watchdog heartbeat-deadline detections *)
  crashes : int;  (* injected crash events that took a core down *)
  restarts : int;  (* cores brought back by the Restart/Degrade policies *)
  bypasses : int;  (* cores removed from the graph by the Bypass policy *)
  degrades : int;  (* graphs switched to their sequential fallback *)
  recoveries : int;  (* degraded graphs switched back to parallel *)
  bypassed_packets : int;  (* packets that skipped a bypassed NF *)
  checkpoints : int;  (* NF state snapshots taken (periodic + forced) *)
  forced_checkpoints : int;  (* checkpoints forced by input-log overflow *)
  replayed : int;  (* packets re-processed from an input log, output-suppressed *)
  deduped : int;  (* duplicate emissions suppressed after a replay *)
  salvaged : int;  (* in-flight jobs re-admitted instead of flushed *)
  (* Overload control plane (PR 8). *)
  drops : drops;  (* the unified drop taxonomy *)
  pressure_episodes : int;  (* ring watermark onsets across all cores *)
  breaker_trips : int;  (* circuit breaker gave up on a restart-looping core *)
  backoffs : int;  (* restarts delayed by exponential backoff *)
  degrade_switches : int;  (* NFs toggled into a pressure-degrade mode *)
  (* Elastic scale-out / live migration (PR 9). *)
  scale_outs : int;  (* replicas activated by the elastic controller *)
  scale_ins : int;  (* replicas drained and retired *)
  migrations : int;  (* committed bucket migrations *)
  migration_aborts : int;  (* migrations rolled back (crash or deadline) *)
  migrated_packets : int;  (* frozen packets re-homed by committed migrations *)
  migrating : int;  (* gauge: packets currently frozen at quiesced sources *)
  (* Lossy fabric / reliable channels (PR 10). *)
  links : link_stats;  (* the link taxonomy *)
  dedup_entries : int;
      (* gauge: live entries across the bounded (pid, version) dedup
         tables — pinned below their configured capacity however long a
         lossy run retransmits *)
}

let no_health =
  {
    cores = [];
    detections = 0;
    crashes = 0;
    restarts = 0;
    bypasses = 0;
    degrades = 0;
    recoveries = 0;
    bypassed_packets = 0;
    checkpoints = 0;
    forced_checkpoints = 0;
    replayed = 0;
    deduped = 0;
    salvaged = 0;
    drops = no_drops;
    pressure_episodes = 0;
    breaker_trips = 0;
    backoffs = 0;
    degrade_switches = 0;
    scale_outs = 0;
    scale_ins = 0;
    migrations = 0;
    migration_aborts = 0;
    migrated_packets = 0;
    migrating = 0;
    links = no_link_stats;
    dedup_entries = 0;
  }

(* Combine the health of composed systems (e.g. chained cluster
   segments): core lists concatenate, counters add. *)
let add_health a b =
  {
    cores = a.cores @ b.cores;
    detections = a.detections + b.detections;
    crashes = a.crashes + b.crashes;
    restarts = a.restarts + b.restarts;
    bypasses = a.bypasses + b.bypasses;
    degrades = a.degrades + b.degrades;
    recoveries = a.recoveries + b.recoveries;
    bypassed_packets = a.bypassed_packets + b.bypassed_packets;
    checkpoints = a.checkpoints + b.checkpoints;
    forced_checkpoints = a.forced_checkpoints + b.forced_checkpoints;
    replayed = a.replayed + b.replayed;
    deduped = a.deduped + b.deduped;
    salvaged = a.salvaged + b.salvaged;
    drops = add_drops a.drops b.drops;
    pressure_episodes = a.pressure_episodes + b.pressure_episodes;
    breaker_trips = a.breaker_trips + b.breaker_trips;
    backoffs = a.backoffs + b.backoffs;
    degrade_switches = a.degrade_switches + b.degrade_switches;
    scale_outs = a.scale_outs + b.scale_outs;
    scale_ins = a.scale_ins + b.scale_ins;
    migrations = a.migrations + b.migrations;
    migration_aborts = a.migration_aborts + b.migration_aborts;
    migrated_packets = a.migrated_packets + b.migrated_packets;
    migrating = a.migrating + b.migrating;
    links = add_link_stats a.links b.links;
    dedup_entries = a.dedup_entries + b.dedup_entries;
  }

type system = {
  inject : pid:int64 -> Nfp_packet.Packet.t -> unit;
  classifier : unit -> classifier_counters;
  health : unit -> health;
}

type arrivals =
  | Uniform of float
  | Poisson of float
  | Burst of float * int
  | Surge of Fault.surge

type result = {
  latency : Nfp_algo.Stats.t;
  delivered : int;  (* output events; counts duplicate deliveries of copies *)
  completed : int;  (* distinct packets that reached the output at least once *)
  offered : int;
  ring_drops : int;
  nf_drops : int;
  unmatched : int;
  shed : int;  (* refused by the admission controller *)
  in_flight : int;  (* offered but unaccounted at end of run: still queued,
                       wedged at a merger, or lost to injected faults *)
  health : health;
  duration_ns : float;
  achieved_mpps : float;
}

let run ~make ~gen ~arrivals ~packets ?warmup ?(seed = 42L) ?stop () =
  if packets < 0 then invalid_arg "Harness.run: packets must be >= 0";
  (match arrivals with
  | Uniform r | Poisson r | Burst (r, _) when not (r > 0.0) ->
      invalid_arg "Harness.run: arrival rate must be positive"
  | Burst (_, k) when k < 1 -> invalid_arg "Harness.run: burst size must be >= 1"
  | _ -> ());
  let warmup = match warmup with Some w -> w | None -> packets / 10 in
  let engine = Engine.create () in
  let latency = Nfp_algo.Stats.create () in
  (* Injection timestamps indexed by pid (pids here are 0..packets-1);
     NaN marks "no sample pending" so duplicate deliveries of a copied
     packet count as delivered but sample latency only once. *)
  let ingress = Array.make (max packets 1) Float.nan in
  let delivered = ref 0 and completed = ref 0 in
  let output ~pid _pkt =
    incr delivered;
    let i = Int64.to_int pid in
    if i >= 0 && i < packets && not (Float.is_nan ingress.(i)) then begin
      incr completed;
      if i >= warmup then Nfp_algo.Stats.add latency (Engine.now engine -. ingress.(i));
      ingress.(i) <- Float.nan
    end
  in
  let system = make engine ~output in
  let prng = Nfp_algo.Prng.create ~seed in
  (* One arrival event, allocated once and rescheduled per packet; the
     interarrival gap is computed in place, so it reaches the engine
     unboxed. *)
  let next = ref 0 in
  let rec arrive () =
    let i = !next in
    if i < packets then begin
      next := i + 1;
      ingress.(i) <- Engine.now engine;
      system.inject ~pid:(Int64.of_int i) (gen i);
      let delay =
        match arrivals with
        | Uniform mpps -> 1000.0 /. mpps
        | Poisson mpps -> Nfp_algo.Prng.exponential prng ~mean:(1000.0 /. mpps)
        | Burst (mpps, k) ->
            (* k packets back to back, then a gap keeping the mean rate. *)
            if (i + 1) mod k = 0 then float_of_int k *. 1000.0 /. mpps else 0.0
        | Surge s ->
            (* The plan's rate is re-sampled at every arrival, so steps,
               spikes and ramps reshape the interarrival gaps as
               simulated time advances. *)
            1000.0 /. Fault.surge_rate s ~now_ns:(Engine.now engine)
      in
      Engine.schedule engine ~delay arrive
    end
  in
  Engine.schedule engine ~delay:0.0 arrive;
  (match stop with
  | None -> Engine.run engine
  | Some f ->
      (* Slicing changes nothing about event order, so a run that is not
         stopped is identical to an unsliced one; a stopped run simply
         truncates — callers that only test a predicate (e.g. "did any
         ring drop?") skip the rest of the simulation. *)
      let rec slices () =
        Engine.run engine ~max_events:4096;
        if Engine.pending engine > 0 && not (f system) then slices ()
      in
      slices ());
  let duration = Engine.now engine in
  let health = system.health () in
  let ring_drops = health.drops.ingress_rejected in
  let nf_drops = health.drops.nf_dropped in
  let unmatched = health.drops.no_match in
  let shed = health.drops.shed in
  (* Accounting must close: every offered packet is either completed
     (first delivery), counted by exactly one drop counter, shed by the
     admission controller, or still in the system / lost to faults
     (in_flight). A negative residual means a packet was double-counted
     — a dataplane bug, so fail loudly. *)
  let in_flight = packets - !completed - ring_drops - nf_drops - unmatched - shed in
  if in_flight < 0 then
    failwith
      (Printf.sprintf
         "Harness.run: accounting does not close: offered %d < completed %d + \
          ring_drops %d + nf_drops %d + unmatched %d + shed %d"
         packets !completed ring_drops nf_drops unmatched shed);
  {
    latency;
    delivered = !delivered;
    completed = !completed;
    offered = packets;
    ring_drops;
    nf_drops;
    unmatched;
    shed;
    in_flight;
    health;
    duration_ns = duration;
    achieved_mpps =
      (if duration > 0.0 then float_of_int !delivered /. duration *. 1000.0 else 0.0);
  }

(* ------------------------------------------------------------------ *)
(* Domain pool: independent simulations in parallel                    *)
(* ------------------------------------------------------------------ *)

(* Workers of a pool must not spawn nested pools of their own (that
   would oversubscribe the machine), so pool membership is recorded in
   domain-local storage and consulted by [default_domains]. *)
let in_pool : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let default_domains () =
  if Domain.DLS.get in_pool then 1
  else max 1 (min 8 (Domain.recommended_domain_count ()))

let parallel_runs ?domains thunks =
  let jobs = Array.of_list thunks in
  let n = Array.length jobs in
  let workers =
    let d = match domains with Some d -> max 1 d | None -> default_domains () in
    min d n
  in
  if workers <= 1 then List.map (fun f -> f ()) thunks
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let rec drain () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <- Some (jobs.(i) ());
        drain ()
      end
    in
    let worker () =
      let saved = Domain.DLS.get in_pool in
      Domain.DLS.set in_pool true;
      Fun.protect ~finally:(fun () -> Domain.DLS.set in_pool saved) drain
    in
    let spawned = List.init (workers - 1) (fun _ -> Domain.spawn worker) in
    (* A failing job's exception reaches the caller as itself, not
       wrapped by a second failure met while joining the other domains. *)
    (match worker () with
    | () -> List.iter Domain.join spawned
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        List.iter (fun d -> try Domain.join d with _ -> ()) spawned;
        Printexc.raise_with_backtrace e bt);
    Array.to_list
      (Array.map
         (function
           | Some r -> r
           | None -> failwith "Harness.parallel_runs: worker died before its job")
         results)
  end

let max_lossless_mpps ~make ~gen ~packets ?(lo = 0.01) ~hi ?(iterations = 12) ?domains
    () =
  if iterations < 0 then invalid_arg "Harness.max_lossless_mpps: iterations must be >= 0";
  let lossless rate =
    (* Only the existence of a drop matters, so the probe aborts at the
       first one instead of simulating the remaining packets. *)
    let r =
      run ~make ~gen ~arrivals:(Uniform rate) ~packets ~warmup:0
        ~stop:(fun s -> (s.health ()).drops.ingress_rejected > 0)
        ()
    in
    r.ring_drops = 0
  in
  let workers = match domains with Some d -> max 1 d | None -> default_domains () in
  if workers <= 1 then begin
    if lossless hi then hi
    else begin
      let lo = ref lo and hi = ref hi in
      for _ = 1 to iterations do
        let mid = (!lo +. !hi) /. 2.0 in
        if lossless mid then lo := mid else hi := mid
      done;
      !lo
    end
  end
  else begin
    (* Speculative bisection: probe every candidate midpoint of the next
       [depth] bisection levels in one parallel batch, then replay the
       sequential decision walk against the probed table. Midpoints are
       recomputed with the identical float expression, so the result is
       bit-identical to the sequential search at any worker count. *)
    let levels = if workers >= 7 then 3 else if workers >= 3 then 2 else 1 in
    let rec candidates lo hi depth acc =
      if depth = 0 then acc
      else
        let mid = (lo +. hi) /. 2.0 in
        candidates mid hi (depth - 1) (candidates lo mid (depth - 1) (mid :: acc))
    in
    let probe rates =
      parallel_runs ~domains:workers (List.map (fun r () -> (r, lossless r)) rates)
    in
    let walk table lo hi depth =
      let rec go lo hi k =
        if k = 0 then (lo, hi)
        else
          let mid = (lo +. hi) /. 2.0 in
          if List.assoc mid table then go mid hi (k - 1) else go lo mid (k - 1)
      in
      go lo hi depth
    in
    let rec rounds lo hi remaining =
      if remaining <= 0 then lo
      else begin
        let depth = min levels remaining in
        let table = probe (candidates lo hi depth []) in
        let lo, hi = walk table lo hi depth in
        rounds lo hi (remaining - depth)
      end
    in
    (* The bracketing [hi] probe rides along with the first batch. *)
    let depth0 = min levels iterations in
    let table0 = probe (hi :: candidates lo hi depth0 []) in
    if List.assoc hi table0 then hi
    else if iterations <= 0 then lo
    else begin
      let lo, hi = walk table0 lo hi depth0 in
      rounds lo hi (iterations - depth0)
    end
  end
