open Nfp_packet
open Nfp_core
open Runtime

(* Each config record is declared once, by the module that reads it;
   the deployment API re-exports them. *)
type config = Runtime.config
type fault_config = Watchdog.config
type recovery = Watchdog.recovery
type overload_config = Overload.config
type elastic_config = Elastic.config
type replica_report = Slot.report

let default_config = Runtime.default
let default_fault_config = Watchdog.default
let default_overload_config = Overload.default
let default_elastic_config = Elastic.default

(* Opt-in, like fault/overload/elastic: without a links config no
   channel is constructed and every port is a direct [Server.offer]. *)
type links_config = {
  link_plan : Nfp_sim.Fault.link_plan;
  reliable : bool;
  ack_interval_ns : float;
  rto_ns : float;
}

let default_links_config =
  {
    link_plan = Nfp_sim.Fault.no_links;
    reliable = true;
    ack_interval_ns = 1_000.0;
    rto_ns = 25_000.0;
  }

type core_stats = {
  core : string;
  busy_ns : float;
  stalled_ns : float;
  processed : int;
  rejected : int;
  queue : int;
}

let stats_of_server (s : _ Nfp_sim.Server.t) =
  {
    core = Nfp_sim.Server.name s;
    busy_ns = Nfp_sim.Server.busy_ns s;
    stalled_ns = Nfp_sim.Server.stalled_ns s;
    processed = Nfp_sim.Server.processed s;
    rejected = Nfp_sim.Server.rejected s;
    queue = Nfp_sim.Server.queue_length s;
  }

(* Per-core utilization in a stable order: classifier, NF cores by
   name, mergers, agent. *)
let sampler_of classifier nf_cores mergers agent () =
  stats_of_server classifier
  :: (List.map stats_of_server nf_cores |> List.sort (fun a b -> compare a.core b.core))
  @ Array.to_list (Array.map stats_of_server mergers)
  @ Option.to_list (Option.map stats_of_server agent)

(* Every plan's NF implementations, resolved up front as
   (MID, entry, NF) in table order, then plan order: the order NF cores
   are built in, and so split the jitter PRNG in. *)
let nf_impls graphs =
  List.concat
    (List.mapi
       (fun i (_, (plan : Tables.plan), nfs) ->
         List.map
           (fun (e : Tables.nf_entry) ->
             match nfs e.nf with
             | nf -> (i + 1, e, nf)
             | exception _ -> invalid_arg (Printf.sprintf "System.make: no NF named %S" e.nf))
           plan.nf_entries)
       graphs)

(* The cost model's checks, as top-level functions: a closure per
   field, or a list of them, would allocate on every deployment. *)
let cost_fail who field what =
  invalid_arg (Printf.sprintf "System.%s: cost %s %s" who field what)

let cost_cycles who field cycles = if cycles < 0 then cost_fail who field "must be >= 0"
let cost_time who field v =
  if not (v >= 0.0) then cost_fail who field "must be >= 0";
  if v = Float.infinity then cost_fail who field "must be finite"

let check_cost ~who (c : Nfp_sim.Cost.t) =
  if not (c.ghz > 0.0 && Float.is_finite c.ghz) then
    cost_fail who "ghz" "must be positive and finite";
  cost_cycles who "ring_enqueue" c.ring_enqueue;
  cost_cycles who "ring_dequeue" c.ring_dequeue;
  cost_cycles who "classifier" c.classifier;
  cost_cycles who "classify_hit" c.classify_hit;
  cost_cycles who "classify_group" c.classify_group;
  cost_cycles who "classify_rule" c.classify_rule;
  cost_cycles who "switch_forward" c.switch_forward;
  cost_cycles who "switch_per_hop" c.switch_per_hop;
  cost_cycles who "header_copy" c.header_copy;
  cost_cycles who "copy_base" c.copy_base;
  cost_cycles who "merge_delivery" c.merge_delivery;
  cost_cycles who "merge_op" c.merge_op;
  cost_cycles who "merger_agent" c.merger_agent;
  cost_cycles who "nf_runtime" c.nf_runtime;
  cost_cycles who "rtc_call" c.rtc_call;
  cost_cycles who "burst_saving" c.burst_saving;
  cost_cycles who "log_append" c.log_append;
  cost_cycles who "checkpoint_cycles" c.checkpoint_cycles;
  cost_cycles who "replay_cycles" c.replay_cycles;
  cost_cycles who "ack_cycles" c.ack_cycles;
  cost_cycles who "retransmit_cycles" c.retransmit_cycles;
  cost_time who "wire_ns" c.wire_ns;
  cost_time who "restart_ns" c.restart_ns;
  cost_time who "copy_per_byte" c.copy_per_byte

(* Every build-time check, run before anything is built: a bad
   configuration is an [Invalid_argument] at deployment, never a failure
   mid-run. Each period is tested as [not (x > 0.0)] or
   [not (x >= 0.0)], so a NaN is rejected too, and then checked finite:
   an event parked at +inf either ends the run there or keeps it from
   ever ending. [who] names the builder in the message; [links] arrives
   normalized (see [deploy]). *)
let validate ~who ~config ?fault ?overload ?elastic ?links graphs =
  let fail msg = invalid_arg (Printf.sprintf "System.%s: %s" who msg) in
  let finite what x = if x = Float.infinity then fail (what ^ " must be finite") in
  if graphs = [] then fail "no service graphs";
  if not (0.0 <= config.jitter && config.jitter < 1.0) then
    fail "jitter must satisfy 0 <= jitter < 1";
  if config.mergers < 1 then fail "mergers must be >= 1";
  if config.ring_capacity < 1 then fail "ring_capacity must be >= 1";
  if config.replicas < 1 then fail "replicas must be >= 1";
  if config.cost.batch < 1 then fail "batch must be >= 1";
  check_cost ~who config.cost;
  (match fault with
  | Some (fc : fault_config) ->
      if not (fc.watchdog_interval_ns > 0.0 && fc.watchdog_deadline_ns > 0.0) then
        fail "fault watchdog interval and deadline must be positive";
      finite "fault watchdog interval and deadline"
        (Float.max fc.watchdog_interval_ns fc.watchdog_deadline_ns);
      if not (fc.restart_ns >= 0.0) then fail "fault restart_ns must be >= 0";
      finite "fault restart_ns" fc.restart_ns;
      if not (fc.merge_timeout_ns >= 0.0) then fail "fault merge_timeout_ns must be >= 0";
      finite "fault merge_timeout_ns" fc.merge_timeout_ns;
      if not (fc.checkpoint_interval_ns >= 0.0) then
        fail "fault checkpoint_interval_ns must be >= 0";
      if fc.log_capacity < 1 then fail "fault log_capacity must be >= 1";
      if fc.breaker_threshold < 0 then fail "fault breaker_threshold must be >= 0";
      if fc.dedup_capacity < 2 then fail "fault dedup_capacity must be >= 2"
  | None -> ());
  (match overload with
  | Some (oc : overload_config) ->
      if
        not
          (0 <= oc.low_watermark
          && oc.low_watermark < oc.high_watermark
          && oc.high_watermark <= config.ring_capacity)
      then fail "overload watermarks must satisfy 0 <= low < high <= ring_capacity"
  | None -> ());
  (match elastic with
  | Some (ec : elastic_config) ->
      if ec.min_replicas < 1 || ec.max_replicas < ec.min_replicas then
        fail "elastic replica bounds must satisfy 1 <= min <= max";
      if ec.buckets < ec.max_replicas then fail "elastic buckets must be >= max_replicas";
      if
        not
          (ec.control_interval_ns > 0.0 && ec.transfer_ns >= 0.0
          && ec.migration_deadline_ns > 0.0
          && ec.commit_retry_ns > 0.0 && ec.cooldown_ns >= 0.0)
      then fail "elastic periods must be positive";
      finite "elastic periods"
        (Float.max
           (Float.max ec.control_interval_ns ec.transfer_ns)
           (Float.max ec.migration_deadline_ns (Float.max ec.commit_retry_ns ec.cooldown_ns)));
      if not (ec.scale_in_occupancy < ec.scale_out_occupancy) then
        fail "elastic occupancy thresholds must satisfy in < out";
      if ec.migration_batch < 1 then fail "elastic migration_batch must be >= 1"
  | None -> ());
  match links with
  | Some (lc : links_config) ->
      if not (lc.ack_interval_ns > 0.0 && lc.rto_ns > 0.0) then
        fail "links periods must be positive";
      finite "links periods" (Float.max lc.ack_interval_ns lc.rto_ns)
  | None -> ()

(* Classifier front end: CT match, then [admit ~pid ~mid pkt] for a
   packet a rule matched; an unmatched packet is counted in
   [drops.no_match] and discarded. [`Cached] resolves the flow through
   the two-level classifier, [`Scan] by the linear first-match
   reference. Either charges its structural cycles (zero under the
   default cost model), plus half the wire delay, as delay ahead of
   [admit]. Returns the inject function and the cache counters.

   A classified packet travels on an engine line, so injecting one
   allocates no closure. A line's delay is constant and the charge
   depends on the lookup's probe count (rules examined under [`Scan]),
   so there is one line per distinct charge, filled lazily and indexed
   by that count. *)
let front_end ?(classify = `Cached) ~engine ~(cost : Nfp_sim.Cost.t)
    ~(drops : Nfp_sim.Harness.drops) table admit =
  let ct = Array.map (fun (m, _, _) -> m) table in
  let clf = Nfp_packet.Classifier.create ct in
  let arrive pid pkt mid =
    if mid = 0 then drops.no_match <- drops.no_match + 1 else admit ~pid ~mid pkt
  in
  let by_charge = ref [] in
  let line_of_charge cycles =
    match List.assoc_opt cycles !by_charge with
    | Some line -> line
    | None ->
        let delay = (cost.wire_ns /. 2.0) +. Nfp_sim.Cost.ns_of_cycles cost cycles in
        let line = Nfp_sim.Engine.line engine ~delay arrive in
        by_charge := (cycles, line) :: !by_charge;
        line
  in
  (* Probe counts run from -1 (a cache hit) to the group count, rules
     examined from 0 to the rule count. *)
  let lines = Array.make (Array.length ct + 2) None in
  let line count cycles =
    match lines.(count) with
    | Some line -> line
    | None ->
        let line = line_of_charge cycles in
        lines.(count) <- Some line;
        line
  in
  (* The [`Cached] arm reads the 5-tuple straight from packet bytes and
     is allocation-free on a microflow hit; [`Scan] is the reference
     path and keeps its boxed forms. *)
  let inject ~pid pkt =
    match classify with
    | `Cached ->
        let mid = Nfp_packet.Classifier.classify_packet clf pkt in
        let probed = Nfp_packet.Classifier.last_probes clf in
        let cycles =
          if probed < 0 then cost.classify_hit
          else cost.classify_hit + (cost.classify_group * probed)
        in
        Nfp_sim.Engine.send (line (probed + 1) cycles) pid pkt mid
    | `Scan ->
        let result, examined = Nfp_packet.Classifier.scan ct (Packet.flow pkt) in
        let mid = match result with Some m -> m | None -> 0 in
        Nfp_sim.Engine.send (line examined (cost.classify_rule * examined)) pid pkt mid
  in
  let counters () =
    {
      Nfp_sim.Harness.hits = Nfp_packet.Classifier.cache_hits clf;
      misses = Nfp_packet.Classifier.cache_misses clf;
      evictions = Nfp_packet.Classifier.cache_evictions clf;
    }
  in
  (inject, counters)

let interpretive ?(config = default_config) ~graphs engine ~output =
  validate ~who:"interpretive" ~config graphs;
  if config.replicas > 1 then invalid_arg "System.interpretive: replicas must be 1";
  let table = Array.of_list graphs in
  let nf_impls = nf_impls graphs in
  let health = Nfp_sim.Harness.fresh_health () in
  let admit = Interpretive.build ~config ~drops:health.drops table nf_impls engine ~output in
  let inject, counters = front_end ~engine ~cost:config.cost ~drops:health.drops table admit in
  {
    Nfp_sim.Harness.inject;
    classifier = counters;
    health = (fun () -> Nfp_sim.Harness.copy_health health);
  }

(* The health snapshot: a copy of the ledger, with the fields computed
   at read time filled in — the core list (one entry per probe, in
   registration order), the per-server sums and the gauges. *)
let snapshot rt (controller : Elastic.t) probes () =
  let cores =
    Array.to_list
      (Array.mapi
         (fun i (Watchdog.Probe { server = s; _ }) ->
           let name = Nfp_sim.Server.name s in
           {
             Nfp_sim.Harness.core = name;
             state =
               (match Watchdog.state rt.watchdog i with
               | Some s -> s
               | None when Nfp_sim.Server.is_down s -> "down"
               | None -> Option.value (controller.core_state name) ~default:"up");
             processed = Nfp_sim.Server.processed s;
             queue = Nfp_sim.Server.queue_length s;
           })
         probes)
  in
  let sum f = Array.fold_left (fun acc p -> acc + f p) 0 probes in
  let h = Nfp_sim.Harness.copy_health rt.health in
  {
    h with
    cores;
    crashes = sum (fun (Watchdog.Probe p) -> Nfp_sim.Server.crashes p.server);
    drops =
      {
        h.drops with
        (* [ingress_rejected] counts exactly the NIC-boundary offer
           refusals (the only [offer] sites outside a server are in
           [inject]); every other refusal a server ring recorded is a
           backpressure retry event, not a loss. *)
        internal_rejected =
          max 0
            (sum (fun (Watchdog.Probe p) -> Nfp_sim.Server.rejected p.server)
            - h.drops.ingress_rejected);
        fault_dropped = sum (fun (Watchdog.Probe p) -> Nfp_sim.Server.fault_drops p.server);
        flush_lost = sum (fun (Watchdog.Probe p) -> Nfp_sim.Server.flushed p.server);
        shed_by_class = Overload.shed_by_class rt.overload;
      };
    pressure_episodes = sum (fun (Watchdog.Probe p) -> Nfp_sim.Server.pressure_episodes p.server);
    migrating = controller.migrating ();
    dedup_entries = Dedup.entries rt.dedup;
  }

(* The classifier core: runs the matched graph's classifier program. *)
let classifier_core rt (progs : Program.cprog array) =
  let cost = rt.config.cost in
  let service_ns (ctx : Context.t) (cell : Nfp_sim.Server.cell) =
    let prog = progs.(Context.mid ctx - 1) in
    cell.ns <-
      Nfp_sim.Cost.ns_of_cycles cost
        (cost.classifier + prog.p_static + Program.dyn_cycles ~cost prog ctx)
  in
  let execute ctx = Program.exec_prog progs.(Context.mid ctx - 1) ctx in
  core rt ~name:"classifier" ~prng:rt.prng ~service_ns ~execute ~emit:rt.emit ()

(* A packet graph [mid] matched enters: refused by the admission
   controller (counted, and gone before it can cost a ring slot or a
   core cycle), run on the twin chain while the graph is degraded
   (tagged as the classifier would), or handed to the classifier core
   in a context with room for exactly the versions its plan uses. *)
let admit rt ~versions ~twins classifier ~pid ~mid pkt =
  let drops = rt.health.drops in
  if not (Overload.shed rt.overload mid) then
    match twins.(mid - 1) with
    | Some head when Watchdog.degraded rt.watchdog mid ->
        Packet.stamp pkt ~mid ~pid ~version:1;
        if not (Nfp_sim.Server.offer head (pid, pkt)) then
          drops.ingress_rejected <- drops.ingress_rejected + 1
    | _ ->
        let ctx = Context.create ~pid ~mid ~versions:versions.(mid - 1) pkt in
        if not (Nfp_sim.Server.offer classifier ctx) then
          drops.ingress_rejected <- drops.ingress_rejected + 1

let deploy ~who ?classify ?(config = default_config) ?fault ?overload ?elastic ?links ?stats
    ?replication ~graphs engine ~output =
  (* A links config with an empty plan and no reliability layer is
     normalized away entirely — nothing to perturb, nothing to arm
     (bit-identity). *)
  let links =
    match links with
    | Some (lc : links_config) when Nfp_sim.Fault.links_empty lc.link_plan && not lc.reliable ->
        None
    | other -> other
  in
  validate ~who ~config ?fault ?overload ?elastic ?links graphs;
  let cost = config.cost in
  (* MIDs are 1-based positions in the classification table. *)
  let table = Array.of_list graphs in
  (* Shard only NFs the profile analysis clears within their graph:
     {!Replication.shardable} additionally vetoes any NF with an
     order-sensitive (Sequential-strategy) NF downstream, since sharding
     changes the cross-flow arrival order those cores see. *)
  let shardable mid name =
    let _, plan, nfs = table.(mid - 1) in
    Replication.shardable ~plan ~nf_of:nfs name
  in
  let nf_impls = nf_impls graphs in
  let plans = Array.map (fun (_, plan, _) -> plan) table in
  let nf_progs, classifier_progs = Program.compile ~cost plans nf_impls in
  let versions = Array.map (fun (p : Tables.plan) -> p.version_count) plans in
  (* The exactly-once filters arm wherever a packet can arrive twice: a
     replayed or timeout-completed branch (a non-empty fault plan), a
     re-homed packet whose original emission is in flight (elastic), a
     retransmission or fabric duplicate (links). On a duplicate-free run
     they never fire, so the trace is untouched. *)
  let dedup =
    Dedup.filters
      ~armed:
        ((match fault with
         | Some (fc : fault_config) -> not (Nfp_sim.Fault.is_empty fc.plan)
         | None -> false)
        || elastic <> None || links <> None)
      ~capacity:
        (match fault with Some fc -> fc.dedup_capacity | None -> Watchdog.default.dedup_capacity)
  in
  (* The overload controller and the watchdog exist before the cores:
     their watermarks arm every ring, and each NF replica takes a
     degrade switch and a lossless-recovery cell from them. Both start
     once every core exists (below). *)
  let health = Nfp_sim.Harness.fresh_health () in
  let overload =
    Overload.create ~engine ?config:overload
      ~priorities:(Array.map (fun (_, (p : Tables.plan), _) -> p.Tables.priority) table)
      ~health ()
  in
  let watchdog = Watchdog.create ~engine ~cost ~graphs:(Array.length table) ~health ?fault () in
  let rec rt =
    {
      engine;
      config;
      fault;
      elastic;
      egress =
        Nfp_sim.Engine.line engine ~delay:(cost.wire_ns /. 2.0) (fun pid pkt _ -> output ~pid pkt);
      dedup;
      delivered = Dedup.filter dedup;
      merge_timeout_ns = (match fault with Some fc -> fc.merge_timeout_ns | None -> 0.0);
      watchdog;
      overload;
      prng = Nfp_algo.Prng.create ~seed:config.seed;
      (* Standby replicas (indices past the static count) draw jitter
         from an independent stream, like the degrade twins: building
         them must not shift the main PRNG and perturb a never-scaling
         trace. *)
      elastic_prng = Nfp_algo.Prng.create ~seed:(Int64.logxor config.seed 0x31a5_71c5L);
      link_plan = Option.map (fun (lc : links_config) -> lc.link_plan) links;
      reliability =
        (match links with
        | Some (lc : links_config) when lc.reliable ->
            Some
              {
                Channel.ack_interval_ns = lc.ack_interval_ns;
                rto_ns = lc.rto_ns;
                ack_ns = Nfp_sim.Cost.ns_of_cycles cost cost.ack_cycles;
                retransmit_ns = Nfp_sim.Cost.ns_of_cycles cost cost.retransmit_cycles;
              }
        | _ -> None);
      health;
      probes = [];
      emit = (fun ctx send -> Slot.emit_send rt ctx send);
      slots = [||];
      merge_port = (fun _ -> false);
      deliver_port = (fun _ -> false);
    }
  in
  rt.deliver_port <- Delivery.delivery_port rt;
  rt.slots <- Array.of_list (List.mapi (Slot.build_slot rt ~shardable nf_progs) nf_impls);
  let controller =
    match elastic with
    | None -> Elastic.off
    | Some ec ->
        Elastic.create ~engine ?fault ec ~ring_capacity:config.ring_capacity
          ~busy:(fun () ->
            List.exists
              (fun (Watchdog.Probe p) ->
                Nfp_sim.Server.queue_length p.server > 0 || Nfp_sim.Server.is_busy p.server)
              rt.probes)
          ~health
          (List.concat_map (Slot.elastic_slot rt) (Array.to_list rt.slots))
  in
  let merger_cores, agent_core, merge_port = Merger.build rt ~instances:config.mergers in
  rt.merge_port <- merge_port;
  let classifier = classifier_core rt classifier_progs in
  Option.iter
    (fun cell ->
      cell :=
        sampler_of classifier
          (List.concat_map (fun s -> Array.to_list s.s_servers) (Array.to_list rt.slots))
          merger_cores agent_core)
    stats;
  (* Replication report: one entry per NF slot. Call it after a run
     drains — the digest reads live NF state. *)
  Option.iter
    (fun cell -> cell := fun () -> Array.to_list (Array.map Slot.replica_report rt.slots))
    replication;
  let twins = Twins.chains rt nf_impls table in
  (* Every core has registered its probe: the watchdog starts watching,
     and the shed ladder polls whether any core's watermark latch is
     raised. *)
  let probes = Array.of_list (List.rev rt.probes) in
  Watchdog.watch watchdog probes;
  Overload.watch overload ~pressured:(fun () ->
      Array.exists (fun (Watchdog.Probe p) -> Nfp_sim.Server.pressured p.server) probes);
  let front, counters =
    front_end ?classify ~engine ~cost ~drops:health.drops table (fun ~pid ~mid pkt ->
        admit rt ~versions ~twins classifier ~pid ~mid pkt)
  in
  {
    Nfp_sim.Harness.inject =
      (fun ~pid pkt ->
        Watchdog.kick watchdog;
        Elastic.kick controller;
        front ~pid pkt);
    classifier = counters;
    health = snapshot rt controller probes;
  }

(* [make] and [make_multi] each take only the options that some caller
   passes, and each names itself in the messages of [validate]. *)
let make_multi ?classify ?config ?fault ?overload ?links ?stats ~graphs engine ~output =
  deploy ~who:"make_multi" ?classify ?config ?fault ?overload ?links ?stats ~graphs engine
    ~output

let make ?config ?fault ?overload ?elastic ?links ?stats ?replication ~plan ~nfs engine
    ~output =
  deploy ~who:"make" ?config ?fault ?overload ?elastic ?links ?stats ?replication
    ~graphs:[ (Flow_match.any, plan, nfs) ]
    engine ~output
