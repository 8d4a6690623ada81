open Nfp_packet
open Nfp_core

let log_src = Logs.Src.create "nfp.system" ~doc:"NFP dataplane"

module Log = (val Logs.src_log log_src)

type config = {
  cost : Nfp_sim.Cost.t;
  ring_capacity : int;
  mergers : int;
  jitter : float;
  seed : int64;
  replicas : int;
}

let default_config =
  {
    cost = Nfp_sim.Cost.default;
    ring_capacity = 128;
    mergers = 1;
    jitter = 0.05;
    seed = 7L;
    replicas = 1;
  }

type overload_config = Overload.config = {
  high_watermark : int;
  low_watermark : int;
  degrade_enabled : bool;
}

let default_overload_config = Overload.default

type elastic_config = Elastic.config = {
  min_replicas : int;
  max_replicas : int;
  buckets : int;
  control_interval_ns : float;
  scale_out_occupancy : float;
  scale_in_occupancy : float;
  migration_batch : int;
  transfer_ns : float;
  migration_deadline_ns : float;
  commit_retry_ns : float;
  cooldown_ns : float;
}

let default_elastic_config = Elastic.default

(* ------------------------------------------------------------------ *)
(* Lossy fabric: link fault domain + opt-in reliable channels.         *)
(* ------------------------------------------------------------------ *)

(* Opt-in, like fault/overload/elastic: a deployment built without a
   links config is bit-for-bit the pre-links system — no channel is
   constructed, every port is a direct [Server.offer]. With one, every
   inter-core edge (classifier->NF, NF->NF, branch->merger,
   merger->delivery, migration transfers) crosses a
   [Channel] named after its destination port ("link:mid1:NAT",
   "link:merger#0", "link:delivery", "link:migrate:mid1:NAT@2"), so a
   link plan can perturb any edge family by name or prefix pattern.
   [reliable = false] models the raw fabric (drops lose packets into
   the ledger's in-flight residual, duplicates deliver twice); [true]
   arms the ARQ layer that makes delivery lossless over the lossy
   fabric — the differential suite holds a lossy reliable run to the
   same delivery multisets and state digests as the lossless run. *)
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

type recovery = Watchdog.recovery = Restart | Bypass | Degrade

type fault_config = Watchdog.config = {
  plan : Nfp_sim.Fault.plan;
  watchdog_interval_ns : float;
  watchdog_deadline_ns : float;
  merge_timeout_ns : float;
  restart_ns : float;
  recovery_of : string -> recovery;
  checkpoint_interval_ns : float;
  log_capacity : int;
  breaker_threshold : int;
  dedup_capacity : int;
}

let default_fault_config = Watchdog.default

(* Bounded packet-identity memory with generational pruning: two
   tables, [g_cur] receiving inserts and [g_prev] holding the previous
   generation; membership consults both. When [g_cur] reaches half the
   capacity the generations rotate and the oldest half is dropped, so
   the memory never holds more than [capacity] entries yet any entry
   survives at least [capacity / 2] subsequent insertions — the dedup
   window a late retransmission or replayed branch must fit inside.
   Keys are two int limbs: the 40-bit PID as a native int, and the
   version (delivery) or the packed (MID, merge point) pair (merger).

   A generation is an insert-only open-addressed key set, the limbs of
   a slot side by side in one int array, cleared whole on rotation:
   there is no value array and no removal. Its slots follow the PID: a
   key's probe starts at slot [2 * pid + (b land 1)], so consecutive
   PIDs land in adjacent slots and a packet's probes hit the lines the
   previous packets warmed. The first [near] slots from there are
   probed in order; past them the probe spills to a sequence hashed
   from both limbs, with an odd stride, so PIDs that share a start
   (strided by a power of two, or more than two keys to a PID) spread
   over the table instead of piling into one probe run. No lookup or
   insert allocates. *)
module Dedup = struct
  let empty = -1

  type table = { mutable keys : int array; mutable mask : int; mutable count : int }

  type t = { half : int; mutable g_cur : table; mutable g_prev : table }

  let merge_limb ~mid ~merge_id = (mid lsl 32) lor merge_id

  let near = 4

  let table () = { keys = Array.make 128 empty; mask = 63; count = 0 }

  let create capacity = { half = max 1 (capacity / 2); g_cur = table (); g_prev = table () }

  (* The probe loops are top-level functions: a local [let rec] would
     allocate its closure on every call. Each returns the slot holding
     (a, b), or the free slot that ends its probe sequence, where (a, b)
     goes; a generation's load stays at most 1/2, so there is one. *)
  let rec spill t a b s step =
    let k = t.keys.(2 * s) in
    if k = empty || (k = a && t.keys.((2 * s) + 1) = b) then s
    else spill t a b ((s + step) land t.mask) step

  let rec probe t a b s left =
    let k = t.keys.(2 * s) in
    if k = empty || (k = a && t.keys.((2 * s) + 1) = b) then s
    else if left > 1 then probe t a b ((s + 1) land t.mask) (left - 1)
    else
      let h = (a * 0x9e3779b97f4a7c1) lxor (b * 0x3c6ef372fe94f82b) in
      let h = (h lxor (h lsr 32)) * 0x2545f4914f6cdd1d in
      spill t a b (h land t.mask) ((h lsr 32) lor 1)

  let slot t a b = probe t a b (((2 * a) + (b land 1)) land t.mask) near

  let holds t a b = t.keys.(2 * slot t a b) <> empty

  let put t s a b =
    t.keys.(2 * s) <- a;
    t.keys.((2 * s) + 1) <- b;
    t.count <- t.count + 1

  (* Doubles the table and re-inserts every key; the new key then
     takes a slot of the grown table. *)
  let grow t =
    let keys = t.keys in
    t.keys <- Array.make (2 * Array.length keys) empty;
    t.mask <- (2 * t.mask) + 1;
    t.count <- 0;
    for s = 0 to (Array.length keys / 2) - 1 do
      let a = keys.(2 * s) in
      if a <> empty then put t (slot t a keys.((2 * s) + 1)) a keys.((2 * s) + 1)
    done

  let clear t =
    if t.count > 0 then begin
      Array.fill t.keys 0 (Array.length t.keys) empty;
      t.count <- 0
    end

  let mem t ~a ~b = holds t.g_cur a b || holds t.g_prev a b

  (* The slot [g_cur]'s probe ends at is where the key goes, unless a
     rotation or growth moves it first. *)
  let add t ~a ~b =
    let s = slot t.g_cur a b in
    if t.g_cur.keys.(2 * s) = empty && not (holds t.g_prev a b) then begin
      if t.g_cur.count >= t.half then begin
        let retired = t.g_prev in
        clear retired;
        t.g_prev <- t.g_cur;
        t.g_cur <- retired;
        put retired (slot retired a b) a b
      end
      else if 2 * (t.g_cur.count + 1) > t.g_cur.mask + 1 then begin
        grow t.g_cur;
        put t.g_cur (slot t.g_cur a b) a b
      end
      else put t.g_cur s a b
    end

  let length t = t.g_cur.count + t.g_prev.count
end

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

(* What the replication analysis decided for one NF of the deployment,
   plus per-replica observables: the differential suite checks the
   merged digest against an unreplicated run's, and the ledger tests
   check the per-replica processed counts. *)
type replica_report = {
  rr_mid : int;
  rr_nf : string;
  rr_kind : string;
  rr_strategy : Replication.strategy;
  rr_replicas : int;
  rr_processed : int list;  (* per replica, in shard order *)
  rr_merged_digest : int;
      (* replicas = 1: the instance digest. Shared_nothing: all replica
         snapshots merged, restored into a fresh scratch instance, and
         digested — equal to a sequential run's digest when the merge
         is faithful. Replicated_readonly: replica 0's digest (all
         replicas are identical by construction). *)
}

(* ------------------------------------------------------------------ *)
(* Shared by both dataplanes: NF resolution, build-time checks, the    *)
(* one core constructor and the classifier front end.                  *)
(* ------------------------------------------------------------------ *)

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

let packet_bytes ctx version =
  let p = Context.slot ctx version in
  if p == Packet.absent then 1500 else Packet.wire_length p

(* The merger instance a PID hashes to. *)
let slot_of_pid pid instances =
  Int64.to_int
    (Int64.rem
       (Int64.logand (Nfp_algo.Hashing.mix64 pid) Int64.max_int)
       (Int64.of_int (max 1 instances)))

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

(* The one core constructor. Every core splits its jitter stream off
   [prng] and gets the same ring, breath size and per-breath
   amortization ([cost.batch = 1] restores per-packet execution exactly,
   so the interpretive/compiled differential is undisturbed at any
   size), the overload watermarks, and the fault stream the plan names
   for it. Without a fault config that is [None], and
   [Server.create ?fault:None] is exactly the pre-fault server. *)
let new_core ~engine ~config ?watermarks ?fault ~name ~prng ~service_ns ~execute ~emit () =
  let cost = config.cost in
  Nfp_sim.Server.create ~engine ~name ~ring_capacity:config.ring_capacity
    ~batch:cost.batch
    ~burst_saving_ns:(Nfp_sim.Cost.ns_of_cycles cost cost.burst_saving)
    ~jitter:(config.jitter, Nfp_algo.Prng.split prng)
    ?watermarks
    ?fault:(Option.bind fault (fun (fc : fault_config) -> Nfp_sim.Fault.for_core fc.plan name))
    ~service_ns ~execute ~emit ()

(* An NF that raises must not take the dataplane down: the packet counts
   as dropped and the fault is logged. *)
let run_nf ~who process ~pid pkt =
  try process pkt
  with exn ->
    Log.warn (fun m ->
        m "NF %s crashed on packet %Ld: %s" who pid (Printexc.to_string exn));
    Nfp_nf.Nf.Dropped

(* Classifier front end: CT match, then [admit ~pid ~mid pkt] for a
   packet a rule matched. Unmatched packets are discarded (no service
   graph owns them) and counted in [drops.no_match], separately from NF
   drops. [`Cached] resolves the flow through the two-level classifier
   (microflow cache over the tuple-space matcher); [`Scan] is the linear
   first-match reference. Either charges its structural cycles (zero
   under the default cost model), plus half the wire delay, as delay
   ahead of [admit]. Returns the inject function and the cache counters.

   A classified packet travels on an engine line, so injecting one
   allocates no closure. A line's delay is constant, and the charge
   depends on the lookup's probe count (rules examined under [`Scan]),
   so there is one line per distinct charge, found through [lines],
   filled lazily and indexed by that count; under the default cost
   model every count shares the one zero-charge line. *)
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

(* ------------------------------------------------------------------ *)
(* The interpretive reference walks the plan's tables per packet. It   *)
(* is kept as the executable semantics of the compiled dataplane; the  *)
(* differential test in test/test_fastpath.ml holds the two to         *)
(* packet-for-packet agreement.                                        *)
(* ------------------------------------------------------------------ *)

type delivery = {
  ctx : Context.t;
  merge_id : int;
  deliverer : Tables.deliverer;
  version : int;
  nil : bool;
}

type at_entry = { mutable received : int; mutable nil_from : Tables.deliverer list }

let interpretive ?(config = default_config) ~graphs engine ~output =
  validate ~who:"interpretive" ~config graphs;
  if config.replicas > 1 then invalid_arg "System.interpretive: replicas must be 1";
  let cost = config.cost in
  let table = Array.of_list graphs in
  let plan_of_mid mid : Tables.plan =
    let _, p, _ = table.(mid - 1) in
    p
  in
  let nf_impls = nf_impls graphs in
  let health = Nfp_sim.Harness.fresh_health () in
  let drops = health.drops in
  (* Cores split the jitter PRNG in build order: NF cores in [nf_impls]
     order, mergers, the agent, the classifier. [make_multi] builds in
     the same order, which is what makes the two traces identical. *)
  let prng = Nfp_algo.Prng.create ~seed:config.seed in
  let core ~name ~service_ns ~execute =
    new_core ~engine ~config ~name ~prng ~service_ns ~execute ~emit:Nfp_sim.Server.call ()
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
                  (cost.copy_per_byte *. float_of_int (packet_bytes ctx src_version))
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
        Nfp_sim.Server.offer
          !merger_cores.(slot_of_pid (Context.pid d.ctx) (Array.length !merger_cores))
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
            (* A crashing NF must not take the dataplane down: the
               packet is treated as dropped (with a nil where a merger
               expects this branch) and the fault is logged. *)
            let verdict =
              try nf.process pkt
              with exn ->
                Log.warn (fun m ->
                    m "NF %s crashed on packet %Ld: %s" entry.nf (Context.pid ctx)
                      (Printexc.to_string exn));
                Nfp_nf.Nf.Dropped
            in
            match verdict with
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
      let i = slot_of_pid (Context.pid d.ctx) (Array.length instances) in
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
  let inject, counters =
    front_end ~engine ~cost ~drops table (fun ~pid ~mid pkt ->
        let ctx = Context.create ~pid ~mid ~versions:(plan_of_mid mid).version_count pkt in
        if not (Nfp_sim.Server.offer classifier ctx) then
          drops.ingress_rejected <- drops.ingress_rejected + 1)
  in
  {
    Nfp_sim.Harness.inject;
    classifier = counters;
    health = (fun () -> Nfp_sim.Harness.copy_health health);
  }

(* ------------------------------------------------------------------ *)
(* Compiled dataplane: the plan is translated once, at deployment     *)
(* time, into a preresolved runtime program — merge specs in arrays    *)
(* indexed by merge id, NF and merger targets resolved to direct       *)
(* server slots, static cycle costs folded into one constant (only the *)
(* per-byte full-copy term stays dynamic), and emissions as arrays     *)
(* walked by a cursor instead of per-packet closure lists.             *)
(* ------------------------------------------------------------------ *)

type ccopy = { c_src : int; c_dst : int; c_full : bool }

type csend =
  | S_nf of int  (* slot in the dense NF-server array *)
  | S_merge of { merge : cmerge; branch : int; nil : bool }
  | S_deliver of int  (* packet version to emit *)

and cprog = {
  p_copies : ccopy array;
  p_sends : csend array;
  p_static : int;  (* constant cycles of the action list *)
  p_full_srcs : int array;  (* src versions of full copies (dynamic per-byte term) *)
}

and cmerge = {
  m_mid : int;
  m_id : int;
  m_spec : Tables.merge_spec;  (* compile-time only: branch resolution *)
  m_expected : int;
  m_versions : int array;  (* per-branch packet version *)
  m_result_version : int;
  m_ops : Merge_op.t array;
  m_drop_any : bool;
  m_winner : int;  (* branch index for `Priority_to; -1 when unresolved *)
  mutable m_next : cprog;
  mutable m_nil_sends : csend array;  (* upward nil propagation, precompiled *)
  mutable m_completion_static : int;  (* |ops|*merge_op + m_next.p_static *)
}

type cdelivery = { d_ctx : Context.t; d_merge : cmerge; d_branch : int; d_nil : bool }

type cat_entry = {
  mutable c_received : int;
  mutable c_nil_mask : int;
  mutable c_arrived_mask : int;  (* branches seen, for merger-timeout completion *)
}

(* One NF of the compiled deployment, built in one pass: its replicas
   (index 0 is the historical single instance, further indices are RSS
   shards added by the replicas knob or elastic standbys), their rings
   and inbound links, the action program, and the routing state the
   send sites consult per packet. *)
type slot = {
  s_mid : int;
  s_entry : Tables.nf_entry;  (* [version]: the packet version the NF reads *)
  s_prog : cprog;
  s_servers : (Context.t, csend) Nfp_sim.Server.t array;
  s_nfs : Nfp_nf.Nf.t array;
  s_cells : Watchdog.cell array;
  s_links : Context.t Channel.t option array;
  s_ports : (Context.t -> bool) array;  (* the send sites' port: the link, if any *)
  s_bypassed : bool array;
      (* a [true] cell routes around that replica: its packets skip
         processing but still run [s_prog], so downstream cores and
         mergers see every expected branch *)
  s_steer : Elastic.steer option;
      (* elastic steering map; [None] = mod-n sharding (the slot is not
         scalable, or no elastic config) *)
}

let replica_report s =
  let nfs = s.s_nfs in
  let nf0 = nfs.(0) in
  let merged_digest =
    if Array.length nfs = 1 then nf0.state_digest ()
    else
      match (nf0.merge, nf0.fresh) with
      | Some merge, Some fresh ->
          let snaps =
            Array.to_list
              (Array.map
                 (fun (nf : Nfp_nf.Nf.t) ->
                   match nf.snapshot with
                   | Some snap -> snap ()
                   | None -> assert false (* eligibility requires it *))
                 nfs)
          in
          let scratch = fresh () in
          (match scratch.restore with
          | Some restore -> restore (merge snaps)
          | None -> assert false);
          scratch.state_digest ()
      | _ ->
          (* Replicated_readonly: replicas never diverge. *)
          nf0.state_digest ()
  in
  {
    rr_mid = s.s_mid;
    rr_nf = s.s_entry.nf;
    rr_kind = nf0.kind;
    rr_strategy = Replication.derive nf0;
    rr_replicas = Array.length nfs;
    rr_processed = Array.to_list (Array.map Nfp_sim.Server.processed s.s_servers);
    rr_merged_digest = merged_digest;
  }

(* First branch of [spec] the deliverer satisfies, mirroring the
   interpretive reference's [branch_of] — resolved once at compile time. *)
let branch_index (spec : Tables.merge_spec) (deliverer : Tables.deliverer) =
  let rec go i = function
    | [] -> -1
    | (e : Tables.expect) :: rest ->
        if
          e.deliverer = deliverer
          || match deliverer with Tables.D_nf n -> List.mem n e.members | _ -> false
        then i
        else go (i + 1) rest
  in
  go 0 spec.expected

let empty_prog = { p_copies = [||]; p_sends = [||]; p_static = 0; p_full_srcs = [||] }

(* The plan-to-program compiler: every plan, translated once into
   preresolved programs. NF targets become dense slot indices in
   [nf_impls] order, merge targets the [cmerge] records themselves, with
   the branch each sender fills resolved and the static cycles of each
   action list summed. Pure: it reads the plans and the cost model only.
   Returns each NF slot's action program and nil sends (what it emits
   when its NF drops the packet), and each graph's classifier program,
   indexed by MID - 1. *)
let compile ~(cost : Nfp_sim.Cost.t) (plans : Tables.plan array) nf_impls =
  (* NF slots: dense indices in nf_impls order. *)
  let slot_of : (int * string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iteri
    (fun i (mid, (e : Tables.nf_entry), _) -> Hashtbl.replace slot_of (mid, e.nf) i)
    nf_impls;
  (* Merge specs per plan, in arrays indexed by merge id. *)
  let cmerge_table =
    Array.mapi
      (fun i (plan : Tables.plan) ->
        let mid = i + 1 in
        let max_id =
          List.fold_left (fun a (m : Tables.merge_spec) -> max a m.id) (-1) plan.merges
        in
        let arr = Array.make (max_id + 1) None in
        List.iter
          (fun (spec : Tables.merge_spec) ->
            let drop_any, winner =
              match spec.drop_policy with
              | `Any -> (true, -1)
              | `Priority_to w ->
                  let b = branch_index spec w in
                  (b < 0, b)
            in
            arr.(spec.id) <-
              Some
                {
                  m_mid = mid;
                  m_id = spec.id;
                  m_spec = spec;
                  m_expected = List.length spec.expected;
                  m_versions =
                    Array.of_list
                      (List.map (fun (e : Tables.expect) -> e.version) spec.expected);
                  m_result_version = spec.result_version;
                  m_ops = Array.of_list spec.ops;
                  m_drop_any = drop_any;
                  m_winner = winner;
                  m_next = empty_prog;
                  m_nil_sends = [||];
                  m_completion_static = 0;
                })
          plan.merges;
        arr)
      plans
  in
  let lookup_merge mid id =
    let arr = cmerge_table.(mid - 1) in
    if id < 0 || id >= Array.length arr then
      invalid_arg "System: delivery references unknown merge point"
    else
      match arr.(id) with
      | Some m -> m
      | None -> invalid_arg "System: delivery references unknown merge point"
  in
  let compile_actions ~mid ~(self : Tables.deliverer) actions =
    let copies = ref [] and sends = ref [] in
    let static = ref 0 and full_srcs = ref [] in
    List.iter
      (function
        | Tables.Copy { src_version; dst_version; full } ->
            copies := { c_src = src_version; c_dst = dst_version; c_full = full } :: !copies;
            if full then begin
              static := !static + cost.copy_base;
              full_srcs := src_version :: !full_srcs
            end
            else static := !static + cost.header_copy
        | Tables.Distribute { version; targets } ->
            static := !static + (cost.ring_enqueue * List.length targets);
            List.iter
              (fun target ->
                let s =
                  match target with
                  | Tables.To_nf n -> (
                      match Hashtbl.find_opt slot_of (mid, n) with
                      | Some i -> S_nf i
                      | None ->
                          invalid_arg
                            (Printf.sprintf "System: FT references unknown NF %S" n))
                  | Tables.To_merger id ->
                      let m = lookup_merge mid id in
                      S_merge
                        { merge = m; branch = branch_index m.m_spec self; nil = false }
                  | Tables.Deliver -> S_deliver version
                in
                sends := s :: !sends)
              targets)
      actions;
    {
      p_copies = Array.of_list (List.rev !copies);
      p_sends = Array.of_list (List.rev !sends);
      p_static = !static;
      p_full_srcs = Array.of_list (List.rev !full_srcs);
    }
  in
  (* Second pass: merge continuations (may reference sibling or
     enclosing merges, which all exist now). *)
  Array.iteri
    (fun i arr ->
      let mid = i + 1 in
      Array.iter
        (function
          | None -> ()
          | Some m ->
              let spec = m.m_spec in
              m.m_next <- compile_actions ~mid ~self:(Tables.D_merger m.m_id) spec.next;
              m.m_completion_static <-
                (Array.length m.m_ops * cost.merge_op) + m.m_next.p_static;
              m.m_nil_sends <-
                Array.of_list
                  (List.concat_map
                     (function
                       | Tables.Distribute { version = _; targets } ->
                           List.filter_map
                             (function
                               | Tables.To_merger outer ->
                                   let om = lookup_merge mid outer in
                                   Some
                                     (S_merge
                                        {
                                          merge = om;
                                          branch =
                                            branch_index om.m_spec
                                              (Tables.D_merger m.m_id);
                                          nil = true;
                                        })
                               | Tables.To_nf _ | Tables.Deliver -> None)
                             targets
                       | Tables.Copy _ -> [])
                     spec.next))
        arr)
    cmerge_table;
  let nf_progs =
    Array.of_list
      (List.map
         (fun (mid, (entry : Tables.nf_entry), _) ->
           let nil_sends =
             match entry.nil_target with
             | None -> [||]
             | Some id ->
                 let m = lookup_merge mid id in
                 let branch = branch_index m.m_spec (Tables.D_nf entry.nf) in
                 [| S_merge { merge = m; branch; nil = true } |]
           in
           (compile_actions ~mid ~self:(Tables.D_nf entry.nf) entry.actions, nil_sends))
         nf_impls)
  in
  let classifier_progs =
    Array.mapi
      (fun i (plan : Tables.plan) ->
        compile_actions ~mid:(i + 1) ~self:(Tables.D_nf "classifier") plan.classifier_actions)
      plans
  in
  (nf_progs, classifier_progs)

(* Run a program's copies; its sends are left to the caller. *)
let exec_prog prog ctx =
  let copies = prog.p_copies in
  for i = 0 to Array.length copies - 1 do
    let c = copies.(i) in
    ignore (Context.copy ctx ~src:c.c_src ~dst:c.c_dst ~full:c.c_full)
  done;
  prog.p_sends

(* The dynamic cycles of a program: the per-byte term of its full
   copies. *)
let dyn_cycles ~(cost : Nfp_sim.Cost.t) prog ctx =
  let srcs = prog.p_full_srcs in
  let n = Array.length srcs in
  if n = 0 then 0
  else begin
    let acc = ref 0 in
    for i = 0 to n - 1 do
      acc :=
        !acc + int_of_float (cost.copy_per_byte *. float_of_int (packet_bytes ctx srcs.(i)))
    done;
    !acc
  end

(* ------------------------------------------------------------------ *)
(* The runtime of one compiled deployment: the state its cores and the *)
(* send path share, in one record. The builders below are top-level    *)
(* functions over it; [make_multi] creates it and wires the parts.     *)
(* ------------------------------------------------------------------ *)

(* The deployment's exactly-once filters, armed or not. Armed, each
   [filter] is a bounded [Dedup] memory, listed in [memories] for the
   [dedup_entries] gauge; disarmed, it is [None], which has seen nothing
   and remembers nothing. *)
type dedup = { armed : bool; capacity : int; mutable memories : Dedup.t list }

let filter d =
  if d.armed then begin
    let m = Dedup.create d.capacity in
    d.memories <- m :: d.memories;
    Some m
  end
  else None

let seen f ~a ~b = match f with Some m -> Dedup.mem m ~a ~b | None -> false

let remember f ~a ~b = match f with Some m -> Dedup.add m ~a ~b | None -> ()

type rt = {
  engine : Nfp_sim.Engine.t;
  config : config;
  fault : fault_config option;
  elastic : elastic_config option;
  egress : (int64, Packet.t) Nfp_sim.Engine.line;  (* half the wire, egress to NIC *)
  dedup : dedup;
  delivered : Dedup.t option;  (* the output's (PID, version) filter *)
  merge_timeout_ns : float;  (* 0.0: accumulations never time out *)
  watchdog : Watchdog.t;
  overload : Overload.t;
  prng : Nfp_algo.Prng.t;  (* the main jitter stream *)
  elastic_prng : Nfp_algo.Prng.t;  (* standby replicas' stream *)
  links : links_config option;
  reliability : Channel.reliability option;
  health : Nfp_sim.Harness.health;  (* the deployment's counter ledger *)
  mutable probes : Watchdog.probe list;  (* one per core, newest first *)
  emit : Context.t -> csend -> bool;  (* [emit_send] over this record *)
  mutable slots : slot array;  (* set once every slot exists *)
  mutable merge_port : cdelivery -> bool;
      (* where merge deliveries enter: the merger agent's port, or the
         PID-hashed merger instance's; set once the mergers exist *)
  mutable deliver_port : Packet.t -> bool;  (* the egress edge; set with the record *)
}

(* Every compiled core: [new_core] under the deployment's watermarks and
   fault plan, with its probe registered for the watchdog and [health]
   in build order. NF replicas pass their [nf], [drain] and [cell]. *)
let core rt ?nf ?(drain = fun _ -> 0) ?(cell = Watchdog.no_cell) ~name ~prng ~service_ns
    ~execute ~emit () =
  let server =
    new_core ~engine:rt.engine ~config:rt.config
      ?watermarks:(Overload.watermarks rt.overload) ?fault:rt.fault ~name ~prng ~service_ns
      ~execute ~emit ()
  in
  rt.probes <- Watchdog.Probe { server; nf; drain; cell } :: rt.probes;
  server

(* Link channels: one per destination port, shared by every edge into
   that core; each draws its fault state from the link plan by name.
   Only ports the plan actually perturbs get a channel: an unmatched
   port keeps the direct call path, so arming links with a plan that
   names nothing behaves like no links at all, and the ARQ machinery
   never taxes healthy ports. *)
let channel_for rt ~name ~deliver ~reroute =
  match rt.links with
  | None -> None
  | Some lc -> (
      match Nfp_sim.Fault.link_for lc.link_plan name with
      | None -> None
      | Some state ->
          Some
            (Channel.create ~engine:rt.engine ~name:("link:" ^ name) ~state
               ?reliability:rt.reliability ~deliver ~reroute ~stats:rt.health.links ()))

(* Build-time ports: every destination gets one offer closure, chosen
   once — [Channel.send] when the link plan names the port, otherwise
   [direct]. A core's own port detours a Down link straight into its
   ring off-core: the fabric can be skipped, the core cannot. *)
let offer_via chan direct = match chan with Some ch -> Channel.send ch | None -> direct

let server_port ?(prefix = "") rt srv =
  let offer = Nfp_sim.Server.offer srv in
  offer_via
    (channel_for rt ~name:(prefix ^ Nfp_sim.Server.name srv) ~deliver:offer
       ~reroute:(fun x -> Nfp_sim.Server.drive rt.engine (fun () -> offer x)))
    offer

(* The output side of every path. The packet's own metadata names it:
   contexts stamp and copies tag each version, and the twin chains stamp
   version 1. On armed runs a replayed or timeout-completed branch must
   never deliver the same (PID, version) twice. *)
let deliver_out rt pkt =
  let pid = Packet.pid pkt in
  let a = Int64.to_int pid and b = Packet.version pkt in
  if seen rt.delivered ~a ~b then rt.health.deduped <- rt.health.deduped + 1
  else begin
    remember rt.delivered ~a ~b;
    Nfp_sim.Engine.send rt.egress pid pkt 0
  end

(* The egress edge (merger/NF -> delivery port). The reroute of a Down
   delivery link is delivery itself — the detour models the alternate
   path to the egress NIC, and the exactly-once filter keeps it safe. *)
let delivery_port rt =
  let deliver pkt =
    deliver_out rt pkt;
    true
  in
  offer_via (channel_for rt ~name:"delivery" ~deliver ~reroute:(deliver_out rt)) deliver

(* RSS shard steering: hash the 5-tuple of the packet version the slot's
   NF reads, i.e. the one that replica will observe. The hash runs on
   its own seeded stream ([Hashing.rss2_int]) — never correlated with
   the microflow cache's bucket hash — and is skipped entirely for
   single-replica slots, keeping the replicas=1 hot path (and trace)
   bit-identical to the pre-replication system. Upstream 5-tuple
   rewrites (NAT, LB) are flow-deterministic, so every packet of a flow
   hashes alike and lands on the same replica. *)
let rss_hash s ctx =
  let pkt = Context.slot ctx s.s_entry.Tables.version in
  if pkt == Packet.absent then 0
  else Nfp_algo.Hashing.rss2_int (Packet.key_a pkt) (Packet.key_b pkt)

(* ------------------------------------------------------------------ *)
(* The send path. A core walks a program's send array with its own     *)
(* cursor, which survives backpressure retries, so each target is      *)
(* offered in order exactly once.                                      *)
(* ------------------------------------------------------------------ *)

(* Run a send array off-core; [Server.drive] absorbs any backpressure. *)
let off_emit rt ctx sends =
  Nfp_sim.Server.drive rt.engine (Nfp_sim.Server.emission rt.emit ctx sends)

(* Run an action program off-core: bypass reroutes, Down-link detours. *)
let off_core rt prog ctx = off_emit rt ctx (exec_prog prog ctx)

let bypass rt prog ctx =
  rt.health.bypassed_packets <- rt.health.bypassed_packets + 1;
  off_core rt prog ctx

(* The one routing rule into NF slot [slot]: the send site offers to the
   replicas' ports, a channel releasing a buffered packet ([release]) to
   their rings — so a packet parked on a link while a migration flips
   its bucket, or while the watchdog bypasses the replica, lands where
   it would be routed now and can never resurrect a retired owner's
   state. Steered slots look the bucket up in the live map per attempt,
   so a committed flip takes effect for every not-yet-offered packet. A
   bypassed replica is out of the graph: its action program runs
   immediately instead. *)
let route_nf rt ~release slot ctx =
  let s = rt.slots.(slot) in
  let n = Array.length s.s_servers in
  let r =
    if n < 2 then 0
    else
      match s.s_steer with
      | Some st -> Elastic.owner st (rss_hash s ctx)
      | None -> rss_hash s ctx mod n
  in
  if s.s_bypassed.(r) then begin
    bypass rt s.s_prog ctx;
    true
  end
  else if release then Nfp_sim.Server.offer s.s_servers.(r) ctx
  else s.s_ports.(r) ctx

(* One attempt at one compiled send. *)
let emit_send rt ctx send =
  match send with
  | S_nf slot -> route_nf rt ~release:false slot ctx
  | S_merge { merge; branch; nil } ->
      rt.merge_port { d_ctx = ctx; d_merge = merge; d_branch = branch; d_nil = nil }
  | S_deliver v ->
      let pkt = Context.slot ctx v in
      pkt == Packet.absent || rt.deliver_port pkt

(* ------------------------------------------------------------------ *)
(* Per-NF runtime, mergers, twin chains and the health snapshot.       *)
(* ------------------------------------------------------------------ *)

(* One NF slot, in [nf_impls] order (replica 0 first — at replicas=1 the
   same PRNG split order as [interpretive]). Replica 0 is the caller's NF
   instance; further replicas are fresh instances from [Nf.fresh], each
   with its own state, recovery cell, fault stream and probe. *)
let build_slot rt ~shardable nf_progs slot
    (mid, (entry : Tables.nf_entry), (nf0 : Nfp_nf.Nf.t)) =
  let config = rt.config and cost = rt.config.cost in
  let prog, nil_sends = nf_progs.(slot) in
  (* [config.replicas] targets strategy-eligible NFs; 1 (the default)
     keeps the deployment bit-identical to the pre-replication
     system. *)
  let base_replicas =
    if config.replicas > 1 && shardable mid entry.nf then config.replicas else 1
  in
  (* Scalable = the elastic controller may add/remove replicas at
     runtime: the plan clears the NF for sharding AND its state supports
     live extraction ([Replication.migratable]). Standby replicas up to
     the ceiling are built now — activation is then a pure steering-map
     change. *)
  let steer =
    match rt.elastic with
    | Some (ec : elastic_config)
      when ec.max_replicas > 1 && Replication.migratable nf0 && shardable mid entry.nf ->
        let n = max base_replicas ec.max_replicas in
        Some (n, Elastic.steer ec ~replicas:n ~base:base_replicas)
    | _ -> None
  in
  let n_replicas = match steer with Some (n, _) -> n | None -> base_replicas in
  let nfs =
    Array.init n_replicas (fun r ->
        if r = 0 then nf0
        else
          match nf0.Nfp_nf.Nf.fresh with
          | Some fresh -> fresh ()
          | None -> assert false (* [shardable] guarantees fresh *))
  in
  let bypassed = Array.make n_replicas false in
  let make_replica r prng =
    let nf = nfs.(r) in
    let cell = Watchdog.cell rt.watchdog nf in
    let static =
      cost.ring_dequeue + cost.nf_runtime + prog.p_static
      + if Watchdog.logging cell then cost.log_append else 0
    in
    (* Pressure-degrade switch: while this replica's own ring sits above
       the watermark, an NF that declares a degrade mode runs its
       coarsened semantics at its coarsened cost. It reads the server
       created below, once bound. *)
    let sw = Overload.switch rt.overload nf in
    let process = Overload.process sw in
    let service_ns ctx (c : Nfp_sim.Server.cell) =
      let pkt = Context.slot ctx entry.version in
      let nf_cycles = if pkt == Packet.absent then 0 else Overload.cost_cycles sw pkt in
      c.ns <- Nfp_sim.Cost.ns_of_cycles cost (static + nf_cycles + dyn_cycles ~cost prog ctx)
    in
    let execute ctx =
      let pkt = Context.slot ctx entry.version in
      if pkt == Packet.absent then [||]
      else begin
        Watchdog.log cell pkt;
        match run_nf ~who:entry.nf process ~pid:(Context.pid ctx) pkt with
        | Nfp_nf.Nf.Forward -> exec_prog prog ctx
        | Nfp_nf.Nf.Dropped ->
            if Array.length nil_sends = 0 then
              rt.health.drops.nf_dropped <- rt.health.drops.nf_dropped + 1;
            nil_sends
      end
    in
    (* Replica 0 keeps the historical core name; shards get an @r
       suffix, so fault plans can target (and crash) each replica
       independently. *)
    let name =
      if r = 0 then Printf.sprintf "mid%d:%s" mid entry.nf
      else Printf.sprintf "mid%d:%s@%d" mid entry.nf r
    in
    (* Bypass recovery: mark the replica, reroute this core's casualties
       (the in-flight batch its kill reclaimed, and any pending
       emissions) plus the queued backlog through its action program,
       so every packet lands in exactly one ledger bucket and no merger
       waits on this branch. Other replicas of the slot keep
       processing. *)
    let drain server =
      bypassed.(r) <- true;
      Nfp_sim.Server.set_casualty_sink server (fun jobs emits ->
          List.iter (bypass rt prog) jobs;
          List.iter (Nfp_sim.Server.drive rt.engine) emits);
      let backlog = Nfp_sim.Server.drain server in
      List.iter (bypass rt prog) backlog;
      List.length backlog
    in
    let server =
      core rt ~nf:(mid, entry.nf) ~drain ~cell ~name ~prng ~service_ns ~execute ~emit:rt.emit
        ()
    in
    Overload.bind sw ~pressured:(fun () -> Nfp_sim.Server.pressured server);
    (server, cell)
  in
  (* Build replicas in index order: each creation splits the jitter
     PRNG, and the replicas=1 trace must keep the historical split
     sequence. Standby replicas (index >= the static count) split the
     independent elastic stream instead, leaving the main sequence
     untouched. *)
  let replicas =
    Array.init n_replicas (fun r ->
        make_replica r (if r < base_replicas then rt.prng else rt.elastic_prng))
  in
  let servers = Array.map fst replicas in
  (* A channel releases through [route_nf] over the replicas' rings, so
     steering and bypass are re-resolved at release time. The reroute of
     a Down link runs the slot's action program off-core, bypass-style:
     downstream sees every expected branch. *)
  let links =
    Array.map
      (fun srv ->
        channel_for rt ~name:(Nfp_sim.Server.name srv) ~deliver:(route_nf rt ~release:true slot)
          ~reroute:(off_core rt prog))
      servers
  in
  {
    s_mid = mid;
    s_entry = entry;
    s_prog = prog;
    s_servers = servers;
    s_nfs = nfs;
    s_cells = Array.map snd replicas;
    s_links = links;
    s_ports = Array.map2 (fun ch srv -> offer_via ch (Nfp_sim.Server.offer srv)) links servers;
    s_bypassed = bypassed;
    s_steer = Option.map snd steer;
  }

(* What the elastic controller sees of a scalable slot. Migration
   transfers get their own link family ("migrate:<replica>"): moved
   in-flight packets cross the fabric like any other edge, so a plan can
   perturb the re-home path independently of the data path. *)
let elastic_slot rt s =
  match s.s_steer with
  | None -> []
  | Some steer ->
      [
        {
          Elastic.servers = s.s_servers;
          nfs = s.s_nfs;
          cells = s.s_cells;
          steer;
          hash = rss_hash s;
          reachable =
            (fun r ->
              match s.s_links.(r) with Some ch -> not (Channel.is_down ch) | None -> true);
          rehome =
            Array.map
              (fun srv ->
                let port = server_port ~prefix:"migrate:" rt srv in
                fun ctx -> Nfp_sim.Server.drive rt.engine (fun () -> port ctx))
              s.s_servers;
        };
      ]

(* Merge completion, shared by the full-arrival path and the timeout
   path. [nil_mask] decides the drop policy; [skip_mask] marks branches
   whose versions must not feed the merge ops — nil branches
   (half-processed) and, on a timeout, branches that never arrived.
   With [skip_mask = nil_mask] this is exactly the pre-timeout
   completion. *)
let complete rt m ctx ~nil_mask ~skip_mask =
  let dropped =
    if m.m_drop_any then nil_mask <> 0 else nil_mask land (1 lsl m.m_winner) <> 0
  in
  if dropped then begin
    if Array.length m.m_nil_sends = 0 then
      rt.health.drops.nf_dropped <- rt.health.drops.nf_dropped + 1;
    m.m_nil_sends
  end
  else begin
    (* Versions from branches that dropped under a priority policy are
       half-processed: an op that reads or writes one is skipped. *)
    let hidden = ref 0 in
    for b = 0 to Array.length m.m_versions - 1 do
      if skip_mask land (1 lsl b) <> 0 then hidden := !hidden lor (1 lsl m.m_versions.(b))
    done;
    let hidden = !hidden land lnot (1 lsl m.m_result_version) in
    for i = 0 to Array.length m.m_ops - 1 do
      let op = m.m_ops.(i) in
      if Merge_op.version_mask op land hidden = 0 then Merge_op.apply op ~get:Context.slot ctx
    done;
    exec_prog m.m_next ctx
  end

(* Merger instance [index]: shared across service graphs (paper §5.3),
   with a private accumulating table keyed by PID and (MID, merge
   point). *)
let make_merger rt index =
  let cost = rt.config.cost in
  let at : cat_entry Nfp_algo.Pair_table.t = Nfp_algo.Pair_table.create () in
  (* Completed-merge memory (armed runs only): a branch arriving after
     its merge already completed — a straggler emitted by a salvaged
     core after a merge timeout force-completed the accumulation, or a
     late retransmission of a branch a timeout already nil-substituted —
     is consumed silently instead of opening a fresh accumulation that
     would deliver a duplicate. Mergers never see the same (MID, merge,
     PID) complete twice within the bounded dedup window. *)
  let done_tbl = filter rt.dedup in
  let service_ns (d : cdelivery) (cell : Nfp_sim.Server.cell) =
    let m = d.d_merge in
    cell.ns <-
      Nfp_sim.Cost.ns_of_cycles cost
        (cost.ring_dequeue + cost.merge_delivery
        + ((m.m_completion_static + dyn_cycles ~cost m.m_next d.d_ctx) / max 1 m.m_expected))
  in
  let execute (d : cdelivery) =
    let m = d.d_merge in
    let a = Int64.to_int (Context.pid d.d_ctx)
    and b = Dedup.merge_limb ~mid:m.m_mid ~merge_id:m.m_id in
    if seen done_tbl ~a ~b then begin
      rt.health.deduped <- rt.health.deduped + 1;
      [||]
    end
    else begin
      let entry =
        match Nfp_algo.Pair_table.find at ~a ~b with
        | -1 ->
            let e = { c_received = 0; c_nil_mask = 0; c_arrived_mask = 0 } in
            Nfp_algo.Pair_table.replace at ~a ~b e;
            (* Arm the straggler timeout when this accumulation opens: if
               a failed branch never shows up, merge what did arrive
               rather than wedge the packet (the drop policy still
               applies to arrived nils). *)
            if rt.merge_timeout_ns > 0.0 then
              Nfp_sim.Engine.schedule rt.engine ~delay:rt.merge_timeout_ns (fun () ->
                  let s = Nfp_algo.Pair_table.find at ~a ~b in
                  if s >= 0 && Nfp_algo.Pair_table.value at s == e then begin
                    Nfp_algo.Pair_table.remove at ~a ~b;
                    remember done_tbl ~a ~b;
                    rt.health.drops.merge_timed_out <- rt.health.drops.merge_timed_out + 1;
                    let missing = ((1 lsl m.m_expected) - 1) land lnot e.c_arrived_mask in
                    off_emit rt d.d_ctx
                      (complete rt m d.d_ctx ~nil_mask:e.c_nil_mask
                         ~skip_mask:(e.c_nil_mask lor missing))
                  end);
            e
        | s -> Nfp_algo.Pair_table.value at s
      in
      entry.c_received <- entry.c_received + 1;
      if d.d_branch >= 0 then entry.c_arrived_mask <- entry.c_arrived_mask lor (1 lsl d.d_branch);
      if d.d_nil && d.d_branch >= 0 then
        entry.c_nil_mask <- entry.c_nil_mask lor (1 lsl d.d_branch);
      if entry.c_received < m.m_expected then [||]
      else begin
        Nfp_algo.Pair_table.remove at ~a ~b;
        remember done_tbl ~a ~b;
        complete rt m d.d_ctx ~nil_mask:entry.c_nil_mask ~skip_mask:entry.c_nil_mask
      end
    end
  in
  core rt
    ~name:(Printf.sprintf "merger#%d" index)
    ~prng:rt.prng ~service_ns ~execute
    ~emit:(fun (d : cdelivery) send -> emit_send rt d.d_ctx send)
    ()

(* Degrade fallback: one sequential twin chain per service graph whose
   [recovery_of] yields Degrade for at least one of its NFs, built from
   the plan's provably-equivalent serial order; every other graph gets
   [None], since the watchdog can never degrade it. While the watchdog
   holds a graph degraded, new packets run the chain instead of the
   parallel deployment. Each chain is built tail first; twin cores draw
   jitter from a PRNG stream independent of the main one, so building
   them does not perturb the fault-free trace (the differential test
   holds this). *)
let twin_chains rt nf_impls table =
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
              deliver_out rt pkt;
              [||])
      | Nfp_nf.Nf.Dropped ->
          rt.health.drops.nf_dropped <- rt.health.drops.nf_dropped + 1;
          [||]
    in
    core rt ~name:(Printf.sprintf "seq:mid%d:%s" mid name) ~prng ~service_ns ~execute ~emit ()
  in
  let degradable (e : Tables.nf_entry) =
    match rt.fault with Some fc -> fc.recovery_of e.nf = Degrade | None -> false
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
    dedup_entries = List.fold_left (fun acc m -> acc + Dedup.length m) 0 rt.dedup.memories;
  }

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
  let nf_progs, classifier_progs = compile ~cost plans nf_impls in
  (* Each graph's packets get a context with room for exactly the
     versions its plan uses. *)
  let versions = Array.map (fun (p : Tables.plan) -> p.version_count) plans in
  (* The (pid, version) dedup filters arm with a non-empty fault plan (a
     replayed or timeout-completed branch), under elastic (a crash
     landing mid-migration can re-home a packet whose original emission
     is still in flight) and under links (a retransmitted branch racing
     its own timeout-completed merge, or a fabric duplicate on a raw
     channel). Pure bookkeeping — on a duplicate-free run the filters
     never fire, so the trace is untouched. A fault config with an empty
     plan arms nothing here, and no input logging or checkpoint in
     [Watchdog] either: the packet trace stays byte-identical to a system
     built without one (the differential test enforces this). *)
  let dedup =
    {
      armed =
        (match fault with
        | Some (fc : fault_config) -> not (Nfp_sim.Fault.is_empty fc.plan)
        | None -> false)
        || elastic <> None || links <> None;
      capacity =
        (match fault with Some fc -> fc.dedup_capacity | None -> Watchdog.default.dedup_capacity);
      memories = [];
    }
  in
  (* The overload control plane: its watermarks arm every ring, each NF
     replica takes a degrade switch from it, and its shed ladder starts
     polling once every core exists (below). Without an overload config
     it is inert — the bit-identity guarantee. *)
  let health = Nfp_sim.Harness.fresh_health () in
  let overload =
    Overload.create ~engine ?config:overload
      ~priorities:(Array.map (fun (_, (p : Tables.plan), _) -> p.Tables.priority) table)
      ~health ()
  in
  (* The watchdog exists before the cores: each NF replica takes its
     lossless-recovery cell from it. It starts watching once every core
     has registered its probe (below). *)
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
      delivered = filter dedup;
      merge_timeout_ns = (match fault with Some fc -> fc.merge_timeout_ns | None -> 0.0);
      watchdog;
      overload;
      prng = Nfp_algo.Prng.create ~seed:config.seed;
      (* Standby replicas (indices past the static count) draw jitter
         from an independent stream, like the degrade twins: building
         them must not shift the main PRNG and perturb a never-scaling
         trace. *)
      elastic_prng = Nfp_algo.Prng.create ~seed:(Int64.logxor config.seed 0x31a5_71c5L);
      links;
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
      emit = (fun ctx send -> emit_send rt ctx send);
      slots = [||];
      merge_port = (fun _ -> false);
      deliver_port = (fun _ -> false);
    }
  in
  rt.deliver_port <- delivery_port rt;
  rt.slots <- Array.of_list (List.mapi (build_slot rt ~shardable nf_progs) nf_impls);
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
          (List.concat_map (elastic_slot rt) (Array.to_list rt.slots))
  in
  let merger_cores = Array.init config.mergers (make_merger rt) in
  let merger_ports = Array.map (server_port rt) merger_cores in
  let to_merger (d : cdelivery) =
    merger_ports.(slot_of_pid (Context.pid d.d_ctx) (Array.length merger_ports)) d
  in
  rt.merge_port <- to_merger;
  (* The merger agent hashes the immutable PID and steers to an
     instance; its one send per job is that hop. *)
  let agent_core =
    if config.mergers = 1 then None
    else begin
      let agent_ns =
        Nfp_sim.Cost.ns_of_cycles cost (cost.ring_dequeue + cost.merger_agent + cost.ring_enqueue)
      in
      let hop = [| () |] in
      let agent =
        core rt ~name:"merger-agent" ~prng:rt.prng
          ~service_ns:(fun _ (cell : Nfp_sim.Server.cell) -> cell.ns <- agent_ns)
          ~execute:(fun _ -> hop)
          ~emit:(fun (d : cdelivery) () -> to_merger d)
          ()
      in
      rt.merge_port <- server_port rt agent;
      Some agent
    end
  in
  let classifier =
    let service_ns (ctx : Context.t) (cell : Nfp_sim.Server.cell) =
      let prog = classifier_progs.(Context.mid ctx - 1) in
      cell.ns <-
        Nfp_sim.Cost.ns_of_cycles cost (cost.classifier + prog.p_static + dyn_cycles ~cost prog ctx)
    in
    let execute ctx = exec_prog classifier_progs.(Context.mid ctx - 1) ctx in
    core rt ~name:"classifier" ~prng:rt.prng ~service_ns ~execute ~emit:rt.emit ()
  in
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
    (fun cell -> cell := fun () -> Array.to_list (Array.map replica_report rt.slots))
    replication;
  let twins = twin_chains rt nf_impls table in
  (* Watchdog: per-core progress heartbeats. A core is healthy while it
     processes packets or at least retries a stalled emission
     (backpressure is not failure); a core with queued work and a frozen
     heartbeat past the deadline is declared failed and its recovery
     policy runs. The shed ladder polls whether any core's watermark
     latch is raised. *)
  let probes = Array.of_list (List.rev rt.probes) in
  Watchdog.watch watchdog probes;
  Overload.watch overload ~pressured:(fun () ->
      Array.exists (fun (Watchdog.Probe p) -> Nfp_sim.Server.pressured p.server) probes);
  let front, counters =
    front_end ?classify ~engine ~cost ~drops:health.drops table (fun ~pid ~mid pkt ->
        if Overload.shed rt.overload mid then
          (* Refused by the admission controller: counted (total and per
             class) and gone — deliberately, before it can cost a ring
             slot or a core cycle. *)
          ()
        else
          match twins.(mid - 1) with
          | Some head when Watchdog.degraded rt.watchdog mid ->
              (* Sequential fallback: tag the packet as the classifier
                 would and run the twin chain. *)
              Packet.stamp pkt ~mid ~pid ~version:1;
              if not (Nfp_sim.Server.offer head (pid, pkt)) then
                health.drops.ingress_rejected <- health.drops.ingress_rejected + 1
          | _ ->
              let ctx = Context.create ~pid ~mid ~versions:versions.(mid - 1) pkt in
              if not (Nfp_sim.Server.offer classifier ctx) then
                health.drops.ingress_rejected <- health.drops.ingress_rejected + 1)
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
