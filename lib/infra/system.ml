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

(* ------------------------------------------------------------------ *)
(* Overload control plane: ring watermarks, priority-aware admission,  *)
(* pressure-degrade modes.                                             *)
(* ------------------------------------------------------------------ *)

(* Opt-in: a deployment built without an overload config is bit-for-bit
   the pre-overload system (no watermarks armed, admission controller
   absent, every NF at full fidelity). With one, every compiled-path
   ring arms the high/low watermark latch, the classifier front end
   sheds low-priority chains first when pressure persists, and NFs
   that declare a [Nf.degrade] mode coarsen while their own ring sits
   above the watermark. *)
type overload_config = {
  high_watermark : int;
  low_watermark : int;
  shed_trickle : int;
  degrade_enabled : bool;
  pressure_poll_ns : float;
}

(* 3/4 and 3/8 of the default ring capacity; one shed-level step every
   2 us; a 1-in-16 trickle for shed classes. *)
let default_overload_config =
  {
    high_watermark = 96;
    low_watermark = 48;
    shed_trickle = 16;
    degrade_enabled = true;
    pressure_poll_ns = 2_000.0;
  }

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
  link_window : int;
  ack_interval_ns : float;
  rto_ns : float;
  rto_backoff : float;
  rto_max_ns : float;
  retransmit_budget : int;
  reorder_window : int;
  probe_interval_ns : float;
  probe_timeout_k : int;
}

let default_links_config =
  {
    link_plan = Nfp_sim.Fault.no_links;
    reliable = true;
    link_window = 256;
    ack_interval_ns = 1_000.0;
    rto_ns = 25_000.0;
    rto_backoff = 2.0;
    rto_max_ns = 400_000.0;
    retransmit_budget = 16;
    reorder_window = 256;
    probe_interval_ns = 5_000.0;
    probe_timeout_k = 3;
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
  backoff_factor : float;
  backoff_max_ns : float;
  breaker_fallback : recovery;
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
   Keys are two int limbs in open-addressed tables, so neither a lookup
   nor an insert allocates: the 40-bit PID as a native int, and the
   version (delivery) or the packed (MID, merge point) pair (merger). *)
module Dedup = struct
  type t = {
    half : int;
    mutable g_cur : unit Nfp_algo.Pair_table.t;
    mutable g_prev : unit Nfp_algo.Pair_table.t;
  }

  let merge_limb ~mid ~merge_id = (mid lsl 32) lor merge_id

  let create capacity =
    let half = max 1 (capacity / 2) in
    { half; g_cur = Nfp_algo.Pair_table.create (); g_prev = Nfp_algo.Pair_table.create () }

  let mem t ~a ~b = Nfp_algo.Pair_table.mem t.g_cur ~a ~b || Nfp_algo.Pair_table.mem t.g_prev ~a ~b

  let add t ~a ~b =
    if not (mem t ~a ~b) then begin
      if Nfp_algo.Pair_table.length t.g_cur >= t.half then begin
        let retired = t.g_prev in
        Nfp_algo.Pair_table.clear retired;
        t.g_prev <- t.g_cur;
        t.g_cur <- retired
      end;
      Nfp_algo.Pair_table.replace t.g_cur ~a ~b ()
    end

  let length t = Nfp_algo.Pair_table.length t.g_cur + Nfp_algo.Pair_table.length t.g_prev
end

let core_count config (plan : Tables.plan) =
  1
  + List.length plan.Tables.nf_entries
  + config.mergers
  + if config.mergers > 1 then 1 else 0

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

let replica_report ~mid (entry : Tables.nf_entry) (nfs : Nfp_nf.Nf.t array) processed =
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
    rr_mid = mid;
    rr_nf = entry.nf;
    rr_kind = nf0.kind;
    rr_strategy = Replication.derive nf0;
    rr_replicas = Array.length nfs;
    rr_processed = processed;
    rr_merged_digest = merged_digest;
  }

(* ------------------------------------------------------------------ *)
(* Interpretive path: walks the plan's tables per packet. Kept as the  *)
(* executable reference semantics for the compiled fast path; the      *)
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

(* ------------------------------------------------------------------ *)
(* Compiled path: the plan is translated once, at deployment time,     *)
(* into a preresolved runtime program — merge specs in arrays indexed  *)
(* by merge id, NF and merger targets resolved to direct server slots, *)
(* static cycle costs folded into one constant (only the per-byte      *)
(* full-copy term stays dynamic), and emissions as arrays walked by a  *)
(* cursor instead of per-packet closure lists.                         *)
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
  s_offers : (Context.t -> bool) array;  (* straight into each replica's ring *)
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

(* First branch of [spec] the deliverer satisfies, mirroring the
   interpretive path's [branch_of] — resolved once at compile time. *)
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

(* Every build-time check, run before anything is built: a bad
   configuration is an [Invalid_argument] at deployment, never a failure
   mid-run. [links] arrives normalized (see [make_multi]). *)
let validate ~path ~config ?fault ?overload ?elastic ?links graphs =
  let fail msg = invalid_arg ("System.make_multi: " ^ msg) in
  let compiled_only msg = if path = `Interpretive then fail msg in
  if graphs = [] then fail "no service graphs";
  if not (0.0 <= config.jitter && config.jitter < 1.0) then
    fail "jitter must satisfy 0 <= jitter < 1";
  (match fault with
  | Some (fc : fault_config) ->
      compiled_only "fault injection requires the `Compiled path";
      if not (fc.watchdog_interval_ns > 0.0 && fc.watchdog_deadline_ns > 0.0) then
        fail "fault watchdog interval and deadline must be positive";
      if not (fc.restart_ns >= 0.0 && fc.backoff_max_ns >= 0.0) then
        fail "fault restart_ns and backoff_max_ns must be >= 0";
      if not (fc.backoff_factor >= 1.0) then fail "fault backoff_factor must be >= 1.0"
  | None -> ());
  (match overload with
  | Some (oc : overload_config) ->
      compiled_only "overload control requires the `Compiled path";
      if
        not
          (0 <= oc.low_watermark
          && oc.low_watermark < oc.high_watermark
          && oc.high_watermark <= config.ring_capacity)
      then fail "overload watermarks must satisfy 0 <= low < high <= ring_capacity";
      if oc.pressure_poll_ns <= 0.0 then fail "overload pressure_poll_ns must be positive"
  | None -> ());
  (match elastic with
  | Some (ec : elastic_config) ->
      compiled_only "elastic scale-out requires the `Compiled path";
      if ec.min_replicas < 1 || ec.max_replicas < ec.min_replicas then
        fail "elastic replica bounds must satisfy 1 <= min <= max";
      if ec.buckets < ec.max_replicas then fail "elastic buckets must be >= max_replicas";
      if
        ec.control_interval_ns <= 0.0 || ec.transfer_ns < 0.0
        || ec.migration_deadline_ns <= 0.0
        || ec.commit_retry_ns <= 0.0 || ec.cooldown_ns < 0.0
      then fail "elastic periods must be positive";
      if not (ec.scale_in_occupancy < ec.scale_out_occupancy) then
        fail "elastic occupancy thresholds must satisfy in < out";
      if ec.migration_batch < 1 then fail "elastic migration_batch must be >= 1"
  | None -> ());
  (match links with
  | Some (lc : links_config) ->
      compiled_only "link channels require the `Compiled path";
      if lc.link_window < 1 then fail "links link_window must be >= 1";
      if lc.reorder_window < 1 then fail "links reorder_window must be >= 1";
      if lc.retransmit_budget < 1 then fail "links retransmit_budget must be >= 1";
      if
        lc.ack_interval_ns <= 0.0 || lc.rto_ns <= 0.0 || lc.rto_max_ns <= 0.0
        || lc.probe_interval_ns < 0.0
      then fail "links periods must be positive";
      if lc.rto_backoff < 1.0 then fail "links rto_backoff must be >= 1.0";
      if lc.probe_timeout_k < 1 then fail "links probe_timeout_k must be >= 1"
  | None -> ());
  if config.replicas > 1 then compiled_only "replicas require the `Compiled path"

let make_multi ?(path = `Compiled) ?(classify = `Cached) ?(config = default_config)
    ?fault ?overload ?elastic ?links ?stats ?replication ~graphs engine ~output =
  (* A links config with an empty plan and no reliability layer is
     normalized away entirely — nothing to perturb, nothing to arm
     (bit-identity). *)
  let links =
    match links with
    | Some (lc : links_config)
      when Nfp_sim.Fault.links_empty lc.link_plan && not lc.reliable ->
        None
    | other -> other
  in
  validate ~path ~config ?fault ?overload ?elastic ?links graphs;
  (* Watermarks for every compiled-path ring; [None] (no overload
     config) leaves each ring's latch disarmed — the bit-identity
     guarantee. *)
  let wm =
    match overload with
    | Some (oc : overload_config) -> Some (oc.high_watermark, oc.low_watermark)
    | None -> None
  in
  let degrade_on =
    match overload with Some oc -> oc.degrade_enabled | None -> false
  in
  (* Replica target for strategy-eligible NFs; 1 (the default) keeps
     the deployment bit-identical to the pre-replication system. *)
  let replicas_knob = max 1 config.replicas in
  let cost = config.cost in
  (* Breath size for every core's poll loop; 1 restores per-packet
     (legacy) execution exactly. Both execution paths get the same
     value and the same per-breath amortization, so the
     interpretive/compiled differential is undisturbed at any size. *)
  let batch = max 1 cost.batch in
  let burst_saving_ns = Nfp_sim.Cost.ns_of_cycles cost cost.burst_saving in
  (* Faults are resolved per core by name; [None] everywhere when no
     fault config is given, and [Server.create ?fault:None] is exactly
     the pre-fault server. *)
  let fault_for name =
    match fault with
    | None -> None
    | Some (fc : fault_config) -> Nfp_sim.Fault.for_core fc.plan name
  in
  let merge_timeout_ns = match fault with Some fc -> fc.merge_timeout_ns | None -> 0.0 in
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
  let dedup_on =
    (match fault with
    | Some (fc : fault_config) -> not (Nfp_sim.Fault.is_empty fc.plan)
    | None -> false)
    || elastic <> None || links <> None
  in
  let deduped = ref 0 in
  (* MIDs are 1-based positions in the classification table. *)
  let table = Array.of_list graphs in
  let plan_of_mid mid : Tables.plan =
    let _, p, _ = table.(mid - 1) in
    p
  in
  (* Shard only NFs the profile analysis clears within their graph:
     {!Replication.shardable} additionally vetoes any NF with an
     order-sensitive (Sequential-strategy) NF downstream, since
     sharding changes the cross-flow arrival order those cores see. *)
  let shardable mid name =
    let _, plan, nfs = table.(mid - 1) in
    Replication.shardable ~plan ~nf_of:nfs name
  in
  (* Resolve every plan's NF implementations up front. *)
  let nf_impls =
    List.concat
      (List.mapi
         (fun i (_, (plan : Tables.plan), nfs) ->
           List.map
             (fun (e : Tables.nf_entry) ->
               match nfs e.nf with
               | nf -> (i + 1, e, nf)
               | exception _ ->
                   invalid_arg (Printf.sprintf "System.make: no NF named %S" e.nf))
             plan.nf_entries)
         graphs)
  in
  let ring_drops = ref 0 and nf_drops = ref 0 and unmatched = ref 0 in
  (* Overload counters, shared by the admission controller (built after
     the cores, next to the watchdog) and the per-NF degrade switches
     (inside the replica closures below). *)
  let shed_total = ref 0
  and degraded_packets = ref 0
  and degrade_switches = ref 0 in
  (* Highest admission class any hosted chain declares: the shed ladder
     never climbs past it, so the top class is never shed (anti-
     starvation holds even before the trickle). *)
  let max_class =
    Array.fold_left
      (fun acc (_, (p : Tables.plan), _) -> max acc (max 0 p.Tables.priority))
      0 table
  in
  let shed_class = Array.make (max_class + 1) 0 in
  let prng = Nfp_algo.Prng.create ~seed:config.seed in
  let jitter_for () = (config.jitter, Nfp_algo.Prng.split prng) in
  (* Standby replicas (indices past the static count) draw jitter from
     an independent stream, like the degrade twins: building them must
     not shift the main PRNG and perturb a never-scaling trace. *)
  let elastic_prng =
    Nfp_algo.Prng.create ~seed:(Int64.logxor config.seed 0x31a5_71c5L)
  in
  let elastic_jitter_for () = (config.jitter, Nfp_algo.Prng.split elastic_prng) in
  let packet_bytes ctx version =
    match Context.get ctx version with Some p -> Packet.wire_length p | None -> 1500
  in
  let wire_delay = cost.wire_ns /. 2.0 in
  (* Output-side dedup backstop (armed runs only): a replayed or
     timeout-completed branch must never deliver the same (pid, version)
     twice. Version 0 marks deliveries with no version identity (twin
     chains tag version 1, compiled/interpretive paths their plan
     version), which pass through unfiltered. *)
  let dedup_capacity =
    match fault with Some fc -> max 2 fc.dedup_capacity | None -> 65_536
  in
  let delivered_versions = Dedup.create dedup_capacity in
  let merger_dedups : Dedup.t list ref = ref [] in
  let dedup_entries () =
    Dedup.length delivered_versions
    + List.fold_left (fun acc d -> acc + Dedup.length d) 0 !merger_dedups
  in
  let deliver_out ?(version = 0) ~pid pkt =
    let a = Int64.to_int pid in
    if dedup_on && version > 0 && Dedup.mem delivered_versions ~a ~b:version then
      incr deduped
    else begin
      if dedup_on && version > 0 then Dedup.add delivered_versions ~a ~b:version;
      Nfp_sim.Engine.schedule engine ~delay:wire_delay (fun () -> output ~pid pkt)
    end
  in
  (* Bypass reroutes and timed-out merges emit off-core. *)
  let drive = Nfp_sim.Server.drive engine in
  (* Link channels: one per destination port, shared by every edge into
     that core. All channels share one stats record (the run ledger's
     link taxonomy) and draw fault state from the link plan by name. *)
  let link_stats = Channel.fresh_stats () in
  let link_reliability =
    match links with
    | Some (lc : links_config) when lc.reliable ->
        Some
          {
            Channel.window = max 1 lc.link_window;
            ack_interval_ns = lc.ack_interval_ns;
            rto_ns = lc.rto_ns;
            rto_backoff = lc.rto_backoff;
            rto_max_ns = lc.rto_max_ns;
            retransmit_budget = lc.retransmit_budget;
            reorder_window = max 1 lc.reorder_window;
            probe_interval_ns = lc.probe_interval_ns;
            probe_timeout_k = lc.probe_timeout_k;
            ack_ns = Nfp_sim.Cost.ns_of_cycles cost cost.ack_cycles;
            retransmit_ns = Nfp_sim.Cost.ns_of_cycles cost cost.retransmit_cycles;
          }
    | _ -> None
  in
  let channel_for ~name ~deliver ~reroute =
    match links with
    | None -> None
    | Some (lc : links_config) -> (
        (* Only ports the plan actually perturbs get a channel: an
           unmatched port keeps the direct call path, so arming links
           with a plan that names nothing behaves like no links at
           all, and the ARQ machinery never taxes healthy ports. *)
        match Nfp_sim.Fault.link_for lc.link_plan name with
        | None -> None
        | Some state ->
            Some
              (Channel.create ~engine ~name:("link:" ^ name) ~state
                 ?reliability:link_reliability ~deliver ~reroute ~stats:link_stats
                 ()))
  in
  (* Build-time ports: every destination gets one offer closure, chosen
     once — [Channel.send] when the link plan names the port, otherwise
     [direct]. A core's own port detours a Down link straight into its
     ring off-core: the fabric can be skipped, the core cannot. *)
  let offer_via chan direct =
    match chan with Some ch -> Channel.send ch | None -> direct
  in
  let server_port ?(prefix = "") srv =
    let offer = Nfp_sim.Server.offer srv in
    offer_via
      (channel_for ~name:(prefix ^ Nfp_sim.Server.name srv) ~deliver:offer
         ~reroute:(fun x -> drive (fun () -> offer x)))
      offer
  in
  let slot_of_pid pid instances =
    Int64.to_int
      (Int64.rem
         (Int64.logand (Nfp_algo.Hashing.mix64 pid) Int64.max_int)
         (Int64.of_int (max 1 instances)))
  in
  (* Every compiled-path core registers a probe; the watchdog and the
     [health] counters below work off this list. *)
  let probes : Watchdog.probe list ref = ref [] in
  let register_probe ?nf ?(drain = fun () -> 0) ?(cell = Watchdog.no_cell) server =
    probes := Watchdog.Probe { server; nf; drain; cell } :: !probes
  in
  (* The watchdog exists before the cores: each NF replica takes its
     lossless-recovery cell from it. It starts watching once every core
     has registered its probe (below). *)
  let watchdog = Watchdog.create ~engine ~cost ?fault () in
  let bypassed_packets = ref 0 and merge_timeouts = ref 0 in
  let classify_port, sampler, controller, replication_report =
    match path with
    | `Interpretive ->
        (* ---------------- interpretive construction ---------------- *)
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
                            | Some pkt ->
                                deliver_out ~version ~pid:(Context.pid ctx) pkt
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
                          incr nf_drops;
                          [||]))
            in
            let core =
              Nfp_sim.Server.create ~engine
                ~name:(Printf.sprintf "mid%d:%s" mid entry.nf)
                ~ring_capacity:config.ring_capacity ~batch ~burst_saving_ns
                ~jitter:(jitter_for ()) ~service_ns ~execute ~emit:Nfp_sim.Server.call ()
            in
            Hashtbl.replace nf_cores (mid, entry.nf) core)
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
                if nil_sends = [] then incr nf_drops;
                Array.of_list nil_sends
              end
              else begin
                (* Versions from branches that dropped under a priority policy
                   are half-processed; their ops are skipped. *)
                let nil_versions =
                  List.map (fun (b : Tables.expect) -> b.version) nil_branches
                in
                let get v =
                  if List.mem v nil_versions && v <> spec.result_version then None
                  else Context.get d.ctx v
                in
                List.iter (fun op -> Merge_op.apply op ~get) spec.ops;
                emission_of_actions ~self:(Tables.D_merger d.merge_id) d.ctx spec.next
              end
            end
          in
          Nfp_sim.Server.create ~engine
            ~name:(Printf.sprintf "merger#%d" index)
            ~ring_capacity:config.ring_capacity ~batch ~burst_saving_ns ~jitter:(jitter_for ())
            ~service_ns ~execute ~emit:Nfp_sim.Server.call ()
        in
        merger_cores := Array.init (max 1 config.mergers) make_merger;
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
            Some
              (Nfp_sim.Server.create ~engine ~name:"merger-agent"
                 ~ring_capacity:config.ring_capacity ~batch ~burst_saving_ns
                 ~jitter:(jitter_for ()) ~service_ns ~execute ~emit:Nfp_sim.Server.call ())
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
          Nfp_sim.Server.create ~engine ~name:"classifier"
            ~ring_capacity:config.ring_capacity ~batch ~burst_saving_ns ~jitter:(jitter_for ())
            ~service_ns ~execute ~emit:Nfp_sim.Server.call ()
        in
        let sampler =
          sampler_of classifier
            (Hashtbl.fold (fun _ core acc -> core :: acc) nf_cores [])
            !merger_cores !agent_core
        in
        ( Nfp_sim.Server.offer classifier,
          sampler,
          Elastic.off,
          fun () ->
            List.map
              (fun (mid, (entry : Tables.nf_entry), nf) ->
                let core = Hashtbl.find nf_cores (mid, entry.nf) in
                replica_report ~mid entry [| nf |] [ Nfp_sim.Server.processed core ])
              nf_impls )
    | `Compiled ->
        (* ----------------- compiled construction ------------------- *)
        let slots : slot array ref = ref [||] in
        (* RSS shard steering: hash the 5-tuple of the packet version
           the slot's NF reads, i.e. the one that replica will observe.
           The hash runs on its own seeded stream ([Hashing.rss2_int]) —
           never correlated with the microflow cache's bucket hash — and
           is skipped entirely for single-replica slots, keeping the
           replicas=1 hot path (and trace) bit-identical to the
           pre-replication system. Upstream 5-tuple rewrites (NAT, LB)
           are flow-deterministic, so every packet of a flow hashes
           alike and lands on the same replica. *)
        let rss_hash ctx s =
          match Context.get ctx s.s_entry.Tables.version with
          | None -> 0
          | Some pkt ->
              let a =
                Nfp_algo.Hashing.pack_a_int (Packet.sip_int pkt) (Packet.sport pkt)
                  (Packet.proto pkt)
              in
              let b =
                Nfp_algo.Hashing.pack_b_int (Packet.dip_int pkt) (Packet.dport pkt)
              in
              Nfp_algo.Hashing.rss2_int a b
        in
        let merger_cores : (cdelivery, csend) Nfp_sim.Server.t array ref = ref [||] in
        let agent_core : (cdelivery, unit) Nfp_sim.Server.t option ref = ref None in
        (* Where merge deliveries enter: the merger agent's port, or the
           PID-hashed merger instance's; set once the mergers exist. *)
        let merge_port : (cdelivery -> bool) ref = ref (fun _ -> false) in
        (* The egress edge (merger/NF -> delivery port). The reroute of a
           Down delivery link is delivery itself — the detour models the
           alternate path to the egress NIC, and the exactly-once filter
           upstream keeps it safe. *)
        let deliver_port =
          let deliver (v, pid, pkt) = deliver_out ~version:v ~pid pkt in
          match
            channel_for ~name:"delivery"
              ~deliver:(fun d ->
                deliver d;
                true)
              ~reroute:deliver
          with
          | Some ch -> fun v pid pkt -> Channel.send ch (v, pid, pkt)
          | None ->
              fun v pid pkt ->
                deliver_out ~version:v ~pid pkt;
                true
        in
        (* NF slots: dense indices in nf_impls order. *)
        let slot_of : (int * string, int) Hashtbl.t = Hashtbl.create 16 in
        List.iteri
          (fun i (mid, (e : Tables.nf_entry), _) -> Hashtbl.replace slot_of (mid, e.nf) i)
          nf_impls;
        (* Merge specs per plan, in arrays indexed by merge id. *)
        let cmerge_table =
          Array.mapi
            (fun i (_, (plan : Tables.plan), _) ->
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
            table
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
        (* Runtime: one attempt at one compiled send. A core walks a
           program's send array with its own cursor, which survives
           backpressure retries, so each target is offered in order
           exactly once. *)
        let rec emit_send ctx send =
          match send with
          | S_nf slot -> route_nf ~release:false slot ctx
          | S_merge { merge; branch; nil } ->
              !merge_port { d_ctx = ctx; d_merge = merge; d_branch = branch; d_nil = nil }
          | S_deliver v -> (
              match Context.get ctx v with
              | None -> true
              | Some pkt -> deliver_port v (Context.pid ctx) pkt)
        (* Run a program's copies; its sends are left to the caller. *)
        and exec_prog prog ctx =
          let copies = prog.p_copies in
          for i = 0 to Array.length copies - 1 do
            let c = copies.(i) in
            ignore (Context.copy ctx ~src:c.c_src ~dst:c.c_dst ~full:c.c_full)
          done;
          prog.p_sends
        (* A send array as a retryable thunk, for emissions no core owns. *)
        and emission ctx sends = Nfp_sim.Server.emission emit_send ctx sends
        (* The one routing rule into NF slot [slot]: the send site
           offers to the replicas' ports, a channel releasing a
           buffered packet ([release]) to their rings — so a packet
           parked on a link while a migration flips its bucket, or while
           the watchdog bypasses the replica, lands where it would be
           routed now and can never resurrect a retired owner's state.
           Steered slots look the bucket up in the live map per attempt,
           so a committed flip takes effect for every not-yet-offered
           packet. A bypassed replica is out of the graph: its action
           program runs immediately instead. *)
        and route_nf ~release slot ctx =
          let s = !slots.(slot) in
          let n = Array.length s.s_servers in
          let r =
            if n < 2 then 0
            else
              match s.s_steer with
              | Some st -> Elastic.owner st (rss_hash ctx s)
              | None -> rss_hash ctx s mod n
          in
          if s.s_bypassed.(r) then begin
            bypass s.s_prog ctx;
            true
          end
          else if release then s.s_offers.(r) ctx
          else s.s_ports.(r) ctx
        and bypass prog ctx =
          incr bypassed_packets;
          off_core prog ctx
        (* Run an action program off-core; [drive] absorbs any
           backpressure of that rerouted emission. *)
        and off_core prog ctx = drive (emission ctx (exec_prog prog ctx)) in
        let dyn_cycles prog ctx =
          let srcs = prog.p_full_srcs in
          let n = Array.length srcs in
          if n = 0 then 0
          else begin
            let acc = ref 0 in
            for i = 0 to n - 1 do
              acc :=
                !acc
                + int_of_float
                    (cost.copy_per_byte *. float_of_int (packet_bytes ctx srcs.(i)))
            done;
            !acc
          end
        in
        (* NF slots, in nf_impls order (replica 0 first — at replicas=1
           the same PRNG split order as the interpretive path). Replica
           0 is the caller's NF instance; further replicas are fresh
           instances from [Nf.fresh], each with its own state, recovery
           cell, fault stream and probe. *)
        let build_slot slot (mid, (entry : Tables.nf_entry), (nf0 : Nfp_nf.Nf.t)) =
          let prog = compile_actions ~mid ~self:(Tables.D_nf entry.nf) entry.actions in
          let nil_sends =
            match entry.nil_target with
            | None -> [||]
            | Some id ->
                let m = lookup_merge mid id in
                let branch = branch_index m.m_spec (Tables.D_nf entry.nf) in
                [| S_merge { merge = m; branch; nil = true } |]
          in
          let base_replicas =
            if replicas_knob > 1 && shardable mid entry.nf then replicas_knob else 1
          in
          (* Scalable = the elastic controller may add/remove replicas
             at runtime: the plan clears the NF for sharding AND its
             state supports live extraction ([Replication.migratable]).
             Standby replicas up to the ceiling are built now —
             activation is then a pure steering-map change. *)
          let steer =
            match elastic with
            | Some (ec : elastic_config)
              when ec.max_replicas > 1 && Replication.migratable nf0
                   && shardable mid entry.nf ->
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
          let make_replica r jitter =
            let nf = nfs.(r) in
            let cell = Watchdog.cell watchdog nf in
            let static =
              cost.ring_dequeue + cost.nf_runtime + prog.p_static
              + if Watchdog.logging cell then cost.log_append else 0
            in
            (* Pressure-degrade switch: while this replica's own ring
               sits above the watermark, an NF that declares a degrade
               mode runs its coarsened semantics at its coarsened cost.
               The predicate reads the server created below (through a
               cell, to break the creation cycle); within one breath the
               ring occupancy is constant, so pricing and execution
               always agree per breath. Without an overload config (or
               without a declared mode) [deg] is [None] and this entire
               path is dead code. *)
            let deg = if degrade_on then nf.Nfp_nf.Nf.degrade else None in
            let self_pressured = ref (fun () -> false) in
            let deg_active = ref false in
            let service_ns ctx (c : Nfp_sim.Server.cell) =
              let nf_cycles =
                match Context.get ctx entry.version with
                | Some pkt -> (
                    match deg with
                    | Some d when !self_pressured () -> d.Nfp_nf.Nf.d_cost_cycles pkt
                    | _ -> nf.cost_cycles pkt)
                | None -> 0
              in
              c.ns <-
                Nfp_sim.Cost.ns_of_cycles cost (static + nf_cycles + dyn_cycles prog ctx)
            in
            let execute ctx =
              match Context.get ctx entry.version with
              | None -> [||]
              | Some pkt -> (
                  Watchdog.log cell pkt;
                  let degrade_mode =
                    match deg with
                    | None -> None
                    | Some d ->
                        let p = !self_pressured () in
                        if p <> !deg_active then begin
                          deg_active := p;
                          if p then incr degrade_switches
                        end;
                        if p then Some d else None
                  in
                  let verdict =
                    try
                      match degrade_mode with
                      | Some d ->
                          incr degraded_packets;
                          d.Nfp_nf.Nf.d_process pkt
                      | None -> nf.process pkt
                    with exn ->
                      Log.warn (fun m ->
                          m "NF %s crashed on packet %Ld: %s" entry.nf (Context.pid ctx)
                            (Printexc.to_string exn));
                      Nfp_nf.Nf.Dropped
                  in
                  match verdict with
                  | Nfp_nf.Nf.Forward -> exec_prog prog ctx
                  | Nfp_nf.Nf.Dropped ->
                      if Array.length nil_sends = 0 then incr nf_drops;
                      nil_sends)
            in
            (* Replica 0 keeps the historical core name; shards get an
               @r suffix, so fault plans can target (and crash) each
               replica independently. *)
            let name =
              if r = 0 then Printf.sprintf "mid%d:%s" mid entry.nf
              else Printf.sprintf "mid%d:%s@%d" mid entry.nf r
            in
            let server =
              Nfp_sim.Server.create ~engine ~name ~ring_capacity:config.ring_capacity ~batch
                ~burst_saving_ns ~jitter ?watermarks:wm ?fault:(fault_for name) ~service_ns
                ~execute ~emit:emit_send ()
            in
            self_pressured := (fun () -> Nfp_sim.Server.pressured server);
            (* Bypass recovery: mark the replica, reroute this core's
               casualties (the in-flight batch its kill reclaimed, and
               any pending emissions) plus the queued backlog through
               its action program, so every packet lands in exactly one
               ledger bucket and no merger waits on this branch. Other
               replicas of the slot keep processing. *)
            let drain () =
              bypassed.(r) <- true;
              Nfp_sim.Server.set_casualty_sink server (fun jobs emits ->
                  List.iter (bypass prog) jobs;
                  List.iter drive emits);
              let backlog = Nfp_sim.Server.drain server in
              List.iter (bypass prog) backlog;
              List.length backlog
            in
            register_probe ~nf:(mid, entry.nf) ~drain ~cell server;
            (server, cell)
          in
          (* Build replicas in index order: each creation splits the
             jitter PRNG, and the replicas=1 trace must keep the
             historical split sequence. Standby replicas (index >= the
             static count) split the independent elastic stream instead,
             leaving the main sequence untouched. *)
          let replicas =
            Array.init n_replicas (fun r ->
                make_replica r
                  (if r < base_replicas then jitter_for () else elastic_jitter_for ()))
          in
          let servers = Array.map fst replicas in
          let offers = Array.map Nfp_sim.Server.offer servers in
          (* A channel releases through [route_nf] over the replicas'
             rings, so steering and bypass are re-resolved at release
             time. The reroute of a Down link runs the slot's action
             program off-core, bypass-style: downstream sees every
             expected branch. *)
          let links =
            Array.map
              (fun srv ->
                channel_for ~name:(Nfp_sim.Server.name srv)
                  ~deliver:(route_nf ~release:true slot) ~reroute:(off_core prog))
              servers
          in
          {
            s_mid = mid;
            s_entry = entry;
            s_prog = prog;
            s_servers = servers;
            s_nfs = nfs;
            s_cells = Array.map snd replicas;
            s_offers = offers;
            s_links = links;
            s_ports = Array.map2 offer_via links offers;
            s_bypassed = bypassed;
            s_steer = Option.map snd steer;
          }
        in
        slots := Array.of_list (List.mapi build_slot nf_impls);
        (* Migration transfers get their own link family
           ("migrate:<replica>"): moved in-flight packets cross the
           fabric like any other edge, so a plan can perturb the re-home
           path independently of the data path. *)
        let elastic_slot s =
          match s.s_steer with
          | None -> []
          | Some steer ->
              [
                {
                  Elastic.servers = s.s_servers;
                  nfs = s.s_nfs;
                  cells = s.s_cells;
                  steer;
                  hash = (fun ctx -> rss_hash ctx s);
                  reachable =
                    (fun r ->
                      match s.s_links.(r) with
                      | Some ch -> not (Channel.is_down ch)
                      | None -> true);
                  rehome =
                    Array.map
                      (fun srv ->
                        let port = server_port ~prefix:"migrate:" srv in
                        fun ctx -> drive (fun () -> port ctx))
                      s.s_servers;
                };
              ]
        in
        let controller =
          match elastic with
          | None -> Elastic.off
          | Some ec ->
              Elastic.create ~engine ?fault ec ~ring_capacity:config.ring_capacity
                ~busy:(fun () ->
                  List.exists
                    (fun (Watchdog.Probe p) ->
                      Nfp_sim.Server.queue_length p.server > 0
                      || Nfp_sim.Server.is_busy p.server)
                    !probes)
                (List.concat_map elastic_slot (Array.to_list !slots))
        in
        (* Merge completion, shared by the full-arrival path and the
           timeout path. [nil_mask] decides the drop policy; [skip_mask]
           marks branches whose versions must not feed the merge ops —
           nil branches (half-processed) and, on a timeout, branches
           that never arrived. With [skip_mask = nil_mask] this is
           exactly the pre-timeout completion. *)
        let complete m ctx ~nil_mask ~skip_mask =
          let dropped =
            if m.m_drop_any then nil_mask <> 0 else nil_mask land (1 lsl m.m_winner) <> 0
          in
          if dropped then begin
            if Array.length m.m_nil_sends = 0 then incr nf_drops;
            m.m_nil_sends
          end
          else begin
            (if skip_mask = 0 then
               let get v = Context.get ctx v in
               Array.iter (fun op -> Merge_op.apply op ~get) m.m_ops
             else begin
               (* Versions from branches that dropped under a priority
                  policy are half-processed; their ops are skipped. *)
               let skip_versions = ref [] in
               Array.iteri
                 (fun b v ->
                   if skip_mask land (1 lsl b) <> 0 then
                     skip_versions := v :: !skip_versions)
                 m.m_versions;
               let svs = !skip_versions in
               let get v =
                 if List.mem v svs && v <> m.m_result_version then None
                 else Context.get ctx v
               in
               Array.iter (fun op -> Merge_op.apply op ~get) m.m_ops
             end);
            exec_prog m.m_next ctx
          end
        in
        let make_merger index =
          let at : cat_entry Nfp_algo.Pair_table.t = Nfp_algo.Pair_table.create () in
          (* Completed-merge memory (armed runs only): a branch arriving
             after its merge already completed — a straggler emitted by
             a salvaged core after a merge timeout force-completed the
             accumulation, or a late retransmission of a branch a
             timeout already nil-substituted — is consumed silently
             instead of opening a fresh accumulation that would deliver
             a duplicate. Mergers never see the same (MID, merge, PID)
             complete twice within the bounded dedup window. *)
          let done_tbl = Dedup.create dedup_capacity in
          merger_dedups := done_tbl :: !merger_dedups;
          let service_ns (d : cdelivery) (cell : Nfp_sim.Server.cell) =
            let m = d.d_merge in
            cell.ns <-
              Nfp_sim.Cost.ns_of_cycles cost
                (cost.ring_dequeue + cost.merge_delivery
                + ((m.m_completion_static + dyn_cycles m.m_next d.d_ctx) / max 1 m.m_expected)
                )
          in
          let execute (d : cdelivery) =
            let m = d.d_merge in
            let a = Int64.to_int (Context.pid d.d_ctx)
            and b = Dedup.merge_limb ~mid:m.m_mid ~merge_id:m.m_id in
            if dedup_on && Dedup.mem done_tbl ~a ~b then begin
              incr deduped;
              [||]
            end
            else begin
              let entry =
                match Nfp_algo.Pair_table.find at ~a ~b with
                | -1 ->
                    let e = { c_received = 0; c_nil_mask = 0; c_arrived_mask = 0 } in
                    Nfp_algo.Pair_table.replace at ~a ~b e;
                    (* Arm the straggler timeout when this accumulation
                       opens: if a failed branch never shows up, merge
                       what did arrive rather than wedge the packet (the
                       drop policy still applies to arrived nils). *)
                    if merge_timeout_ns > 0.0 then
                      Nfp_sim.Engine.schedule engine ~delay:merge_timeout_ns (fun () ->
                          let s = Nfp_algo.Pair_table.find at ~a ~b in
                          if s >= 0 && Nfp_algo.Pair_table.value at s == e then begin
                            Nfp_algo.Pair_table.remove at ~a ~b;
                            if dedup_on then Dedup.add done_tbl ~a ~b;
                            incr merge_timeouts;
                            let missing =
                              ((1 lsl m.m_expected) - 1) land lnot e.c_arrived_mask
                            in
                            drive
                              (emission d.d_ctx
                                 (complete m d.d_ctx ~nil_mask:e.c_nil_mask
                                    ~skip_mask:(e.c_nil_mask lor missing)))
                          end);
                    e
                | s -> Nfp_algo.Pair_table.value at s
              in
              entry.c_received <- entry.c_received + 1;
              if d.d_branch >= 0 then
                entry.c_arrived_mask <- entry.c_arrived_mask lor (1 lsl d.d_branch);
              if d.d_nil && d.d_branch >= 0 then
                entry.c_nil_mask <- entry.c_nil_mask lor (1 lsl d.d_branch);
              if entry.c_received < m.m_expected then [||]
              else begin
                Nfp_algo.Pair_table.remove at ~a ~b;
                if dedup_on then Dedup.add done_tbl ~a ~b;
                complete m d.d_ctx ~nil_mask:entry.c_nil_mask ~skip_mask:entry.c_nil_mask
              end
            end
          in
          let name = Printf.sprintf "merger#%d" index in
          let server =
            Nfp_sim.Server.create ~engine ~name ~ring_capacity:config.ring_capacity
              ~batch ~burst_saving_ns ~jitter:(jitter_for ()) ?watermarks:wm
              ?fault:(fault_for name) ~service_ns ~execute
              ~emit:(fun (d : cdelivery) send -> emit_send d.d_ctx send)
              ()
          in
          register_probe server;
          server
        in
        merger_cores := Array.init (max 1 config.mergers) make_merger;
        let merger_ports = Array.map server_port !merger_cores in
        merge_port :=
          (fun (d : cdelivery) ->
            merger_ports.(slot_of_pid (Context.pid d.d_ctx) (Array.length merger_ports)) d);
        if config.mergers > 1 then begin
          let agent_ns =
            Nfp_sim.Cost.ns_of_cycles cost
              (cost.ring_dequeue + cost.merger_agent + cost.ring_enqueue)
          in
          let service_ns _ (cell : Nfp_sim.Server.cell) = cell.ns <- agent_ns in
          (* The agent's one send per job is the hop to the PID's merger
             instance; there is nothing to say about it but "go". *)
          let hop = [| () |] in
          let agent =
            Nfp_sim.Server.create ~engine ~name:"merger-agent"
              ~ring_capacity:config.ring_capacity ~batch ~burst_saving_ns
              ~jitter:(jitter_for ()) ?watermarks:wm ?fault:(fault_for "merger-agent")
              ~service_ns
              ~execute:(fun _ -> hop)
              ~emit:(fun (d : cdelivery) () ->
                merger_ports.(slot_of_pid (Context.pid d.d_ctx) (Array.length merger_ports)) d)
              ()
          in
          register_probe agent;
          merge_port := server_port agent;
          agent_core := Some agent
        end;
        let classifier_progs =
          Array.init (Array.length table) (fun i ->
              compile_actions ~mid:(i + 1) ~self:(Tables.D_nf "classifier")
                (plan_of_mid (i + 1)).classifier_actions)
        in
        let classifier =
          let service_ns (ctx : Context.t) (cell : Nfp_sim.Server.cell) =
            let prog = classifier_progs.(Context.mid ctx - 1) in
            cell.ns <-
              Nfp_sim.Cost.ns_of_cycles cost
                (cost.classifier + prog.p_static + dyn_cycles prog ctx)
          in
          let execute ctx = exec_prog classifier_progs.(Context.mid ctx - 1) ctx in
          let clf =
            Nfp_sim.Server.create ~engine ~name:"classifier"
              ~ring_capacity:config.ring_capacity ~batch ~burst_saving_ns
              ~jitter:(jitter_for ()) ?watermarks:wm ?fault:(fault_for "classifier")
              ~service_ns ~execute ~emit:emit_send ()
          in
          register_probe clf;
          clf
        in
        let sampler =
          sampler_of classifier
            (List.concat_map (fun s -> Array.to_list s.s_servers) (Array.to_list !slots))
            !merger_cores !agent_core
        in
        ( Nfp_sim.Server.offer classifier,
          sampler,
          controller,
          fun () ->
            Array.to_list
              (Array.map
                 (fun s ->
                   replica_report ~mid:s.s_mid s.s_entry s.s_nfs
                     (Array.to_list (Array.map Nfp_sim.Server.processed s.s_servers)))
                 !slots) )
  in
  (* Classifier front end: CT match, metadata tagging, first-hop actions.
     Unmatched packets are discarded (no service graph owns them) and
     counted separately from NF drops. [`Cached] resolves the flow
     through the two-level classifier (microflow cache over the
     tuple-space matcher); [`Scan] is the linear first-match reference.
     Both charge their structural cycles (zero under the default cost
     model) as added delay ahead of the classifier core. *)
  let ct = Array.map (fun (m, _, _) -> m) table in
  let clf = Nfp_packet.Classifier.create ct in
  (* [classify_pkt] resolves the MID (0 = no rule matches) and leaves
     the structural cycle charge in [classify_cycles] (an int ref, so
     storing it never allocates). The [`Cached] arm reads the 5-tuple
     straight from packet bytes and is allocation-free on a microflow
     hit; [`Scan] is the reference path and keeps its boxed forms. *)
  let classify_cycles = ref 0 in
  let classify_pkt pkt =
    match classify with
    | `Cached ->
        let mid = Nfp_packet.Classifier.classify_packet clf pkt in
        let probed = Nfp_packet.Classifier.last_probes clf in
        classify_cycles :=
          (if probed < 0 then cost.classify_hit
           else cost.classify_hit + (cost.classify_group * probed));
        mid
    | `Scan -> (
        let result, examined = Nfp_packet.Classifier.scan ct (Packet.flow pkt) in
        classify_cycles := cost.classify_rule * examined;
        match result with Some m -> m | None -> 0)
  in
  (match stats with None -> () | Some cell -> cell := sampler);
  (* Replication report: strategy, replica fan-out and per-replica
     processed counts for every NF, plus the merged state digest. Call
     it after a run drains — the digest reads live NF state. *)
  (match replication with None -> () | Some cell -> cell := replication_report);
  (* ---------------------------------------------------------------- *)
  (* Degrade fallback: one sequential twin chain per service graph,   *)
  (* built from the plan's provably-equivalent serial order. While a  *)
  (* graph is degraded, new packets run the chain instead of the      *)
  (* parallel deployment. Twin cores draw jitter from a PRNG stream   *)
  (* independent of the main one, so building them does not perturb   *)
  (* the fault-free trace (the differential test holds this).         *)
  (* ---------------------------------------------------------------- *)
  let twin_heads =
    match fault with
    | None -> [||]
    | Some _ ->
        let twin_prng =
          Nfp_algo.Prng.create ~seed:(Int64.logxor config.seed 0x5eed_f417L)
        in
        Array.init (Array.length table) (fun i ->
            let mid = i + 1 in
            let plan = plan_of_mid mid in
            let chain =
              List.filter_map
                (fun name ->
                  List.find_map
                    (fun (m, (e : Tables.nf_entry), nf) ->
                      if m = mid && e.nf = name then Some (name, (nf : Nfp_nf.Nf.t))
                      else None)
                    nf_impls)
                plan.serial_order
            in
            let rec build = function
              | [] -> None
              | (name, (nf : Nfp_nf.Nf.t)) :: rest ->
                  let next = build rest in
                  let service_ns ((_, pkt) : int64 * Packet.t) (cell : Nfp_sim.Server.cell) =
                    cell.ns <-
                      Nfp_sim.Cost.ns_of_cycles cost
                        (cost.ring_dequeue + cost.nf_runtime + nf.cost_cycles pkt
                       + cost.ring_enqueue)
                  in
                  (* A twin's one send per forwarded job is the hop to
                     the next twin core. *)
                  let hop = [| () |] in
                  let emit job () =
                    match next with Some core -> Nfp_sim.Server.offer core job | None -> true
                  in
                  let execute (pid, pkt) =
                    let verdict =
                      try nf.process pkt
                      with exn ->
                        Log.warn (fun m ->
                            m "NF %s (sequential fallback) crashed on packet %Ld: %s"
                              name pid (Printexc.to_string exn));
                        Nfp_nf.Nf.Dropped
                    in
                    match verdict with
                    | Nfp_nf.Nf.Forward -> (
                        match next with
                        | Some _ -> hop
                        | None ->
                            deliver_out ~version:1 ~pid pkt;
                            [||])
                    | Nfp_nf.Nf.Dropped ->
                        incr nf_drops;
                        [||]
                  in
                  let cname = Printf.sprintf "seq:mid%d:%s" mid name in
                  let core =
                    Nfp_sim.Server.create ~engine ~name:cname
                      ~ring_capacity:config.ring_capacity ~batch ~burst_saving_ns
                      ~jitter:(config.jitter, Nfp_algo.Prng.split twin_prng)
                      ?watermarks:wm ?fault:(fault_for cname) ~service_ns ~execute ~emit ()
                  in
                  register_probe core;
                  Some core
            in
            build chain)
  in
  (* Watchdog: per-core progress heartbeats. A core is healthy while it
     processes packets or at least retries a stalled emission
     (backpressure is not failure); a core with queued work and a frozen
     heartbeat past the deadline is declared failed and its recovery
     policy runs. *)
  let probe_arr = Array.of_list (List.rev !probes) in
  let degraded = Array.make (Array.length table) false in
  Watchdog.watch watchdog ~degraded probe_arr;
  (* ---------------------------------------------------------------- *)
  (* Admission controller (overload config only). An escalating shed   *)
  (* level L with per-poll hysteresis: while any core's watermark      *)
  (* latch is raised, L climbs one class per poll interval (capped at  *)
  (* the deployment's highest class, which is therefore never shed);   *)
  (* when pressure clears, L relaxes one class per poll. A classified  *)
  (* packet whose chain's admission class is below L is refused at the *)
  (* NIC boundary — except a deterministic 1-in-K trickle per class,   *)
  (* so no class ever starves outright.                                *)
  (* ---------------------------------------------------------------- *)
  let shed_level = ref 0 in
  let last_poll = ref neg_infinity in
  let trickle_seen = Array.make (max_class + 1) 0 in
  let shed_packet =
    match overload with
    | None -> fun _ -> false
    | Some (oc : overload_config) ->
        fun mid ->
          let now = Nfp_sim.Engine.now engine in
          if now -. !last_poll >= oc.pressure_poll_ns then begin
            last_poll := now;
            let pressured =
              Array.exists
                (fun (Watchdog.Probe p) -> Nfp_sim.Server.pressured p.server)
                probe_arr
            in
            if pressured then begin
              if !shed_level < max_class then incr shed_level
            end
            else if !shed_level > 0 then decr shed_level
          end;
          let cls = max 0 (min max_class (plan_of_mid mid).Tables.priority) in
          if cls >= !shed_level then false
          else begin
            trickle_seen.(cls) <- trickle_seen.(cls) + 1;
            if oc.shed_trickle > 0 && trickle_seen.(cls) mod oc.shed_trickle = 0 then
              false
            else begin
              incr shed_total;
              shed_class.(cls) <- shed_class.(cls) + 1;
              true
            end
          end
  in
  let health () =
    let cores =
      Array.to_list
        (Array.mapi
           (fun i (Watchdog.Probe { server = s; _ }) ->
             let name = Nfp_sim.Server.name s in
             {
               Nfp_sim.Harness.core = name;
               state =
                 (match Watchdog.state watchdog i with
                 | Some s -> s
                 | None when Nfp_sim.Server.is_down s -> "down"
                 | None -> Option.value (controller.core_state name) ~default:"up");
               processed = Nfp_sim.Server.processed s;
               queue = Nfp_sim.Server.queue_length s;
             })
           probe_arr)
    in
    let sum f = Array.fold_left (fun acc p -> acc + f p) 0 probe_arr in
    let rejected_total = sum (fun (Watchdog.Probe p) -> Nfp_sim.Server.rejected p.server) in
    let w = Watchdog.counters watchdog in
    {
      Nfp_sim.Harness.cores;
      detections = w.detections;
      crashes = sum (fun (Watchdog.Probe p) -> Nfp_sim.Server.crashes p.server);
      restarts = w.restarts;
      bypasses = w.bypasses;
      degrades = w.degrades;
      recoveries = w.recoveries;
      bypassed_packets = !bypassed_packets;
      checkpoints = w.checkpoints;
      forced_checkpoints = w.forced_checkpoints;
      replayed = w.replayed;
      deduped = !deduped;
      salvaged = w.salvaged;
      drops =
        {
          Nfp_sim.Harness.ingress_rejected = !ring_drops;
          (* [ring_drops] counts exactly the NIC-boundary offer
             refusals (the only [offer] sites outside a server are in
             [inject]); every other refusal a server ring recorded is a
             backpressure retry event, not a loss. *)
          internal_rejected = max 0 (rejected_total - !ring_drops);
          nf_dropped = !nf_drops;
          no_match = !unmatched;
          fault_dropped = sum (fun (Watchdog.Probe p) -> Nfp_sim.Server.fault_drops p.server);
          flush_lost = sum (fun (Watchdog.Probe p) -> Nfp_sim.Server.flushed p.server);
          merge_timed_out = !merge_timeouts;
          shed = !shed_total;
          shed_by_class =
            (match overload with
            | None -> []
            | Some _ -> Array.to_list (Array.mapi (fun c n -> (c, n)) shed_class));
          degraded = !degraded_packets;
        };
      pressure_episodes =
        sum (fun (Watchdog.Probe p) -> Nfp_sim.Server.pressure_episodes p.server);
      breaker_trips = w.breaker_trips;
      backoffs = w.backoffs;
      degrade_switches = !degrade_switches;
      scale_outs = controller.scale_outs;
      scale_ins = controller.scale_ins;
      migrations = controller.migrations;
      migration_aborts = controller.migration_aborts;
      migrated_packets = controller.migrated_packets;
      migrating = controller.migrating ();
      links =
        {
          Nfp_sim.Harness.link_drops = link_stats.Channel.link_drops;
          retransmits = link_stats.Channel.retransmits;
          duplicates_suppressed = link_stats.Channel.duplicates_suppressed;
          reordered = link_stats.Channel.reordered;
          partitions = link_stats.Channel.partitions;
          reroutes = link_stats.Channel.reroutes;
        };
      dedup_entries = (if dedup_on then dedup_entries () else 0);
    }
  in
  {
    Nfp_sim.Harness.inject =
      (fun ~pid pkt ->
        Watchdog.kick watchdog;
        Elastic.kick controller;
        let mid = classify_pkt pkt in
        Nfp_sim.Engine.schedule engine
          ~delay:(wire_delay +. Nfp_sim.Cost.ns_of_cycles cost !classify_cycles)
          (fun () ->
            if mid = 0 then incr unmatched
            else if shed_packet mid then
              (* Refused by the admission controller: counted (total and
                 per class) and gone — deliberately, before it can cost
                 a ring slot or a core cycle. *)
              ()
            else if degraded.(mid - 1) then (
              (* Sequential fallback: tag the packet as the
                 classifier would and run the twin chain. *)
              Packet.stamp pkt ~mid ~pid ~version:1;
              match twin_heads.(mid - 1) with
              | Some head ->
                  if not (Nfp_sim.Server.offer head (pid, pkt)) then
                    incr ring_drops
              | None -> deliver_out ~version:1 ~pid pkt)
            else
              let ctx = Context.create ~pid ~mid pkt in
              if not (classify_port ctx) then incr ring_drops));
    classifier =
      (fun () ->
        {
          Nfp_sim.Harness.hits = Nfp_packet.Classifier.cache_hits clf;
          misses = Nfp_packet.Classifier.cache_misses clf;
          evictions = Nfp_packet.Classifier.cache_evictions clf;
        });
    health;
  }

let make ?path ?classify ?config ?fault ?overload ?elastic ?links ?stats ?replication
    ~plan ~nfs engine ~output =
  make_multi ?path ?classify ?config ?fault ?overload ?elastic ?links ?stats ?replication
    ~graphs:[ (Flow_match.any, plan, nfs) ]
    engine ~output
