(* The four benchmark workloads. Each fixes its offered rates, its
   deployment and its traffic; everything random derives from the
   benchmark seed. The reasons each one exists are recorded next to it
   and in BENCHMARK.json.

   Rates and run sizes were tuned on seeds 1 and 11-15, checked for
   run-to-run spread on seeds 21-30, and seed 101 is held out: it passes
   every correctness check on every workload in both modes. *)

open Nfp_core
module Packet = Nfp_packet.Packet
module System = Nfp_infra.System

type graph = {
  rule : Nfp_packet.Flow_match.t;
  plan : Tables.plan;
  kinds : (string * string) list;  (** plan instance name -> NF kind *)
}

type reference =
  | Sequential
      (** each delivered packet must equal its run through the graph's
          serial order on fresh NF instances *)
  | Fault_free
      (** the delivered multiset must equal that of the same deployment
          with no faults and no links *)

type t = {
  name : string;
  nominal_mpps : float;  (** latency and simulator-speed rate *)
  high_mpps : float;
      (** 70-80% of the knee at the tuning seeds: nearer the knee the
          p99 swung with the seed by more than a bound could absorb *)
  search_lo : float;
  search_hi : float;  (** lossless-rate bisection bracket *)
  search_packets : int;  (** packets per bisection probe *)
  packets : int;  (** packets per fixed-rate run *)
  setup_batch : int;  (** setups per timed batch, about 0.1 s of work *)
  config : System.config;  (** [seed] is replaced by the benchmark seed *)
  plans : unit -> graph list;  (** policy compile and [Tables.plan] *)
  instantiate : name:string -> kind:string -> Nfp_nf.Nf.t;
  fault : seed:int64 -> System.fault_config option;
  links : seed:int64 -> System.links_config option;
  traffic : seed:int64 -> int -> int -> Packet.t;
      (** [traffic ~seed n i] is the template of packet [i] of any run
          of up to [n] packets; each run sends a fresh copy of it *)
  reference : reference;
}

let plan_exn = function Ok p -> p | Error e -> failwith e

let registry ~name ~kind =
  match Nfp_nf.Registry.instantiate kind ~name with
  | Some nf -> nf
  | None -> failwith ("no implementation for " ^ kind)

(* [n] Pktgen frames, replayed in a loop by longer runs. *)
let pktgen ~seed ~sizes ~flows n =
  let g =
    Nfp_traffic.Pktgen.create { Nfp_traffic.Pktgen.default with sizes; flows; seed }
  in
  let a = Array.init n (Nfp_traffic.Pktgen.packet g) in
  fun i -> a.(i mod n)

let no_fault ~seed:_ = None
let no_links ~seed:_ = None

(* Five Forwarders in sequence, 64 B frames, NIC cap lifted (the batch
   bench's rig): trivial NFs, one always-hit classifier rule and no
   merger, so per-packet runtime cost — engine, rings, breath dispatch,
   harness — and GC work dominate host time. *)
let fwd_chain64 =
  let kinds = List.init 5 (fun i -> (Printf.sprintf "fwd%d" i, "Forwarder")) in
  {
    name = "fwd_chain64";
    nominal_mpps = 14.0;
    high_mpps = 17.0;
    search_lo = 1.0;
    search_hi = 40.0;
    search_packets = 16_000;
    packets = 60_000;
    setup_batch = 20;
    config = System.default_config;
    plans =
      (fun () ->
        let profile_of n = Nfp_nf.Registry.profile_of (List.assoc n kinds) in
        let graph = Graph.seq (List.map (fun (n, _) -> Graph.nf n) kinds) in
        [
          {
            rule = Nfp_packet.Flow_match.any;
            plan = plan_exn (Tables.plan ~profile_of graph);
            kinds;
          };
        ]);
    instantiate = registry;
    fault = no_fault;
    links = no_links;
    traffic =
      (fun ~seed n -> pktgen ~seed ~sizes:(Nfp_traffic.Size_dist.fixed 64) ~flows:256 n);
    reference = Sequential;
  }

(* The paper's west-east chain (IPS, Monitor, LoadBalancer) compiled into
   ids -> (mon | lb) with one header copy, over the IMC data-center size
   mix: Aho-Corasick over ~724 B payloads makes NF code the largest
   share of host time, the IDS core is the modeled bottleneck, and the
   copy and merger paths run. *)
let westeast_imc =
  let kinds = [ ("ids", "IPS"); ("mon", "Monitor"); ("lb", "LoadBalancer") ] in
  {
    name = "westeast_imc";
    nominal_mpps = 0.3;
    high_mpps = 0.37;
    search_lo = 0.05;
    search_hi = 2.0;
    search_packets = 12_000;
    packets = 100_000;
    setup_batch = 50;
    config = System.default_config;
    plans =
      (fun () ->
        let policy =
          {
            Nfp_policy.Rule.bindings = kinds;
            rules = Nfp_policy.Rule.of_chain (List.map fst kinds);
          }
        in
        let out =
          match Compiler.compile policy with
          | Ok o -> o
          | Error es -> failwith (String.concat "; " es)
        in
        [ { rule = Nfp_packet.Flow_match.any; plan = plan_exn (Tables.of_output out); kinds } ]);
    instantiate = registry;
    fault = no_fault;
    links = no_links;
    traffic =
      (* A pool of 16384 frames (~12 MB) replayed in a loop keeps the
         process small; every flow appears four times in it. *)
      (fun ~seed n ->
        pktgen ~seed ~sizes:Nfp_traffic.Size_dist.datacenter ~flows:4096 (min n 16_384));
    reference = Sequential;
  }

(* 256 single-Forwarder tenant graphs behind one classifier, charged
   under Cost.classified. Tenant t owns dip 10.0.t.0/24; odd tenants
   also pin UDP and tenants with bit 1 set carry a source-port range, so
   the table spans four mask shapes. A run draws its packets uniformly
   from a pool of 131072 flows, twice the microflow cache's 65536
   entries, and is four times as long as the pool, so each flow recurs
   about four times: the first touch of a flow is a compulsory miss, and
   the larger part of the misses after it come from the cache's
   capacity. The other fixed-rate workloads stay inside the cache. The
   16000-packet bisection probes see mostly first touches, so the knee
   is that of a classifier that almost always misses. *)
let tenants = 256
let tenant_flows = 131_072

let tenant_rule t =
  let dip = Int32.of_int ((10 lsl 24) lor (t lsl 8)) in
  Nfp_packet.Flow_match.make ~dip_prefix:(dip, 24)
    ?proto:(if t land 1 = 1 then Some 17 else None)
    ?sport_range:(if t land 2 = 2 then Some (1024, 65535) else None)
    ()

let tenant_flow fid =
  let t = fid mod tenants in
  let host = (fid / tenants) land 0xff in
  Nfp_packet.Flow.make
    ~sip:(Int32.of_int ((10 lsl 24) lor ((200 + (fid lsr 16)) lsl 16) lor (fid land 0xffff)))
    ~dip:(Int32.of_int ((10 lsl 24) lor (t lsl 8) lor host))
    ~sport:(1024 + (fid land 0x7fff))
    ~dport:80
    ~proto:(if t land 1 = 1 then 17 else 6)

let tenants_miss =
  {
    name = "tenants_miss";
    nominal_mpps = 14.0;
    high_mpps = 17.0;
    search_lo = 1.0;
    search_hi = 40.0;
    search_packets = 16_000;
    packets = 4 * tenant_flows;
    setup_batch = 4;
    config = { System.default_config with cost = Nfp_sim.Cost.classified };
    plans =
      (fun () ->
        let profile_of _ = Nfp_nf.Registry.profile_of "Forwarder" in
        List.init tenants (fun t ->
            let name = Printf.sprintf "fwd%d" t in
            {
              rule = tenant_rule t;
              plan = plan_exn (Tables.plan ~profile_of (Graph.nf name));
              kinds = [ (name, "Forwarder") ];
            }));
    (* 64 routes per tenant FIB rather than the paper's 1000: 256 full
       FIBs take 72 MB and would dominate setup, which here should
       measure the plans and the deployment. *)
    instantiate = (fun ~name ~kind:_ -> fst (Nfp_nf.L3_forwarder.create ~name ~routes:64 ()));
    fault = no_fault;
    links = no_links;
    traffic =
      (fun ~seed n ->
        let payload = String.make 46 'x' in
        let pool =
          Array.init tenant_flows (fun fid -> Packet.create ~flow:(tenant_flow fid) ~payload ())
        in
        let prng = Nfp_algo.Prng.create ~seed in
        let draws = Array.init n (fun _ -> Nfp_algo.Prng.int prng ~bound:tenant_flows) in
        fun i -> pool.(draws.(i)));
    reference = Sequential;
  }

(* Four parallel Firewalls (+300 cycles) with header copies and two
   mergers, over reliable channels with 1% loss on every link, and
   lossless Restart with checkpoints under a sparse seeded crash storm:
   each firewall crashes once, at a seeded time inside its own 1 ms
   window, all within the high-rate run and the first early enough to
   fall inside every bisection probe near the knee. The only workload
   that runs Channel, dedup, checkpoint/replay and the watchdog. Sparse
   on purpose: a dense storm pins even the median at the outage length
   and hides every other layer. At the nominal rate the four ~0.1 ms
   outages hold about 0.6% of the packets, so p99 is set by link
   recovery and p99.9 by crash recovery, averaged over four outages. *)
let fw_names = [ "fw0"; "fw1"; "fw2"; "fw3" ]

let lossy_recovery =
  {
    name = "lossy_recovery";
    nominal_mpps = 1.0;
    high_mpps = 3.5;
    search_lo = 0.25;
    search_hi = 8.0;
    search_packets = 16_000;
    packets = 80_000;
    setup_batch = 100;
    config = { System.default_config with mergers = 2; ring_capacity = 512 };
    plans =
      (fun () ->
        let profile_of _ = Nfp_nf.Registry.profile_of "Firewall" in
        let graph = Graph.par (List.map Graph.nf fw_names) in
        [
          {
            rule = Nfp_packet.Flow_match.any;
            plan = plan_exn (Tables.plan ~copy_mode:`Copy_all ~profile_of graph);
            kinds = List.map (fun n -> (n, "Firewall")) fw_names;
          };
        ]);
    instantiate =
      (fun ~name ~kind:_ -> fst (Nfp_nf.Firewall.create ~name ~extra_cycles:300 ()));
    fault =
      (fun ~seed ->
        let prng = Nfp_algo.Prng.create ~seed in
        let at lo_ms = (lo_ms +. Nfp_algo.Prng.float prng) *. 1e6 in
        let crash core lo_ms =
          { Nfp_sim.Fault.core; events = [ Nfp_sim.Fault.Crash { at_ns = at lo_ms } ] }
        in
        Some
          {
            System.default_fault_config with
            plan =
              Nfp_sim.Fault.plan ~seed
                [
                  crash "mid1:fw0" 1.0;
                  crash "mid1:fw1" 6.0;
                  crash "mid1:fw2" 11.0;
                  crash "mid1:fw3" 16.0;
                ];
            (* A fast container restart keeps each outage short enough
               to be buffered at the high rate. *)
            watchdog_interval_ns = 10_000.0;
            watchdog_deadline_ns = 40_000.0;
            restart_ns = 50_000.0;
            (* At low load the checkpoint clock restarts with every
               watchdog wake-up, so periodic checkpoints rarely fire and
               replay would grow to the whole log; a short log bounds
               each replay through forced checkpoints instead. *)
            log_capacity = 128;
            (* Lossless restart re-delivers every branch, so no merge is
               ever force-completed. *)
            merge_timeout_ns = 0.0;
          });
    links =
      (fun ~seed ->
        Some
          {
            System.default_links_config with
            link_plan = Nfp_sim.Fault.link_plan ~seed [ Nfp_sim.Fault.loss ~probability:0.01 "*" ];
          });
    traffic =
      (fun ~seed n -> pktgen ~seed ~sizes:(Nfp_traffic.Size_dist.fixed 64) ~flows:256 n);
    reference = Fault_free;
  }

let all = [ fwd_chain64; westeast_imc; tenants_miss; lossy_recovery ]
