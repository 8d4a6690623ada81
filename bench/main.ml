(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6) on the simulated dataplane, plus bechamel
   microbenchmarks of the per-packet primitives and simulator kernels
   (event heap, server breath).

     dune exec bench/main.exe            # run everything
     dune exec bench/main.exe -- fig7    # one experiment

   Experiments: stats fig7 fig8 fig9 fig11 fig12 fig13 table4 merger
   overhead replay fig15 ablation classify micro.

   Absolute microseconds depend on the calibrated cost model
   (lib/sim/cost.ml); the claims under reproduction are the *shapes* —
   who wins, by what factor, and where crossovers sit. EXPERIMENTS.md
   records paper-vs-measured for each experiment. *)

open Nfp_core

let section title =
  Printf.printf "\n==================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==================================================================\n%!"

let note fmt = Printf.printf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Measurement helpers                                                 *)
(* ------------------------------------------------------------------ *)

let search_packets = 16000
let latency_packets = 20000

(* Pktgen is pure per index, so a generator caches the packets it has
   built: the probe runs of a bisection and the latency run afterwards
   re-inject the same traffic, and handing out a fresh copy of a cached
   packet is far cheaper than regenerating payload bytes (dominant for
   large frames). Copies keep runs independent — systems mutate packets
   in place. *)
let memoized gen =
  let cache : (int, Nfp_packet.Packet.t) Hashtbl.t = Hashtbl.create 4096 in
  fun i ->
    match Hashtbl.find_opt cache i with
    | Some p -> Nfp_packet.Packet.full_copy p
    | None ->
        let p = gen i in
        Hashtbl.replace cache i p;
        Nfp_packet.Packet.full_copy p

let gen_of_size ?(style = Nfp_traffic.Pktgen.Ascii) size =
  let g =
    Nfp_traffic.Pktgen.create
      {
        Nfp_traffic.Pktgen.default with
        sizes = Nfp_traffic.Size_dist.fixed size;
        payload_style = style;
        flows = 256;
      }
  in
  memoized (Nfp_traffic.Pktgen.packet g)

let gen_datacenter () =
  let g =
    Nfp_traffic.Pktgen.create
      {
        Nfp_traffic.Pktgen.default with
        sizes = Nfp_traffic.Size_dist.datacenter;
        flows = 256;
      }
  in
  memoized (Nfp_traffic.Pktgen.packet g)

(* Where a sample came from: the scenario/chain label and the execution
   configuration (path, classifier, batch size) it ran under. Emitted
   with every JSON measurement so BENCH_*.json rows are self-describing
   — a sweep over batch sizes or classifier modes is otherwise just an
   anonymous list of rates. *)
type provenance = { label : string; path : string; classify : string; batch : int }

let default_prov =
  {
    label = "";
    path = "compiled";
    classify = "cached";
    batch = Nfp_sim.Cost.default.batch;
  }

let prov label = { default_prov with label }
let onvm_prov label = { default_prov with label; path = "onvm"; classify = "none" }
let bess_prov label = { default_prov with label; path = "bess"; classify = "none" }

type measurement = {
  mpps : float;
  latency_us : float;
  p99_us : float;
  prov : provenance;
  extra : (string * float) list;
      (* experiment-specific counters (migrations, aborts, offered
         load, ...) appended verbatim to the sample's JSON object *)
}

(* With --json every measurement of the selected experiment is collected
   and dumped to BENCH_<experiment>.json, in recording order. Sweeps on
   the Harness.parallel_runs pool record after collection, in input
   order, so the file does not depend on which worker finished first;
   the mutex keeps recording itself safe from any domain. *)
let json_mode = ref false
let json_mutex = Mutex.create ()
let json_samples : measurement list ref = ref []

let record_sample m =
  if !json_mode then begin
    Mutex.lock json_mutex;
    json_samples := m :: !json_samples;
    Mutex.unlock json_mutex
  end

(* The mean and p99 of a latency sample in us; (0, 0) when it is empty
   (an overload class the controller shed entirely). *)
let latency_us stats =
  if Nfp_algo.Stats.count stats = 0 then (0.0, 0.0)
  else
    ( Nfp_algo.Stats.mean stats /. 1000.0,
      Nfp_algo.Stats.percentile stats 99.0 /. 1000.0 )

(* A measurement of one latency sample under [label]. [mpps] is
   whatever the experiment reports in that field (a lossless rate,
   goodput, availability). *)
let sample ?(prov = default_prov) ?(extra = []) ~mpps label latency =
  let latency_us, p99_us = latency_us latency in
  { mpps; latency_us; p99_us; prov = { prov with label }; extra }

(* [n] packets delivered over [r]'s run, in Mpps (packets per ns x
   1000). *)
let goodput (r : Nfp_sim.Harness.result) n = float_of_int n /. r.duration_ns *. 1000.0

(* [f x] for every [x] of [xs] on the Harness.parallel_runs pool,
   returned in [xs]'s order. Each [f x] builds its own generators and
   stats cells (both are mutable) and every simulation is self-seeded,
   so results are identical at any worker count; callers print and
   record after collection. *)
let sweep f xs = Nfp_sim.Harness.parallel_runs (List.map (fun x () -> f x) xs)

(* Every pair of [xs] and [ys], [xs]-major: the order a crossed sweep
   prints and records in. *)
let cross xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs

(* The max lossless rate of [make] under [gen]: the harness's 8-step
   bisection below [hi] Mpps, [search_packets] packets per probe. *)
let knee ?(hi = 14.88) ~gen make =
  Nfp_sim.Harness.max_lossless_mpps ~make ~gen ~packets:search_packets ~hi ~iterations:8 ()

(* The latency run of the evaluation's methodology: [latency_packets]
   packets of [gen] into [make] in 32-packet bursts at [rate] Mpps. *)
let latency_run ~gen make rate =
  Nfp_sim.Harness.run ~make ~gen
    ~arrivals:(Nfp_sim.Harness.Burst (rate, 32))
    ~packets:latency_packets ()

(* One measurement, not yet recorded: [measure] for thunks on the
   domain pool, which record their results after collection. *)
let measure_unrecorded ?hi ?(prov = default_prov) ~gen make =
  let mpps = knee ?hi ~gen make in
  let r = latency_run ~gen make (0.9 *. mpps) in
  if r.unmatched <> 0 then
    failwith
      (Printf.sprintf "measure: %d packets missed the classification table"
         r.unmatched);
  sample ~prov ~mpps prov.label r.latency

let measure ?hi ?prov ~gen make =
  let m = measure_unrecorded ?hi ?prov ~gen make in
  record_sample m;
  m

(* ------------------------------------------------------------------ *)
(* Instances, plans and deployments                                    *)
(* ------------------------------------------------------------------ *)

let profile_in kinds n = Nfp_nf.Registry.profile_of (List.assoc n kinds)

(* The registry cannot instantiate parameterized firewall variants, so
   the firewall rigs take their instances, [extra] cycles per packet
   each, from this lookup. *)
let firewalls ~extra names () =
  let table = Hashtbl.create 8 in
  List.iter
    (fun n ->
      Hashtbl.replace table n
        (fst (Nfp_nf.Firewall.create ~name:n ~extra_cycles:extra ())))
    names;
  Hashtbl.find table

let fw_profile _ = Nfp_nf.Registry.profile_of "Firewall"
let fw_names n = List.init n (Printf.sprintf "fw%d")
let forwarder_kinds n = List.init n (fun i -> (Printf.sprintf "fwd%d" i, "Forwarder"))
let seq names = Graph.seq (List.map Graph.nf names)
let par names = Graph.par (List.map Graph.nf names)

let north_south =
  [ ("vpn", "VPN"); ("mon", "Monitor"); ("fw", "Firewall"); ("lb", "LoadBalancer") ]

let west_east = [ ("ids", "IPS"); ("mon", "Monitor"); ("lb", "LoadBalancer") ]

(* Every graph and chain the bench deploys is valid by construction, so
   a planning or compile error aborts the run. *)
let plan_of ?copy_mode ?priority ~profile_of graph =
  match Tables.plan ?copy_mode ?priority ~profile_of graph with
  | Ok p -> p
  | Error e -> failwith e

(* The registry chain [kinds] in sequence, as written. *)
let seq_plan kinds = plan_of ~profile_of:(profile_in kinds) (seq (List.map fst kinds))

(* The plan the policy compiler derives for the registry chain
   [kinds]. *)
let chain_plan kinds =
  let policy =
    {
      Nfp_policy.Rule.bindings = kinds;
      rules = Nfp_policy.Rule.of_chain (List.map fst kinds);
    }
  in
  match Compiler.compile policy with
  | Error es -> failwith (String.concat ";" es)
  | Ok out -> ( match Tables.of_output out with Ok p -> p | Error e -> failwith e)

(* NFP running [graph]: its plan is built once, its instances fresh
   from [nfs] per system. A rig that needs another System.make argument
   calls System.make itself. *)
let nfp ?copy_mode ?(mergers = 1) ~profile_of ~nfs graph =
  let plan = plan_of ?copy_mode ~profile_of graph in
  fun engine ~output ->
    Nfp_infra.System.make
      ~config:{ Nfp_infra.System.default_config with mergers }
      ~plan ~nfs:(nfs ()) engine ~output

(* OpenNetVM running [names] as a chain, fresh instances from [nfs]
   per system. *)
let onvm ~nfs names engine ~output =
  let lookup = nfs () in
  Nfp_baseline.Opennetvm.make ~nfs:(List.map lookup names) engine ~output

(* ------------------------------------------------------------------ *)
(* stats: Table 3 and the §4 NF-pair statistics                        *)
(* ------------------------------------------------------------------ *)

let run_stats () =
  section "§4  Action dependency table (Table 3) and NF-pair statistics";
  Format.printf "%a@." Dependency.pp_table ();
  let s = Analysis.run () in
  note "NF pairs parallelizable : %.1f%%   (paper: 53.8%%)" s.parallelizable_pct;
  note "  without packet copies : %.1f%%   (paper: 41.5%%)" s.no_copy_pct;
  note "  needing packet copies : %.1f%%   (paper: 12.3%%)" s.with_copy_pct;
  note "";
  note "Per-pair verdicts over the Table 2 population (weights in %%):";
  List.iter
    (fun p ->
      note "  %-13s before %-13s %5.2f  %s" p.Analysis.nf1 p.Analysis.nf2
        (100.0 *. p.Analysis.weight)
        (Dependency.verdict_to_string p.Analysis.verdict))
    s.pairs

(* ------------------------------------------------------------------ *)
(* fig7: sequential forwarder chains, OpenNetVM vs NFP                 *)
(* ------------------------------------------------------------------ *)

let run_fig7 () =
  section "Fig. 7  Sequential service chains (1-5 forwarders)";
  note "(a) latency, 64B packets (paper: both systems ~5-17us, linear in chain length,";
  note "    NFP within a few us of OpenNetVM):";
  note "    %-6s %-22s %-22s" "NFs" "OpenNetVM (us)" "NFP (us)";
  (* OpenNetVM and NFP running [n] forwarders in sequence. *)
  let chains n =
    let kinds = forwarder_kinds n in
    let names = List.map fst kinds and nfs () = Nfp_nf.Registry.instances kinds in
    (onvm ~nfs names, nfp ~profile_of:(profile_in kinds) ~nfs (seq names))
  in
  let gen = gen_of_size 64 in
  for n = 1 to 5 do
    let onvm_make, nfp_make = chains n in
    let onvm =
      measure ~prov:(onvm_prov (Printf.sprintf "fig7a:onvm:%dnf" n)) ~gen onvm_make
    in
    let nfp = measure ~prov:(prov (Printf.sprintf "fig7a:nfp:%dnf" n)) ~gen nfp_make in
    note "    %-6d %-22.1f %-22.1f" n onvm.latency_us nfp.latency_us
  done;
  note "";
  note "(b) processing rate vs packet size, Mpps (paper: NFP at line rate for any";
  note "    length; OpenNetVM slightly below and roughly flat in chain length):";
  note "    %-8s %-10s %-12s %-12s %-12s %-10s" "size" "line" "NFP-5NF" "ONVM-1NF" "ONVM-3NF"
    "ONVM-5NF";
  let rows =
    sweep
      (fun size ->
        let gen = gen_of_size size in
        let hi = Nfp_sim.Nic.max_mpps ~frame_bytes:size in
        let rate sys n =
          let onvm_make, nfp_make = chains n in
          let label = Printf.sprintf "fig7b:%s:%dnf:%dB" sys n size in
          if sys = "nfp" then measure_unrecorded ~hi ~prov:(prov label) ~gen nfp_make
          else measure_unrecorded ~hi ~prov:(onvm_prov label) ~gen onvm_make
        in
        let nfp5 = rate "nfp" 5 in
        let onvm1 = rate "onvm" 1 in
        let onvm3 = rate "onvm" 3 in
        let onvm5 = rate "onvm" 5 in
        (size, hi, nfp5, onvm1, onvm3, onvm5))
      [ 64; 256; 1024; 1500 ]
  in
  List.iter
    (fun (size, hi, nfp5, onvm1, onvm3, onvm5) ->
      List.iter record_sample [ nfp5; onvm1; onvm3; onvm5 ];
      note "    %-8d %-10.2f %-12.2f %-12.2f %-12.2f %-10.2f" size hi nfp5.mpps
        onvm1.mpps onvm3.mpps onvm5.mpps)
    rows

(* ------------------------------------------------------------------ *)
(* fig8/fig9/fig11 rig: 2..d instances of one NF (Fig. 10 setups)      *)
(* ------------------------------------------------------------------ *)

let rig_header () =
  note "  %-12s | %-15s | %-15s | %-24s | %-24s" "" "ONVM-seq" "NFP-seq" "NFP-par-nocopy"
    "NFP-par-copy";
  note "  %-12s | %7s %7s | %7s %7s | %7s %7s %7s | %7s %7s %7s" "" "us" "Mpps" "us" "Mpps"
    "us" "Mpps" "(red.)" "us" "Mpps" "(red.)"

(* The four Fig. 10 deployments of the instances [names], measured at
   64B and printed as one row under [label]: OpenNetVM and NFP in
   sequence, then NFP in parallel without and with packet copies on
   [mergers] mergers. Each is recorded as "<exp>:<deployment>:<row>". *)
let rig ?mergers ~profile_of ~nfs ~exp ~row label names =
  let gen = gen_of_size 64 in
  let tag system = Printf.sprintf "%s:%s:%s" exp system row in
  let onvm = measure ~prov:(onvm_prov (tag "onvm-seq")) ~gen (onvm ~nfs names) in
  let nfp_seq = measure ~prov:(prov (tag "nfp-seq")) ~gen (nfp ~profile_of ~nfs (seq names)) in
  let parallel copy_mode = nfp ~copy_mode ?mergers ~profile_of ~nfs (par names) in
  let par_nc = measure ~prov:(prov (tag "nfp-par-nocopy")) ~gen (parallel `Share_all) in
  let par_c = measure ~prov:(prov (tag "nfp-par-copy")) ~gen (parallel `Copy_all) in
  let reduction m = 100.0 *. (nfp_seq.latency_us -. m.latency_us) /. nfp_seq.latency_us in
  note
    "  %-12s | %7.1f %7.2f | %7.1f %7.2f | %7.1f %7.2f (%4.0f%%) | %7.1f %7.2f (%4.0f%%)"
    label onvm.latency_us onvm.mpps nfp_seq.latency_us nfp_seq.mpps par_nc.latency_us
    par_nc.mpps (reduction par_nc) par_c.latency_us par_c.mpps (reduction par_c)

let run_fig8 () =
  section "Fig. 8  Two instances of each NF type, sequential vs parallel (64B)";
  note "(paper: latency rises with NF complexity left to right; parallel beats";
  note " sequential, and the gain grows with complexity; copies cost little)";
  rig_header ();
  List.iter
    (fun kind ->
      let kinds = [ ("nf0", kind); ("nf1", kind) ] in
      rig ~profile_of:(profile_in kinds)
        ~nfs:(fun () -> Nfp_nf.Registry.instances kinds)
        ~exp:"fig8" ~row:(String.lowercase_ascii kind) kind (List.map fst kinds))
    [ "Forwarder"; "LoadBalancer"; "Firewall"; "Monitor"; "VPN"; "IDS" ]

let run_fig9 () =
  section "Fig. 9  Firewall complexity sweep (two instances, 1-3000 extra cycles, 64B)";
  note "(paper: latency reduction from parallelism grows with per-packet cycles,";
  note " reaching ~45%% at 3000 cycles; copy overhead stays minimal)";
  rig_header ();
  let names = fw_names 2 in
  List.iter
    (fun extra ->
      rig ~profile_of:fw_profile ~nfs:(firewalls ~extra names) ~exp:"fig9"
        ~row:(Printf.sprintf "%dcyc" extra) (Printf.sprintf "%d cyc" extra) names)
    [ 1; 600; 1200; 1800; 2400; 3000 ]

let run_fig11 () =
  section "Fig. 11  Parallelism degree 2-5 (firewall + 300 cycles, 64B)";
  note "(paper: latency reduction grows 33%%->52%% with degree for no-copy and up to";
  note " 32%% with copies; processing rate roughly unaffected; two merger instances";
  note " serve degree >= 4)";
  rig_header ();
  List.iter
    (fun d ->
      let names = fw_names d in
      rig
        ~mergers:(if d >= 4 then 2 else 1)
        ~profile_of:fw_profile ~nfs:(firewalls ~extra:300 names) ~exp:"fig11"
        ~row:(Printf.sprintf "degree-%d" d) (Printf.sprintf "degree %d" d) names)
    [ 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* fig12: the six four-NF graph structures of Fig. 14                  *)
(* ------------------------------------------------------------------ *)

let run_fig12 () =
  section "Fig. 12  Service-graph structures with 4 NFs (firewall + 300 cycles, 64B)";
  note "(paper: latency tracks the equivalent chain length; structure (2) wins,";
  note " structure (5), equivalent length 3, sees little reduction)";
  let names = fw_names 4 in
  let n i = Graph.nf (List.nth names i) in
  let shapes =
    [
      ("(1) seq", Graph.seq [ n 0; n 1; n 2; n 3 ]);
      ("(2) 1|1|1|1", Graph.par [ n 0; n 1; n 2; n 3 ]);
      ("(3) 1->3par", Graph.seq [ n 0; Graph.par [ n 1; n 2; n 3 ] ]);
      ("(4) 1|2seq|1", Graph.par [ n 0; Graph.seq [ n 1; n 2 ]; n 3 ]);
      ("(5) 1|3seq", Graph.par [ n 0; Graph.seq [ n 1; n 2; n 3 ] ]);
      ("(6) 2seq|2seq", Graph.par [ Graph.seq [ n 0; n 1 ]; Graph.seq [ n 2; n 3 ] ]);
    ]
  in
  let gen = gen_of_size 64 in
  let nfs = firewalls ~extra:300 names in
  note "  %-14s %-7s | %-17s | %-17s" "structure" "eq.len" "no copy (us, Mpps)"
    "copy (us, Mpps)";
  let baseline = ref 0.0 in
  List.iteri
    (fun i (label, graph) ->
      let deploy copy_mode =
        nfp ~copy_mode ~mergers:2 ~profile_of:fw_profile ~nfs graph
      in
      let tag system = prov (Printf.sprintf "fig12:%s:shape-%d" system (i + 1)) in
      let nc = measure ~prov:(tag "nfp-nocopy") ~gen (deploy `Share_all) in
      let c = measure ~prov:(tag "nfp-copy") ~gen (deploy `Copy_all) in
      if !baseline = 0.0 then baseline := nc.latency_us;
      note "  %-14s %-7d | %7.1f  %6.2f   | %7.1f  %6.2f   (vs seq: %4.0f%%)" label
        (Graph.equivalent_length graph) nc.latency_us nc.mpps c.latency_us c.mpps
        (100.0 *. (!baseline -. nc.latency_us) /. !baseline))
    shapes

(* ------------------------------------------------------------------ *)
(* fig13: real-world data-center service chains                        *)
(* ------------------------------------------------------------------ *)

let run_fig13 () =
  section "Fig. 13  Real-world service chains (IMC data-center packet sizes)";
  let chains =
    [
      ( "north-south",
        north_south,
        "paper: 241us -> 210us (12.9% reduction), 0% overhead" );
      ("west-east", west_east, "paper: 220us -> 141us (35.9% reduction), 8.8% overhead");
    ]
  in
  List.iter
    (fun (label, kinds, paper) ->
      let order = List.map fst kinds in
      let plan = chain_plan kinds in
      note "";
      note "%s   [%s]" label paper;
      note "  chain : %s" (String.concat " -> " order);
      note "  graph : %s   (equivalent length %d of %d)" (Graph.to_string plan.graph)
        (Graph.equivalent_length plan.graph)
        (Graph.nf_count plan.graph);
      let mean_size =
        int_of_float (Nfp_traffic.Size_dist.mean Nfp_traffic.Size_dist.datacenter)
      in
      note "  resource overhead: %.1f%% of packet memory (paper formula: %.1f%%)"
        (100.0 *. Overhead.plan_overhead plan ~packet_bytes:mean_size)
        (100.0
        *. Overhead.ratio_distribution ~sizes:Nfp_traffic.Size_dist.datacenter
             ~degree:(if plan.header_copies + plan.full_copies > 0 then 2 else 1));
      let gen = gen_datacenter () in
      let hi = Nfp_sim.Nic.max_mpps ~frame_bytes:724 in
      let run_variant costs tag uniform =
        let nfs () =
          let lookup = Nfp_nf.Registry.instances kinds in
          fun n ->
            let nf = lookup n in
            if uniform then { nf with Nfp_nf.Nf.cost_cycles = (fun _ -> 1200) } else nf
        in
        let row system = Printf.sprintf "fig13:%s:%s-%s" system label costs in
        let onvm = measure ~hi ~prov:(onvm_prov (row "onvm")) ~gen (onvm ~nfs order) in
        let nfp =
          measure ~hi ~prov:(prov (row "nfp")) ~gen (fun engine ~output ->
              Nfp_infra.System.make ~plan ~nfs:(nfs ()) engine ~output)
        in
        note "  %-22s OpenNetVM %6.1f us  ->  NFP %6.1f us   (%.1f%% reduction)" tag
          onvm.latency_us nfp.latency_us
          (100.0 *. (onvm.latency_us -. nfp.latency_us) /. onvm.latency_us)
      in
      run_variant "faithful" "cost-faithful NFs :" false;
      run_variant "uniform" "cost-uniform NFs  :" true)
    chains;
  note "";
  note "(cost-uniform rows equalize per-NF cycles, the regime the paper's uniform";
  note " per-stage latencies imply; cost-faithful rows keep Fig. 8's cost ordering,";
  note " where the heavyweight VPN/IDS stage dominates and parallelizing the light";
  note " NFs moves the total far less -- see EXPERIMENTS.md)"

(* ------------------------------------------------------------------ *)
(* table4: OpenNetVM vs NFP vs BESS                                    *)
(* ------------------------------------------------------------------ *)

let run_table4 () =
  section "Table 4  Pipelining vs run-to-completion (1-3 firewalls, 64B, n+2 cores)";
  note "(paper: ONVM 25/33/47us at ~9.4Mpps flat; NFP 23/27/31us at ~10.9Mpps;";
  note " BESS 11.3us flat at 14.7Mpps line rate)";
  note "  %-6s | %-16s | %-16s | %-16s" "chain" "OpenNetVM" "NFP (parallel)" "BESS (RTC)";
  note "  %-6s | %7s %8s | %7s %8s | %7s %8s" "len" "us" "Mpps" "us" "Mpps" "us" "Mpps";
  let gen = gen_of_size 64 in
  List.iter
    (fun n ->
      let names = fw_names n in
      let nfs = firewalls ~extra:0 names in
      let row system = Printf.sprintf "table4:%s:%dfw" system n in
      let onvm = measure ~prov:(onvm_prov (row "onvm")) ~gen (onvm ~nfs names) in
      let nfp =
        measure ~prov:(prov (row "nfp")) ~gen
          (nfp ~copy_mode:`Share_all ~profile_of:fw_profile ~nfs (par names))
      in
      let bess =
        measure ~prov:(bess_prov (row "bess")) ~gen (fun engine ~output ->
            Nfp_baseline.Bess.make ~cores:(n + 2)
              ~chain:(fun () -> List.map (nfs ()) names)
              engine ~output)
      in
      note "  %-6d | %7.1f %8.2f | %7.1f %8.2f | %7.1f %8.2f" n onvm.latency_us onvm.mpps
        nfp.latency_us nfp.mpps bess.latency_us bess.mpps)
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* merger: §6.3.3 merger load balancing                                *)
(* ------------------------------------------------------------------ *)

let run_merger () =
  section "§6.3.3  Merger capacity and load balancing (firewall, 64B)";
  note "(paper: one merger instance sustains 10.7 Mpps at degree 2; two instances";
  note " suffice for full speed up to degree 5)";
  let gen = gen_of_size 64 in
  let rate ~d ~mergers =
    let names = fw_names d in
    let nfs = firewalls ~extra:0 names in
    let make =
      nfp ~copy_mode:`Share_all ~mergers ~profile_of:fw_profile ~nfs (par names)
    in
    let label =
      Printf.sprintf "merger:%d-merger%s:degree-%d" mergers
        (if mergers = 1 then "" else "s")
        d
    in
    (measure ~prov:(prov label) ~gen make).mpps
  in
  note "  %-8s %-14s %-14s" "degree" "1 merger" "2 mergers";
  List.iter
    (fun d ->
      note "  %-8d %-14.2f %-14.2f" d (rate ~d ~mergers:1) (rate ~d ~mergers:2))
    [ 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* overhead: §6.3.1 resource overhead                                  *)
(* ------------------------------------------------------------------ *)

let run_overhead () =
  section "§6.3.1  Resource overhead of header-only copying";
  note "ro = 64 x (d-1) / s, in %% of packet memory:";
  note "  %-8s %8s %8s %8s %8s" "size" "d=2" "d=3" "d=4" "d=5";
  List.iter
    (fun s ->
      note "  %-8d %7.1f%% %7.1f%% %7.1f%% %7.1f%%" s
        (100.0 *. Overhead.ratio ~packet_bytes:s ~degree:2)
        (100.0 *. Overhead.ratio ~packet_bytes:s ~degree:3)
        (100.0 *. Overhead.ratio ~packet_bytes:s ~degree:4)
        (100.0 *. Overhead.ratio ~packet_bytes:s ~degree:5))
    Nfp_traffic.Size_dist.common_sizes;
  note "";
  note "Data-center mix (IMC'10, mean %.0fB):"
    (Nfp_traffic.Size_dist.mean Nfp_traffic.Size_dist.datacenter);
  List.iter
    (fun d ->
      note "  degree %d: %.1f%%   (paper: 0.088 x (d-1) = %.1f%%)" d
        (100.0
        *. Overhead.ratio_distribution ~sizes:Nfp_traffic.Size_dist.datacenter ~degree:d)
        (100.0 *. Overhead.datacenter_ratio ~degree:d))
    [ 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* replay: §6.4 result correctness                                     *)
(* ------------------------------------------------------------------ *)

let run_replay () =
  section "§6.4  Result correctness: replay against sequential execution";
  let run_chain label kinds =
    let plan = chain_plan kinds in
    let gen =
      Nfp_traffic.Pktgen.create
        {
          Nfp_traffic.Pktgen.default with
          payload_style = Nfp_traffic.Pktgen.Tagged;
          sizes = Nfp_traffic.Size_dist.datacenter;
          flows = 512;
        }
    in
    let o =
      Nfp_traffic.Replay.run
        ~chain:(fun () -> List.map (Nfp_nf.Registry.instances kinds) (List.map fst kinds))
        ~deployment:(fun () -> (plan, Nfp_nf.Registry.instances kinds))
        ~gen:(Nfp_traffic.Pktgen.packet gen) ~packets:2000
    in
    note "  %-12s %d/%d packets identical (%s)" label o.agreements o.total
      (if Nfp_traffic.Replay.agrees o then "PASS" else "FAIL")
  in
  run_chain "north-south" north_south;
  run_chain "west-east" west_east

(* ------------------------------------------------------------------ *)
(* fig15: OpenBox block-level parallelism                              *)
(* ------------------------------------------------------------------ *)

let run_fig15 () =
  section "Fig. 15  OpenBox+NFP block-level parallelism (firewall + IPS)";
  let fw = Nfp_openbox.Pipeline.firewall () in
  let ips = Nfp_openbox.Pipeline.ips () in
  let merged = Nfp_openbox.Pipeline.merge fw ips in
  let stages = Nfp_openbox.Pipeline.stages merged in
  note "  shared prefix: %d blocks" (List.length merged.shared);
  Format.printf "  merged graph : %a@." Nfp_openbox.Pipeline.pp_stages stages;
  let seq = Nfp_openbox.Pipeline.total_cycles fw + Nfp_openbox.Pipeline.total_cycles ips in
  let staged = Nfp_openbox.Pipeline.staged_cycles stages in
  note "  critical path: %d cycles vs %d for the two chains (%.1f%% saved)" staged seq
    (100.0 *. float_of_int (seq - staged) /. float_of_int seq);
  (* Deploy the three variants on the dataplane and measure. *)
  let rename suffix (b : Nfp_openbox.Block.t) = { b with Nfp_openbox.Block.name = b.name ^ suffix } in
  let chained =
    List.map
      (fun b -> [ b ])
      (List.map (rename "_f") fw @ List.map (rename "_i") ips)
  in
  let merged_seq = List.concat_map (fun stage -> List.map (fun b -> [ b ]) stage) stages in
  let gen = gen_of_size 256 in
  let hi = Nfp_sim.Nic.max_mpps ~frame_bytes:256 in
  let deploy block_stages =
    let graph, nfs = Nfp_openbox.Pipeline.to_deployment block_stages in
    nfp ~profile_of:(fun n -> (nfs n).Nfp_nf.Nf.profile) ~nfs:(fun () -> nfs) graph
  in
  (* All three variants are DPI-bound; compare latency at a common
     offered rate below that bound. *)
  let variants =
    [
      ("two chains, sequential", chained);
      ("OpenBox merged, sequential", merged_seq);
      ("OpenBox + NFP parallel", stages);
    ]
  in
  let rates =
    List.map (fun (_, bs) -> knee ~hi ~gen (deploy bs)) variants
  in
  let common = 0.7 *. List.fold_left min hi rates in
  note "";
  note "  measured on the dataplane (256B packets, common load %.2f Mpps);" common;
  note "  the DPI block dominates every variant, so block sharing/parallelism of";
  note "  the cheap blocks moves end-to-end latency only marginally -- the same";
  note "  cost-threshold effect as Fig. 8:";
  List.iter2
    (fun (label, bs) rate ->
      let r = latency_run ~gen (deploy bs) common in
      note "  %-28s %6.1f us   (max %5.2f Mpps)" label (fst (latency_us r.latency)) rate)
    variants rates

(* ------------------------------------------------------------------ *)
(* ablation: field-sensitive write-read                                *)
(* ------------------------------------------------------------------ *)

let run_ablation () =
  section "Ablation  Field-sensitive write-before-read (beyond the paper's Table 3)";
  let strict = Analysis.run () in
  let relaxed = Analysis.run ~field_sensitive_write_read:true () in
  note "  paper-strict Table 3     : %.1f%% parallelizable (%.1f%% no-copy)"
    strict.parallelizable_pct strict.no_copy_pct;
  note "  field-sensitive W-then-R : %.1f%% parallelizable (%.1f%% no-copy)"
    relaxed.parallelizable_pct relaxed.no_copy_pct;
  let show text =
    let graph fswr =
      match Compiler.compile_text ~field_sensitive_write_read:fswr text with
      | Ok o -> Graph.to_string o.graph
      | Error es -> String.concat ";" es
    in
    note "  %-34s strict: %-24s relaxed: %s" text (graph false) (graph true)
  in
  show "Chain(Compression, Gateway)";
  show "Chain(Compression, Monitor)";
  show "Chain(Proxy, Gateway)"

(* ------------------------------------------------------------------ *)
(* Tenant tables: the classify rig's, shared with micro's classifier    *)
(* kernels                                                             *)
(* ------------------------------------------------------------------ *)

(* Tenant [t] owns dip 10.0.t.0/24; odd tenants also pin the protocol
   and tenants with bit 1 set also carry a source-port range, so the
   table spans four mask shapes however many tenants there are. *)
let tenant_rule t =
  let dip = Int32.of_int ((10 lsl 24) lor ((t land 0xff) lsl 8)) in
  Nfp_packet.Flow_match.make ~dip_prefix:(dip, 24)
    ?proto:(if t land 1 = 1 then Some 17 else None)
    ?sport_range:(if t land 2 = 2 then Some (1024, 65535) else None)
    ()

let tenant_flow tenants fid =
  let t = fid mod tenants in
  let host = (fid / tenants) land 0xff in
  let dip = Int32.of_int ((10 lsl 24) lor ((t land 0xff) lsl 8) lor host) in
  let sip = Int32.of_int ((10 lsl 24) lor (200 lsl 16) lor fid) in
  Nfp_packet.Flow.make ~sip ~dip ~sport:(10000 + fid) ~dport:80
    ~proto:(if t land 1 = 1 then 17 else 6)

(* ------------------------------------------------------------------ *)
(* micro: bechamel microbenchmarks of the per-packet kernels           *)
(* ------------------------------------------------------------------ *)

let run_micro () =
  section "Microbenchmarks  Per-packet kernels (bechamel ns/op, minor words/op)";
  let open Bechamel in
  let open Toolkit in
  let flow =
    Nfp_packet.Flow.make
      ~sip:(Option.get (Nfp_packet.Flow.ip_of_string "10.0.1.1"))
      ~dip:(Option.get (Nfp_packet.Flow.ip_of_string "10.8.2.10"))
      ~sport:12000 ~dport:61080 ~proto:6
  in
  let pkt1500 = Nfp_packet.Packet.create ~flow ~payload:(String.make 1446 'x') () in
  let aes = Nfp_algo.Aes.expand_key "0123456789abcdef" in
  let block = Bytes.make 16 'b' in
  let lpm =
    Nfp_algo.Lpm.of_list
      (List.init 1000 (fun i -> (Int32.of_int ((10 lsl 24) lor (i lsl 8)), 24, i)))
  in
  (* The Firewall's default 100-rule ACL, which [flow] misses: its one
     shape is probed and holds no bucket for the source /24. *)
  let acl = Nfp_nf.Firewall.compile (Nfp_nf.Firewall.default_acl 100) in
  let signatures = Nfp_nf.Ids.default_signatures 100 in
  let aho = Nfp_algo.Aho_corasick.build signatures in
  let payload = String.make 1446 'Q' in
  (* Two more payloads the matcher must read to the end: uniform random
     bytes, and signatures but their last byte, end to end (each kept
     only if the text still matches nothing), which hold the DFA off
     its root nearly throughout: the block-shift filter's worst case. *)
  let random_payload =
    let prng = Nfp_algo.Prng.create ~seed:1L in
    let text = String.init 1446 (fun _ -> Char.chr (Nfp_algo.Prng.int prng ~bound:256)) in
    if Nfp_algo.Aho_corasick.matches aho text then
      invalid_arg "run_micro: the random DPI payload matches a signature";
    text
  in
  let prefixes_payload =
    let prefixes =
      Array.of_list (List.map (fun s -> String.sub s 0 (String.length s - 1)) signatures)
    in
    let rec grow text k =
      if String.length text >= 1446 then String.sub text 0 1446
      else
        let next = text ^ prefixes.(k mod Array.length prefixes) in
        grow (if Nfp_algo.Aho_corasick.matches aho next then text else next) (k + 1)
    in
    grow "" 0
  in
  (* The west-east chain's NFs on a frame of the IMC mean size: the IPS
     scans its payload in place, the Monitor updates a resident flow's
     counters, the LoadBalancer hashes the flow and rewrites both
     addresses. *)
  let imc_frame =
    let mean = int_of_float (Nfp_traffic.Size_dist.mean Nfp_traffic.Size_dist.datacenter) in
    Nfp_traffic.Pktgen.packet
      (Nfp_traffic.Pktgen.create
         { Nfp_traffic.Pktgen.default with sizes = Nfp_traffic.Size_dist.fixed mean })
      0
  in
  let ips, _ = Nfp_nf.Ids.create ~mode:`Prevent () in
  let mon, _ = Nfp_nf.Monitor.create () in
  ignore (mon.process imc_frame);
  let lb, _ = Nfp_nf.Load_balancer.create () in
  let lb_frame = Nfp_packet.Packet.full_copy imc_frame in
  let v2 = Nfp_packet.Packet.full_copy pkt1500 in
  Nfp_packet.Packet.set_sip v2 42l;
  let get () = function 1 -> pkt1500 | 2 -> v2 | _ -> Nfp_packet.Packet.absent in
  (* A west-east packet entering its graph: a context sized for the
     plan's two versions, and the header copy the Monitor reads. *)
  let imc_ctx_frame = Nfp_packet.Packet.full_copy imc_frame in
  let context_copy () =
    let ctx = Nfp_infra.Context.create ~pid:1L ~mid:1 ~versions:2 imc_ctx_frame in
    Nfp_infra.Context.copy ctx ~src:1 ~dst:2 ~full:false
  in
  (* Event heap held at 1k pending events: each op schedules one and
     fires the earliest. *)
  let heap_engine = Nfp_sim.Engine.create () in
  let nop () = () in
  for i = 0 to 999 do
    Nfp_sim.Engine.schedule heap_engine ~delay:(float_of_int ((i * 7919) land 1023)) nop
  done;
  let heap_tick = ref 0 in
  let schedule_pop () =
    heap_tick := (!heap_tick + 7919) land 1023;
    Nfp_sim.Engine.schedule heap_engine ~delay:(float_of_int !heap_tick) nop;
    Nfp_sim.Engine.run ~max_events:1 heap_engine
  in
  (* A classified packet's hop onto its graph: one send on an ingress
     line and its firing, the line warmed to one send in flight. *)
  let line_engine = Nfp_sim.Engine.create () in
  let ingress = Nfp_sim.Engine.line line_engine ~delay:2000.0 (fun _ _ _ -> ()) in
  let line_send_fire () =
    Nfp_sim.Engine.send ingress 1L imc_frame 1;
    Nfp_sim.Engine.run ~max_events:1 line_engine
  in
  line_send_fire ();
  (* A line with 64 sends in flight at distinct times, as on a loaded
     ingress hop: each op sends one more and fires the oldest. *)
  let busy_engine = Nfp_sim.Engine.create () in
  let busy = Nfp_sim.Engine.line busy_engine ~delay:64.0 (fun _ _ _ -> ()) in
  for i = 0 to 63 do
    Nfp_sim.Engine.schedule busy_engine ~delay:(float_of_int i) (fun () ->
        Nfp_sim.Engine.send busy 1L imc_frame 1)
  done;
  Nfp_sim.Engine.run ~max_events:64 busy_engine;
  let busy_pop () =
    Nfp_sim.Engine.send busy 1L imc_frame 1;
    Nfp_sim.Engine.run ~max_events:1 busy_engine
  in
  busy_pop ();
  (* One core, one job per breath: offer, breath start, completion
     event, execute, emit. *)
  let breath_engine = Nfp_sim.Engine.create () in
  let hop = [| () |] in
  let core =
    Nfp_sim.Server.create ~engine:breath_engine ~name:"micro" ~ring_capacity:64 ~batch:32
      ~service_ns:(fun _ (cell : Nfp_sim.Server.cell) -> cell.ns <- 40.0)
      ~execute:(fun _ -> hop)
      ~emit:(fun _ () -> true)
      ()
  in
  let breath () =
    ignore (Nfp_sim.Server.offer core 0);
    Nfp_sim.Engine.run breath_engine
  in
  (* A reliable channel over a perfect fabric: each op sends one
     payload and drains the engine, so the pending cumulative ack prunes
     it when the retransmit timer next fires, and the retransmit and
     probe timers quench. A no-op event queued
     behind the timers stands in for the traffic a real run keeps on
     the calendar (timers alone would trip the engine's livelock
     guard). The fabric's only fault is a partition that never starts,
     so every transit checks one window and passes. *)
  let channel_engine = Nfp_sim.Engine.create () in
  let perfect =
    Option.get
      (Nfp_sim.Fault.link_for
         (Nfp_sim.Fault.link_plan
            [ Nfp_sim.Fault.partition ~at_ns:infinity ~duration_ns:0.0 "l" ])
         "l")
  in
  let channel =
    Nfp_infra.Channel.create ~engine:channel_engine ~name:"micro" ~state:perfect
      ~reliability:
        {
          Nfp_infra.Channel.ack_interval_ns =
            Nfp_infra.System.default_links_config.ack_interval_ns;
          rto_ns = Nfp_infra.System.default_links_config.rto_ns;
          ack_ns = 10.0;
          retransmit_ns = 50.0;
        }
      ~deliver:(fun _ -> true) ~reroute:ignore ~stats:(Nfp_sim.Harness.fresh_health ()).links
      ()
  in
  let send_ack () =
    ignore (Nfp_infra.Channel.send channel 0);
    Nfp_sim.Engine.schedule channel_engine ~delay:30_000.0 nop;
    Nfp_sim.Engine.run channel_engine
  in
  let lossy =
    Option.get
      (Nfp_sim.Fault.link_for
         (Nfp_sim.Fault.link_plan [ Nfp_sim.Fault.loss ~probability:0.01 "l" ])
         "l")
  in
  (* A delivery-sized memory fed fresh PIDs: every op inserts one key
     and looks it up, rotating generations every 32768 ops. *)
  let dedup = Nfp_infra.Dedup.create 65_536 in
  let dedup_pid = ref 0 in
  let dedup_op () =
    incr dedup_pid;
    Nfp_infra.Dedup.add dedup ~a:!dedup_pid ~b:1;
    Nfp_infra.Dedup.mem dedup ~a:!dedup_pid ~b:1
  in
  (* The same on PIDs strided by 2^16: every key starts its probe at the
     same slot pair, so all but the first few spill. *)
  let strided = Nfp_infra.Dedup.create 65_536 in
  let strided_pid = ref 0 in
  let strided_op () =
    strided_pid := !strided_pid + (1 lsl 16);
    Nfp_infra.Dedup.add strided ~a:!strided_pid ~b:1;
    Nfp_infra.Dedup.mem strided ~a:!strided_pid ~b:1
  in
  (* The classifier on a 256-tenant table like tenants_miss's, each op
     classifying the next of 4096 frames in turn. The hit kernel's
     default cache holds all of them once warmed; the miss kernel's
     8-entry cache has evicted each flow long before it comes round
     again, so every op walks the tuple space. *)
  let tenant_frames =
    Array.init 4096 (fun fid ->
        Nfp_packet.Packet.create ~flow:(tenant_flow 256 fid) ~payload:(String.make 46 'x') ())
  in
  let classify_op ?cache_capacity () =
    let clf = Nfp_packet.Classifier.create ?cache_capacity (Array.init 256 tenant_rule) in
    let next = ref 0 in
    fun () ->
      next := (!next + 1) land (Array.length tenant_frames - 1);
      Nfp_packet.Classifier.classify_packet clf tenant_frames.(!next)
  in
  let classify_hit = classify_op () in
  Array.iter (fun _ -> ignore (classify_hit ())) tenant_frames;
  let classify_miss = classify_op ~cache_capacity:8 () in
  (* Minor words per op, counted around 1000 runs of each kernel before
     bechamel times it: bechamel's own allocation instance reads 0 here
     even for kernels that do allocate. *)
  let words = Hashtbl.create 32 in
  let kernel name f =
    let before = Gc.minor_words () in
    for _ = 1 to 1000 do
      ignore (Sys.opaque_identity (f ()))
    done;
    Hashtbl.replace words ("nfp " ^ name) ((Gc.minor_words () -. before) /. 1000.0);
    Test.make ~name (Staged.stage f)
  in
  let tests =
    Test.make_grouped ~name:"nfp" ~fmt:"%s %s"
      [
        kernel "classifier hit (256 tenants)" classify_hit;
        kernel "classifier miss (256 tenants)" classify_miss;
        kernel "reliable channel send+ack (lossless)" send_ack;
        kernel "Fault.transit (1% loss)" (fun () -> Nfp_sim.Fault.transit lossy ~now_ns:0.0);
        kernel "dedup add+mem" dedup_op;
        kernel "dedup add+mem, strided PIDs" strided_op;
        kernel "header-only copy" (fun () -> Nfp_packet.Packet.header_only_copy pkt1500 ~version:2);
        kernel "full copy 1500B" (fun () -> Nfp_packet.Packet.full_copy pkt1500);
        kernel "5-tuple hash" (fun () -> Nfp_packet.Flow.hash flow);
        kernel "LPM lookup (1000 routes)" (fun () -> Nfp_algo.Lpm.lookup lpm 0x0a1702a9l);
        kernel "LPM lookup, int address" (fun () -> Nfp_algo.Lpm.lookup_int lpm 0x0a1702a9);
        kernel "firewall ACL, 100 rules (no match)" (fun () -> Nfp_nf.Firewall.denies acl pkt1500);
        kernel "engine schedule+pop (1k heap)" schedule_pop;
        kernel "ingress line send+fire" line_send_fire;
        kernel "engine pop, 64 line sends in flight" busy_pop;
        kernel "server breath (1 job)" breath;
        kernel "AES-128 block" (fun () -> Nfp_algo.Aes.encrypt_block aes block ~pos:0);
        kernel "DPI scan 1446B (100 sigs)" (fun () -> Nfp_algo.Aho_corasick.matches aho payload);
        kernel "DPI scan 1446B random bytes" (fun () ->
            Nfp_algo.Aho_corasick.matches aho random_payload);
        kernel "DPI scan 1446B pattern prefixes" (fun () ->
            Nfp_algo.Aho_corasick.matches aho prefixes_payload);
        kernel "IPS process (IMC frame, in place)" (fun () -> ips.process imc_frame);
        kernel "Monitor process (warm flow)" (fun () -> mon.process imc_frame);
        kernel "LoadBalancer process" (fun () -> lb.process lb_frame);
        kernel "merge op (modify sip)" (fun () ->
            Nfp_core.Merge_op.apply
              (Nfp_core.Merge_op.Modify { dst = 1; src = 2; field = Nfp_packet.Field.Sip })
              ~get ());
        kernel "context create + header copy (IMC frame)" context_copy;
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ ns ] -> note "  %-44s %10.1f ns/op %8.1f words/op" name ns (Hashtbl.find words name)
      | _ -> note "  %-44s (no estimate)" name)
    results

(* ------------------------------------------------------------------ *)
(* partition: §7 cross-server NF parallelism                           *)
(* ------------------------------------------------------------------ *)

let run_partition () =
  section "§7  Cross-server partitioning (six firewalls + 300 cycles, 64B)";
  note "(extension of the paper's scalability sketch: cuts only where one merged";
  note " copy flows; each inter-server handoff pays the link plus both NICs)";
  let graph =
    Graph.seq
      [ Graph.nf "fw0"; par [ "fw1"; "fw2" ]; Graph.nf "fw3"; par [ "fw4"; "fw5" ] ]
  in
  let nfs = firewalls ~extra:300 (fw_names 6) in
  let gen = gen_of_size 64 in
  let label = Printf.sprintf "partition:nfp:1x%d-cores" (Partition.cores_needed graph) in
  let m1 = measure ~prov:(prov label) ~gen (nfp ~profile_of:fw_profile ~nfs graph) in
  note "  single server (%d cores): %.1f us, %.2f Mpps" (Partition.cores_needed graph)
    m1.latency_us m1.mpps;
  List.iter
    (fun cores ->
      match Partition.partition ~cores_per_server:cores graph with
      | Error e -> note "  %d cores/server: %s" cores e
      | Ok assignments ->
          let clustered engine ~output =
            match
              Nfp_infra.Cluster.of_partition ~assignments ~profile_of:fw_profile
                ~nfs:(nfs ()) engine ~output
            with
            | Ok s -> s
            | Error e -> failwith e
          in
          let label =
            Printf.sprintf "partition:cluster:%dx%d-cores" (List.length assignments) cores
          in
          let m = measure ~prov:(prov label) ~gen clustered in
          note "  %d servers x %d cores (%d link hops): %.1f us, %.2f Mpps"
            (List.length assignments) cores
            (Partition.inter_server_hops assignments)
            m.latency_us m.mpps)
    [ 6; 4 ]

(* ------------------------------------------------------------------ *)
(* Overload rig: three identical firewall chains behind one            *)
(* classifier, steered by destination port, admitted at classes 0/1/2  *)
(* (bronze/silver/gold). Shared by loadsweep's per-priority breakdown  *)
(* and the overload experiment.                                        *)
(* ------------------------------------------------------------------ *)

let overload_classes = [ (0, "bronze"); (1, "silver"); (2, "gold") ]

let overload_graphs () =
  List.map
    (fun (cls, label) ->
      let names = [ label ^ "-fw0"; label ^ "-fw1" ] in
      ( Nfp_packet.Flow_match.make ~dport_range:(1000 + cls, 1000 + cls) (),
        plan_of ~profile_of:fw_profile ~priority:cls (seq names),
        firewalls ~extra:300 names () ))
    overload_classes

(* Packet i belongs to chain (i mod 3); one flow per class keeps the
   microflow cache hot, so classification cost is flat across rates. *)
let overload_gen =
  let flows =
    Array.init 3 (fun cls ->
        Nfp_packet.Flow.make
          ~sip:(Option.get (Nfp_packet.Flow.ip_of_string "10.0.0.1"))
          ~dip:(Option.get (Nfp_packet.Flow.ip_of_string "10.0.0.2"))
          ~sport:(5000 + cls) ~dport:(1000 + cls) ~proto:6)
  in
  fun i ->
    Nfp_packet.Packet.create ~flow:flows.(i mod 3) ~payload:(String.make 18 'x') ()

let class_of_pid pid = Int64.to_int (Int64.rem pid 3L)

(* The rig's knee with the control plane unarmed: every class
   lossless. *)
let overload_knee () =
  knee ~gen:overload_gen (fun engine ~output ->
      Nfp_infra.System.make_multi ~graphs:(overload_graphs ()) engine ~output)

(* One load point on the rig at [rate] Mpps: per-class delivery counts
   and latency via wrappers around the system's inject/output (the
   class is recoverable from the pid). Returns the harness result plus
   per-class delivered counts and latency accumulators. *)
let overload_run ?overload rate =
  let lat = Array.init 3 (fun _ -> Nfp_algo.Stats.create ()) in
  let delivered = Array.make 3 0 in
  let t0 = Hashtbl.create 4096 in
  let make engine ~output =
    let output ~pid pkt =
      let c = class_of_pid pid in
      delivered.(c) <- delivered.(c) + 1;
      (match Hashtbl.find_opt t0 pid with
      | Some ts ->
          Hashtbl.remove t0 pid;
          Nfp_algo.Stats.add lat.(c) (Nfp_sim.Engine.now engine -. ts)
      | None -> ());
      output ~pid pkt
    in
    let system =
      Nfp_infra.System.make_multi ?overload ~graphs:(overload_graphs ()) engine ~output
    in
    {
      system with
      Nfp_sim.Harness.inject =
        (fun ~pid pkt ->
          Hashtbl.replace t0 pid (Nfp_sim.Engine.now engine);
          system.Nfp_sim.Harness.inject ~pid pkt);
    }
  in
  let r =
    Nfp_sim.Harness.run ~make ~gen:overload_gen
      ~arrivals:(Nfp_sim.Harness.Uniform rate) ~packets:latency_packets ()
  in
  (r, delivered, lat)

let shed_of_class (drops : Nfp_sim.Harness.drops) c =
  match List.assoc_opt c drops.shed_by_class with Some n -> n | None -> 0

(* ------------------------------------------------------------------ *)
(* Elastic rig: cheap forwarders feed the expensive IDS, whose         *)
(* read-mostly profile clears it for RSS-sharded replicas and runtime  *)
(* state migration. The static rig pins the IDS to one core and        *)
(* saturates at its knee; arming the controller lets the same          *)
(* deployment scale the IDS out live. Shared by loadsweep's elastic    *)
(* breakdown and the elastic experiment.                               *)
(* ------------------------------------------------------------------ *)

let elastic_kinds = forwarder_kinds 2 @ [ ("ids", "IDS") ]

let elastic_make ?elastic () =
  let plan = seq_plan elastic_kinds in
  fun engine ~output ->
    Nfp_infra.System.make ?elastic ~plan ~nfs:(Nfp_nf.Registry.instances elastic_kinds) engine
      ~output

let elastic_point ?elastic rate =
  Nfp_sim.Harness.run ~make:(elastic_make ?elastic ()) ~gen:(gen_of_size 64)
    ~arrivals:(Nfp_sim.Harness.Uniform rate) ~packets:latency_packets ()

let elastic_knee () = knee ~gen:(gen_of_size 64) (elastic_make ())

(* ------------------------------------------------------------------ *)
(* loadsweep: latency vs offered load (methodology check)              *)
(* ------------------------------------------------------------------ *)

let run_loadsweep () =
  section "Load sweep  Latency vs offered load (north-south chain, 64B)";
  note "(methodology: the evaluation reports latency at 90%% of each setup's";
  note " max lossless rate; this sweep shows where that sits on the knee)";
  let plan = chain_plan north_south in
  let make ?stats ?links ?(config = Nfp_infra.System.default_config) () engine ~output =
    Nfp_infra.System.make ?stats ?links ~config ~plan
      ~nfs:(Nfp_nf.Registry.instances north_south)
      engine ~output
  in
  let mx = knee ~gen:(gen_of_size 64) (make ()) in
  note "  max lossless rate: %.2f Mpps" mx;
  note "  %-10s %-12s %-12s %-10s %-10s %s" "load" "mean (us)" "p99 (us)" "ingress"
    "internal" "stall (us)";
  let rows =
    sweep
      (fun frac ->
        let stats = ref (fun () -> []) in
        let r = latency_run ~gen:(gen_of_size 64) (make ~stats ()) (frac *. mx) in
        (frac, r, !stats ()))
      [ 0.2; 0.4; 0.6; 0.8; 0.9; 1.0; 1.1 ]
  in
  List.iter
    (fun (frac, (r : Nfp_sim.Harness.result), cores) ->
      (* The unified drop taxonomy localizes where the knee comes from:
         [ingress_rejected] are true losses at the NIC boundary,
         [internal_rejected] are in-graph backpressure retry events
         (not losses), and core stall time shows where emission
         waits. *)
      let mean_us, p99_us = latency_us r.latency in
      let stalled_us =
        List.fold_left (fun a c -> a +. c.Nfp_infra.System.stalled_ns) 0.0 cores /. 1000.0
      in
      let d = r.health.drops in
      note "  %3.0f%%       %-12.1f %-12.1f %-10d %-10d %.0f" (100.0 *. frac) mean_us
        p99_us d.ingress_rejected d.internal_rejected stalled_us)
    rows;
  (* Per-priority breakdown: the same sweep on the three-class overload
     rig with the admission controller armed. Below the knee nothing
     sheds; past it the bronze chain gives way first, then silver, and
     gold keeps its goodput. *)
  note "";
  let oc = Nfp_infra.System.default_overload_config in
  note "  overload control plane armed (3 admission classes, watermarks %d/%d):"
    oc.Nfp_infra.Overload.high_watermark oc.Nfp_infra.Overload.low_watermark;
  let mx3 = overload_knee () in
  note "  rig knee: %.2f Mpps; per class: delivered (shed)" mx3;
  note "  %-10s %-18s %-18s %-18s %s" "load" "bronze" "silver" "gold" "p99 (us)";
  let rows =
    sweep
      (fun frac -> (frac, overload_run ~overload:oc (frac *. mx3)))
      [ 0.6; 0.8; 1.0; 1.2; 1.5; 2.0 ]
  in
  List.iter
    (fun (frac, ((r : Nfp_sim.Harness.result), delivered, _)) ->
      let cell c =
        Printf.sprintf "%d (%d)" delivered.(c) (shed_of_class r.health.drops c)
      in
      note "  %3.0f%%       %-18s %-18s %-18s %.1f" (100.0 *. frac) (cell 0) (cell 1)
        (cell 2)
        (snd (latency_us r.latency)))
    rows;
  (* Elastic breakdown: the same sweep idea on the scale rig with the
     elastic controller armed — the migration/abort columns show the
     controller re-homing RSS buckets as each load point passes the
     single-IDS knee. *)
  note "";
  note "  elastic controller armed (fwd-fwd-ids chain, default policy):";
  let mxe = elastic_knee () in
  note "  static knee: %.2f Mpps" mxe;
  note "  %-10s %-12s %-12s %-8s %-6s %-6s %s" "load" "mean (us)" "p99 (us)"
    "ingress" "migr" "abort" "replicas out/in";
  let rows =
    sweep
      (fun frac ->
        let elastic = Nfp_infra.System.default_elastic_config in
        (frac, elastic_point ~elastic (frac *. mxe)))
      [ 0.6; 0.9; 1.1; 1.5 ]
  in
  List.iter
    (fun (frac, (r : Nfp_sim.Harness.result)) ->
      let h = r.health and mean_us, p99_us = latency_us r.latency in
      note "  %3.0f%%       %-12.1f %-12.1f %-8d %-6d %-6d %d/%d" (100.0 *. frac) mean_us
        p99_us h.drops.ingress_rejected h.migrations h.migration_aborts h.scale_outs
        h.scale_ins)
    rows;
  (* Lossy-fabric breakdown: the same chain sweep with 1% loss on every
     inter-core link and the reliable channels armed — the taxonomy
     columns show the ARQ recovering what the fabric drops while the
     latency columns price the retransmissions at each load point. *)
  note "";
  note "  lossy fabric armed (1%% loss on every link, reliable channels):";
  note "  %-10s %-12s %-12s %-8s %-8s %-8s %s" "load" "mean (us)" "p99 (us)"
    "drops" "retx" "dedup" "lost";
  let links =
    {
      Nfp_infra.System.default_links_config with
      link_plan = Nfp_sim.Fault.link_plan [ Nfp_sim.Fault.loss ~probability:0.01 "*" ];
    }
  and config = { Nfp_infra.System.default_config with ring_capacity = 8192 } in
  let rows =
    sweep
      (fun frac ->
        (frac, latency_run ~gen:(gen_of_size 64) (make ~links ~config ()) (frac *. mx)))
      [ 0.2; 0.6; 0.9; 1.0 ]
  in
  List.iter
    (fun (frac, (r : Nfp_sim.Harness.result)) ->
      let l = r.health.links and mean_us, p99_us = latency_us r.latency in
      note "  %3.0f%%       %-12.1f %-12.1f %-8d %-8d %-8d %d" (100.0 *. frac) mean_us
        p99_us l.link_drops l.retransmits l.duplicates_suppressed
        (r.offered - r.completed - r.ring_drops))
    rows

(* ------------------------------------------------------------------ *)
(* scale: §7 NF scaling inside one server                              *)
(* ------------------------------------------------------------------ *)

let run_scale () =
  section "§7  Scaling a bottleneck NF inside one server (intra-NF replication, 64B)";
  note "(paper: \"NFP can support NF scaling inside one server by allocating";
  note " remaining CPU cores to new NF instances with new IDs and constructing";
  note " service graphs containing these new instances\" -- realized here by the";
  note " state-access replication analysis: the IDS's read-only/commutative";
  note " profile clears it for RSS-sharded replicas, while the forwarders'";
  note " last-hop telemetry cell keeps them Sequential on a single instance)";
  let gen = gen_of_size 64 in
  (* A chain of cheap forwarders feeding the expensive IDS: the IDS core
     saturates an order of magnitude before anything else, so uncapped
     throughput tracks its replica count until the forwarders' own
     ceiling. The replicas knob asks for N everywhere; only the IDS is
     actually sharded. *)
  let kinds = forwarder_kinds 4 @ [ ("ids", "IDS") ] in
  let plan = seq_plan kinds in
  let shown = ref false in
  let baseline = ref 0.0 in
  List.iter
    (fun replicas ->
      let replication = ref (fun () -> []) in
      let make engine ~output =
        Nfp_infra.System.make
          ~config:{ Nfp_infra.System.default_config with replicas }
          ~replication ~plan ~nfs:(Nfp_nf.Registry.instances kinds) engine ~output
      in
      let m =
        measure ~hi:30.0
          ~prov:(prov (Printf.sprintf "scale:replicas-%d" replicas))
          ~gen make
      in
      let report = !replication () in
      if not !shown then begin
        shown := true;
        note "  derived strategies:";
        List.iter
          (fun (rr : Nfp_infra.System.replica_report) ->
            note "    %-6s %-12s %s" rr.rr_nf rr.rr_kind
              (Replication.to_string rr.rr_strategy))
          report
      end;
      let deployed =
        match
          List.find_opt
            (fun (rr : Nfp_infra.System.replica_report) -> rr.rr_nf = "ids")
            report
        with
        | Some rr -> rr.rr_replicas
        | None -> 1
      in
      if replicas = 1 then baseline := m.mpps;
      note "  replicas=%d (ids x%d): %6.2f Mpps  (%.2fx), p99 %.2f us" replicas
        deployed m.mpps
        (m.mpps /. !baseline)
        m.p99_us)
    [ 1; 2; 3; 4; 6; 8 ]

(* ------------------------------------------------------------------ *)
(* elastic: offered-load sweep, static rig vs live scale-out           *)
(* ------------------------------------------------------------------ *)

let run_elastic () =
  section "Elastic  Riding through the static knee (fwd-fwd-ids chain, 64B)";
  note "(the static rig pins one IDS replica and saturates at its knee; the";
  note " elastic rig arms the default scale controller, which shards the IDS";
  note " across RSS buckets at runtime and migrates per-flow state live --";
  note " goodput follows the offered load past the static saturation point)";
  let knee = elastic_knee () in
  note "  static knee (one IDS replica, lossless): %.2f Mpps" knee;
  let fracs = [ 0.6; 0.8; 1.0; 1.5; 2.0; 3.0 ] in
  let variants =
    [
      ("static", None);
      ("elastic", Some Nfp_infra.System.default_elastic_config);
    ]
  in
  let rows =
    sweep
      (fun ((vlabel, elastic), frac) ->
        (vlabel, frac, elastic_point ?elastic (frac *. knee)))
      (cross variants fracs)
  in
  let last = ref "" in
  List.iter
    (fun (vlabel, frac, (r : Nfp_sim.Harness.result)) ->
      if !last <> vlabel then begin
        last := vlabel;
        note "";
        note "  %s rig:" vlabel;
        note "  %-8s %-10s %-10s %-8s %-6s %-6s %-6s %s" "load" "goodput"
          "p99 (us)" "ingress" "outs" "ins" "migr" "aborts"
      end;
      let h = r.health in
      let goodput = goodput r r.completed in
      let m =
        sample ~mpps:goodput
          ~extra:
            [
              ("offered_mpps", frac *. knee);
              ("ingress_drops", float_of_int h.drops.ingress_rejected);
              ("scale_outs", float_of_int h.scale_outs);
              ("scale_ins", float_of_int h.scale_ins);
              ("migrations", float_of_int h.migrations);
              ("aborts", float_of_int h.migration_aborts);
              ("migrated_packets", float_of_int h.migrated_packets);
            ]
          (Printf.sprintf "elastic:%s:load-%.1fx" vlabel frac)
          r.latency
      in
      note "  %3.0f%%     %-10.2f %-10.1f %-8d %-6d %-6d %-6d %d"
        (100.0 *. frac) goodput m.p99_us h.drops.ingress_rejected h.scale_outs
        h.scale_ins h.migrations h.migration_aborts;
      record_sample m)
    rows

(* ------------------------------------------------------------------ *)
(* vm: §7 containers vs virtual machines                               *)
(* ------------------------------------------------------------------ *)

let run_vm () =
  section "§7  Containers vs virtual machines (north-south chain, 64B)";
  note "(paper: the prototype uses containers for light-weight rings; a VM port";
  note " pays NetVM-style delivery costs on every hop)";
  let plan = chain_plan north_south in
  let gen = gen_of_size 64 in
  let run label cost =
    let make engine ~output =
      Nfp_infra.System.make
        ~config:{ Nfp_infra.System.default_config with cost }
        ~plan ~nfs:(Nfp_nf.Registry.instances north_south) engine ~output
    in
    let m = measure ~prov:(prov ("vm:nfp:" ^ String.lowercase_ascii label)) ~gen make in
    note "  %-12s %.1f us, %.2f Mpps" label m.latency_us m.mpps
  in
  run "containers" Nfp_sim.Cost.default;
  run "VMs" Nfp_sim.Cost.vm

(* ------------------------------------------------------------------ *)
(* classify: §5.1 two-level classifier vs linear scan                  *)
(* ------------------------------------------------------------------ *)

let run_classify () =
  section "§5.1  Flow-aware classification: microflow cache + tuple space";
  note "(the Classification Table resolves each packet's 5-tuple to a service";
  note " graph; a linear scan examines O(rules) entries per packet, the";
  note " two-level classifier pays one exact-match probe on a microflow-cache";
  note " hit and one hash probe per mask shape on a miss; Cost.classified";
  note " charges both as delay ahead of the classifier core)";
  let rate = 1.0 (* Mpps, fixed and far below saturation: the latency
                    delta between the two runs is pure lookup cost *) in
  let flows = 1024 in
  let packets = latency_packets in
  note "  %-8s %-6s %-7s %-11s %-11s %-9s %s" "tenants" "rules" "shapes"
    "scan (us)" "cached (us)" "hit rate" "evictions";
  List.iter
    (fun tenants ->
      let graphs () =
        List.init tenants (fun t ->
            let kinds = [ (Printf.sprintf "fwd%d" t, "Forwarder") ] in
            (tenant_rule t, seq_plan kinds, Nfp_nf.Registry.instances kinds))
      in
      let shapes =
        Nfp_packet.Classifier.group_count
          (Nfp_packet.Classifier.create
             (Array.init tenants tenant_rule))
      in
      let gen =
        memoized (fun i ->
            let fid =
              Int64.to_int (Nfp_algo.Hashing.mix64 (Int64.of_int i))
              land (flows - 1)
            in
            Nfp_packet.Packet.create ~flow:(tenant_flow tenants fid)
              ~payload:(String.make 46 'x') ())
      in
      let run_mode classify =
        let sys = ref None in
        let make engine ~output =
          let s =
            Nfp_infra.System.make_multi ~classify
              ~config:
                { Nfp_infra.System.default_config with
                  cost = Nfp_sim.Cost.classified }
              ~graphs:(graphs ()) engine ~output
          in
          sys := Some s;
          s
        in
        let r =
          Nfp_sim.Harness.run ~make ~gen
            ~arrivals:(Nfp_sim.Harness.Uniform rate) ~packets ()
        in
        if r.unmatched <> 0 then
          failwith
            (Printf.sprintf "classify: %d packets missed the table" r.unmatched);
        let counters =
          match !sys with
          | Some s -> s.Nfp_sim.Harness.classifier ()
          | None -> Nfp_sim.Harness.no_classifier_counters
        in
        let m =
          sample
            ~prov:
              {
                default_prov with
                classify = (match classify with `Scan -> "scan" | `Cached -> "cached");
              }
            ~mpps:rate
            (Printf.sprintf "classify:%d-tenants" tenants)
            r.latency
        in
        record_sample m;
        (m.latency_us, counters)
      in
      let scan_us, _ = run_mode `Scan in
      let cached_us, c = run_mode `Cached in
      let hit_rate =
        100.0 *. float_of_int c.Nfp_sim.Harness.hits
        /. float_of_int (max 1 (c.hits + c.misses))
      in
      note "  %-8d %-6d %-7d %-11.2f %-11.2f %7.1f%%  %d" tenants tenants
        shapes scan_us cached_us hit_rate c.evictions)
    [ 1; 8; 64; 256 ]

(* ------------------------------------------------------------------ *)
(* batch: breath size sweep on the fig7 forwarder chain                *)
(* ------------------------------------------------------------------ *)

let run_batch () =
  section "Batch  Breath size sweep (5-forwarder chain, 64B, NIC cap lifted)";
  note "(the fig7 rig saturates the 14.88 Mpps line rate at every batch size, so";
  note " this sweep lifts the NIC cap to expose the engine's own ceiling: Mpps is";
  note " the max lossless rate, wall is host seconds for the whole measurement.";
  note " Batch 1 is the per-packet legacy path; the breath engine's dispatch";
  note " amortization shows up as the throughput step and the wall-clock drop)";
  let kinds = forwarder_kinds 5 in
  let plan = seq_plan kinds in
  let gen = gen_of_size 64 in
  note "";
  note "  %-7s %-9s %-10s %-10s %s" "batch" "Mpps" "mean(us)" "p99(us)" "wall(s)";
  List.iter
    (fun batch ->
      let make engine ~output =
        Nfp_infra.System.make
          ~config:
            (let c = Nfp_infra.System.default_config in
             { c with cost = { c.cost with batch } })
          ~plan ~nfs:(Nfp_nf.Registry.instances kinds) engine ~output
      in
      let t0 = Unix.gettimeofday () in
      let m =
        measure ~hi:200.0
          ~prov:{ (prov (Printf.sprintf "batch:%d" batch)) with batch }
          ~gen make
      in
      let wall = Unix.gettimeofday () -. t0 in
      note "  %-7d %-9.2f %-10.2f %-10.2f %.2f" batch m.mpps m.latency_us m.p99_us
        wall)
    [ 1; 2; 4; 8; 16; 32; 64; 128; 256 ]

(* ------------------------------------------------------------------ *)
(* faults: availability under crash storms, per recovery policy        *)
(* ------------------------------------------------------------------ *)

(* The crash-storm sweep the faults and recovery experiments share: the
   degree-4 rig of Fig. 11 (four [Share_all] firewalls, 2 mergers, +300
   cycles, [ring_capacity]-deep rings) offered 20,000 64 B packets at a
   fixed 2.0 Mpps, under a storm that crashes every NF core at
   exponential intervals of mean MTBF ([None]: no crashes). One point
   per (variant, MTBF) pair, each variant a labelled fault config that
   supplies everything but the storm. Availability (completed/offered)
   goes in the "mpps" field, under [label variant mtbf]. [variant] names
   the first column with its width; [columns] are three health
   counters, each a header, a width and a reader. *)
let storm_sweep ?(ring_capacity = Nfp_infra.System.default_config.ring_capacity) ~label
    ~variant:(vhead, vwidth) ~columns variants mtbfs =
  let names = fw_names 4 in
  let rate = 2.0 and packets = 20000 in
  let dplan = plan_of ~copy_mode:`Share_all ~profile_of:fw_profile (par names) in
  let nfs = firewalls ~extra:300 names in
  let point ((vlabel, fault), mtbf) =
    let plan =
      match mtbf with
      | None -> Nfp_sim.Fault.empty
      | Some mtbf_ns ->
          Nfp_sim.Fault.storm
            ~cores:(List.map (fun n -> "mid1:" ^ n) names)
            ~mtbf_ns
            ~horizon_ns:(float_of_int packets /. rate *. 1000.0)
            ()
    in
    let make engine ~output =
      Nfp_infra.System.make
        ~config:{ Nfp_infra.System.default_config with mergers = 2; ring_capacity }
        ~fault:{ fault with Nfp_infra.Watchdog.plan }
        ~plan:dplan ~nfs:(nfs ()) engine ~output
    in
    let r =
      Nfp_sim.Harness.run ~make ~gen:(gen_of_size 64)
        ~arrivals:(Nfp_sim.Harness.Uniform rate) ~packets ()
    in
    let mlabel =
      match mtbf with None -> "none" | Some m -> Printf.sprintf "%.1f ms" (m /. 1e6)
    in
    let avail = float_of_int r.completed /. float_of_int r.offered in
    ( vlabel,
      mlabel,
      sample ~mpps:avail (label vlabel mlabel) r.latency,
      List.map (fun (_, width, read) -> Printf.sprintf "%-*d" width (read r.health))
        columns,
      r.offered - r.completed )
  in
  note "";
  let heads =
    List.map (fun (head, width, _) -> Printf.sprintf "%-*s" width head) columns
  in
  note "  %-*s %-8s | %-7s %-9s %-9s | %s %s" vwidth vhead "MTBF" "avail" "mean(us)"
    "p99(us)" (String.concat " " heads) "lost";
  List.iter
    (fun (vlabel, mlabel, m, cells, lost) ->
      record_sample m;
      note "  %-*s %-8s | %6.2f%% %-9.1f %-9.1f | %s %d" vwidth vlabel mlabel
        (100.0 *. m.mpps) m.latency_us m.p99_us (String.concat " " cells) lost)
    (sweep point (cross variants mtbfs))

let run_faults () =
  section "Faults  Availability under crash storms (4 parallel firewalls, 64B)";
  note "(crash-rate sweep over the degree-4 rig of Fig. 11: every NF core crashes";
  note " at exponential intervals with the given MTBF; the watchdog detects each";
  note " failure from progress heartbeats and applies the recovery policy, while";
  note " mergers time out accumulations a dead branch would wedge. Availability";
  note " is completed/offered at a fixed 2.0 Mpps load; in BENCH_faults.json the";
  note " \"mpps\" field carries availability, not a rate)";
  storm_sweep ~label:(Printf.sprintf "faults:%s:mtbf-%s") ~variant:("policy", 9)
    ~columns:
      [
        ("crashes", 8, fun (h : Nfp_sim.Harness.health) -> h.crashes);
        ("detects", 8, fun h -> h.detections);
        ("m.t.o.", 8, fun h -> h.drops.merge_timed_out);
      ]
    (List.map
       (fun (label, policy) ->
         let fault = Nfp_infra.System.default_fault_config in
         (label, { fault with recovery_of = (fun _ -> policy) }))
       [
         ("Restart", Nfp_infra.Watchdog.Restart);
         ("Bypass", Nfp_infra.Watchdog.Bypass);
         ("Degrade", Nfp_infra.Watchdog.Degrade);
       ])
    [ None; Some 2.0e6; Some 1.0e6; Some 0.5e6 ]

(* ------------------------------------------------------------------ *)
(* recovery: lossless restart vs checkpoint interval x crash rate      *)
(* ------------------------------------------------------------------ *)

let run_recovery () =
  section "Recovery  Availability vs checkpoint interval (4 parallel firewalls, 64B)";
  note "(Restart recovery on the degree-4 rig of Fig. 11 under crash storms. With";
  note " checkpointing on, a restarting core restores its last snapshot, replays";
  note " its input log — output suppressed, duplicates deduped at the mergers —";
  note " and re-admits the work the crash reclaimed; interval 0 is the lossy";
  note " flush-the-backlog baseline. Availability is completed/offered at a fixed";
  note " 2.0 Mpps load; in BENCH_recovery.json the \"mpps\" field carries";
  note " availability, not a rate)";
  (* Rings deep enough to buffer a typical outage. Lossless restart
     never flushes admitted work, so any residual loss here is
     admission refusal at the entry ring while a replay-extended outage
     drains. *)
  storm_sweep ~ring_capacity:2048 ~label:(Printf.sprintf "recovery:ckpt-%s:mtbf-%s")
    ~variant:("ckpt", 8)
    ~columns:
      [
        ("ckpts", 6, fun (h : Nfp_sim.Harness.health) -> h.checkpoints);
        ("replay", 7, fun h -> h.replayed);
        ("salvage", 8, fun h -> h.salvaged);
      ]
    (List.map
       (fun (label, interval) ->
         let fault = Nfp_infra.System.default_fault_config in
         (label, { fault with checkpoint_interval_ns = interval }))
       [
         ("lossy", 0.0);
         ("400 us", 400_000.0);
         ("100 us", 100_000.0);
         ("25 us", 25_000.0);
       ])
    [ Some 2.0e6; Some 1.0e6; Some 0.5e6 ]

(* ------------------------------------------------------------------ *)
(* overload: per-class goodput and tail latency past the knee          *)
(* ------------------------------------------------------------------ *)

let run_overload () =
  section "Overload  Per-class goodput and p99 past the knee (3 chains, 64B)";
  note "(three identical firewall chains at admission classes bronze/silver/gold;";
  note " past the knee the armed control plane sheds bronze first and preserves";
  note " gold's goodput and tail, where the unarmed rig degrades uniformly)";
  let mx = overload_knee () in
  note "  rig knee (unarmed, all classes lossless): %.2f Mpps" mx;
  let fracs = [ 0.8; 1.0; 1.2; 1.5; 2.0 ] in
  let variants =
    [ ("off", None); ("on", Some Nfp_infra.System.default_overload_config) ]
  in
  (* One sample per class per load point; "mpps" carries the class's
     goodput, not a lossless-rate search result. *)
  let rows =
    sweep
      (fun ((vlabel, overload), frac) ->
        let r, delivered, lat = overload_run ?overload (frac *. mx) in
        let per_class =
          List.map
            (fun (cls, clabel) ->
              ( sample
                  ~mpps:(goodput r delivered.(cls))
                  (Printf.sprintf "overload:admission-%s:load-%.1fx:%s" vlabel frac
                     clabel)
                  lat.(cls),
                shed_of_class r.health.drops cls ))
            overload_classes
        in
        (vlabel, frac, per_class, r.health))
      (cross variants fracs)
  in
  let last = ref "" in
  List.iter
    (fun (vlabel, frac, per_class, (h : Nfp_sim.Harness.health)) ->
      if !last <> vlabel then begin
        last := vlabel;
        note "";
        note "  admission %s: goodput Mpps / p99 us (shed)" vlabel;
        note "  %-8s %-22s %-22s %-22s %s" "load" "bronze" "silver" "gold"
          "episodes/degr"
      end;
      let cell (m, shed) = Printf.sprintf "%.2f/%.1f (%d)" m.mpps m.p99_us shed in
      (match per_class with
      | [ b; s; g ] ->
          note "  %3.0f%%     %-22s %-22s %-22s %d/%d" (100.0 *. frac) (cell b)
            (cell s) (cell g) h.pressure_episodes h.degrade_switches
      | _ -> ());
      List.iter (fun (m, _) -> record_sample m) per_class)
    rows

(* ------------------------------------------------------------------ *)
(* links: goodput/latency vs fabric loss rate and partition duration   *)
(* ------------------------------------------------------------------ *)

let run_links () =
  section "Links  Goodput and latency over a lossy fabric (3-NF chain, 128B)";
  note "(every inter-core edge carries i.i.d. loss at the given rate; the raw";
  note " fabric delivers what survives, the reliable channels recover the rest";
  note " with seq/ack + NACK/RTO retransmission. Goodput is delivered Mpps at a";
  note " fixed 2.0 Mpps offered load; the partition sweep cuts the middle NF's";
  note " ingress link for the given window and reroutes around it once health";
  note " probes declare it Down — availability stays 1.0 at every duration)";
  let kinds = [ ("gw", "Gateway"); ("fw", "Firewall"); ("mon", "Monitor") ] in
  let plan = seq_plan kinds in
  let rate = 2.0 in
  let packets = 20000 in
  (* One scenario: its link plan, whether the channels are reliable,
     its label and its scenario-specific extras. *)
  let point (specs, reliable, label, extras) =
    let links =
      {
        Nfp_infra.System.default_links_config with
        link_plan = Nfp_sim.Fault.link_plan specs;
        reliable;
      }
    in
    let make engine ~output =
      Nfp_infra.System.make ~links
        ~config:{ Nfp_infra.System.default_config with ring_capacity = 8192 }
        ~plan ~nfs:(Nfp_nf.Registry.instances kinds) engine ~output
    in
    let r =
      Nfp_sim.Harness.run ~make ~gen:(gen_of_size 128)
        ~arrivals:(Nfp_sim.Harness.Uniform rate) ~packets ()
    in
    let l = r.health.links in
    let avail = float_of_int r.completed /. float_of_int r.offered in
    ( label,
      avail,
      l,
      sample
        ~mpps:(goodput r r.completed)
        ~extra:
          (extras
          @ [
              ("availability", avail);
              ("link_drops", float_of_int l.link_drops);
              ("retransmits", float_of_int l.retransmits);
              ("duplicates_suppressed", float_of_int l.duplicates_suppressed);
              ("reordered", float_of_int l.reordered);
              ("partitions", float_of_int l.partitions);
              ("reroutes", float_of_int l.reroutes);
            ])
        ("links:" ^ label) r.latency )
  in
  let loss_points =
    List.map
      (fun (p, (mode, reliable)) ->
        ( (if p = 0.0 then [] else [ Nfp_sim.Fault.loss ~probability:p "*" ]),
          reliable,
          Printf.sprintf "loss-%.3f:%s" p mode,
          [ ("loss_rate", p) ] ))
      (cross [ 0.0; 0.005; 0.01; 0.02; 0.05 ] [ ("raw", false); ("reliable", true) ])
  in
  let partition_points =
    List.map
      (fun d ->
        ( (if d = 0.0 then []
           else [ Nfp_sim.Fault.partition ~at_ns:2_000_000.0 ~duration_ns:d "mid1:fw" ]),
          Nfp_infra.System.default_links_config.reliable,
          Printf.sprintf "partition-%.0fus:reliable" (d /. 1000.0),
          [ ("partition_us", d /. 1000.0) ] ))
      [ 0.0; 50_000.0; 200_000.0; 1_000_000.0; 5_000_000.0 ]
  in
  note "";
  note "  %-26s | %-8s %-6s | %-9s %-9s | %-7s %-7s %-7s %s" "scenario" "goodput"
    "avail" "mean(us)" "p99(us)" "drops" "retx" "dedup" "reroutes";
  List.iter
    (fun (label, avail, (l : Nfp_sim.Harness.link_stats), m) ->
      record_sample m;
      note "  %-26s | %-8.3f %-6.3f | %-9.1f %-9.1f | %-7d %-7d %-7d %d" label
        m.mpps avail m.latency_us m.p99_us l.link_drops l.retransmits
        l.duplicates_suppressed l.reroutes)
    (sweep point (loss_points @ partition_points))

(* ------------------------------------------------------------------ *)
(* main                                                                *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("stats", run_stats);
    ("fig7", run_fig7);
    ("fig8", run_fig8);
    ("fig9", run_fig9);
    ("fig11", run_fig11);
    ("fig12", run_fig12);
    ("fig13", run_fig13);
    ("table4", run_table4);
    ("merger", run_merger);
    ("overhead", run_overhead);
    ("replay", run_replay);
    ("fig15", run_fig15);
    ("partition", run_partition);
    ("loadsweep", run_loadsweep);
    ("scale", run_scale);
    ("elastic", run_elastic);
    ("vm", run_vm);
    ("classify", run_classify);
    ("batch", run_batch);
    ("faults", run_faults);
    ("links", run_links);
    ("recovery", run_recovery);
    ("overload", run_overload);
    ("ablation", run_ablation);
    ("micro", run_micro);
  ]

let write_json name ~wall_clock_s samples =
  let file = Printf.sprintf "BENCH_%s.json" name in
  let oc = open_out file in
  Printf.fprintf oc "{\n  \"experiment\": %S,\n  \"wall_clock_s\": %.3f,\n"
    name wall_clock_s;
  Printf.fprintf oc "  \"measurements\": [";
  List.iteri
    (fun i m ->
      Printf.fprintf oc
        "%s\n    { \"label\": %S, \"path\": %S, \"classify\": %S, \"batch\": %d,\n\
        \      \"mpps\": %.6f, \"latency_us\": %.6f, \"p99_us\": %.6f"
        (if i = 0 then "" else ",")
        m.prov.label m.prov.path m.prov.classify m.prov.batch m.mpps m.latency_us
        m.p99_us;
      List.iter (fun (k, v) -> Printf.fprintf oc ", \"%s\": %.6f" k v) m.extra;
      Printf.fprintf oc " }")
    samples;
  Printf.fprintf oc "%s]\n}\n" (if samples = [] then "" else "\n  ");
  close_out oc;
  note "wrote %s (%d measurements, %.1fs)" file (List.length samples) wall_clock_s

let run_experiment name f =
  if not !json_mode then f ()
  else begin
    json_samples := [];
    let t0 = Unix.gettimeofday () in
    f ();
    let wall_clock_s = Unix.gettimeofday () -. t0 in
    write_json name ~wall_clock_s (List.rev !json_samples)
  end

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let flags, selected = List.partition (fun a -> a = "--json") args in
  if flags <> [] then json_mode := true;
  match selected with
  | _ :: _ ->
      List.iter
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> run_experiment name f
          | None ->
              Printf.eprintf "unknown experiment %S; known: %s\n" name
                (String.concat " " (List.map fst experiments));
              exit 1)
        selected
  | [] -> List.iter (fun (name, f) -> run_experiment name f) experiments
