(* Quickstart: write an NFP policy, compile it into a service graph,
   look at the dataplane tables, check correctness against sequential
   execution, and measure the latency win on the simulated dataplane.

   Run with: dune exec examples/quickstart.exe *)

open Nfp_core

let policy_text =
  {|
# Bind instance names to NF types from the registry (paper Table 2).
NF(fw,  Firewall)
NF(mon, Monitor)
NF(lb,  LoadBalancer)

# Describe intent with Order rules; NFP finds the parallelism itself.
Order(fw, before, mon)
Order(mon, before, lb)
|}

(* One NF instance per name; both executions below get fresh state. *)
let instances () =
  Nfp_nf.Registry.instances [ ("fw", "Firewall"); ("mon", "Monitor"); ("lb", "LoadBalancer") ]

let () =
  (* 1. Compile the policy. *)
  let out =
    match Compiler.compile_text policy_text with
    | Ok o -> o
    | Error es -> failwith (String.concat "; " es)
  in
  Format.printf "service graph    : %a@." Graph.pp out.graph;
  Format.printf "equivalent length: %d (sequential would be %d)@."
    (Graph.equivalent_length out.graph)
    (Graph.nf_count out.graph);

  (* 2. Generate the dataplane tables (classifier / FT / merger). *)
  let plan =
    match Tables.of_output out with Ok p -> p | Error e -> failwith e
  in
  Format.printf "@.%a@.@." Tables.pp plan;

  (* 3. Result correctness: replay the same packets through the
        sequential chain and the parallel graph (paper §6.4). *)
  let gen =
    Nfp_traffic.Pktgen.create
      { Nfp_traffic.Pktgen.default with payload_style = Nfp_traffic.Pktgen.Tagged }
  in
  let outcome =
    Nfp_traffic.Replay.run
      ~chain:(fun () ->
        let lookup = instances () in
        [ lookup "fw"; lookup "mon"; lookup "lb" ])
      ~deployment:(fun () -> (plan, instances ()))
      ~gen:(Nfp_traffic.Pktgen.packet gen) ~packets:1000
  in
  Format.printf "replay: %d/%d packets identical to sequential execution@."
    outcome.agreements outcome.total;

  (* 3b. Replication analysis: what each NF's state-access profile
         allows, and how many instances an illustrative replicas=2
         deployment would give it ([replicas] on
         {!Nfp_infra.System.config}; the default 1 keeps today's
         single-instance layout). *)
  let lookup = instances () in
  Format.printf "@.replication analysis (replicas=2 would deploy):@.";
  List.iter
    (fun name ->
      let nf = lookup name in
      let shardable = Replication.shardable ~plan ~nf_of:lookup name in
      Format.printf "  %-4s %-13s %-19s -> %d instance(s)@." name nf.Nfp_nf.Nf.kind
        (Replication.to_string (Replication.derive nf))
        (if shardable then 2 else 1))
    [ "fw"; "mon"; "lb" ];

  (* 4. Measure: NFP graph vs the same NFs chained sequentially. The
        NFP deployment below runs the default execution configuration —
        compiled fast path, cached microflow classifier, and the batch
        "breath" engine at the cost model's burst size ([cost.batch] on
        {!Nfp_infra.System.config}; 1 is per-packet). *)
  Format.printf "execution config : path=compiled  classify=cached  batch=%d@."
    Nfp_infra.System.default_config.cost.batch;
  (* Overload control is opt-in ([?overload] on [System.make]); the
     defaults below are what [default_overload_config] would arm —
     ring watermarks, priority-aware admission, and pressure-degrade
     modes (see examples/overload.exe). *)
  let oc = Nfp_infra.System.default_overload_config in
  Format.printf
    "overload config  : off by default; ~overload arms watermarks %d/%d  degrade=%b@."
    oc.Nfp_infra.Overload.high_watermark oc.Nfp_infra.Overload.low_watermark
    oc.Nfp_infra.Overload.degrade_enabled;
  let pkt i = Nfp_traffic.Pktgen.packet gen i in
  let measure label make =
    let mx =
      Nfp_sim.Harness.max_lossless_mpps ~make ~gen:pkt ~packets:15000 ~hi:14.88 ()
    in
    let r =
      Nfp_sim.Harness.run ~make ~gen:pkt
        ~arrivals:(Nfp_sim.Harness.Burst (0.9 *. mx, 32))
        ~packets:30000 ()
    in
    Format.printf "%-12s max %5.2f Mpps   mean latency %5.1f us@." label mx
      (Nfp_algo.Stats.mean r.latency /. 1000.);
    Nfp_algo.Stats.mean r.latency
  in
  let nfp_make engine ~output =
    Nfp_infra.System.make ~plan ~nfs:(instances ()) engine ~output
  in
  let onvm_make engine ~output =
    let lookup = instances () in
    Nfp_baseline.Opennetvm.make ~nfs:[ lookup "fw"; lookup "mon"; lookup "lb" ] engine
      ~output
  in
  let l_seq = measure "sequential" onvm_make in
  let l_nfp = measure "NFP" nfp_make in
  Format.printf "latency reduction: %.1f%%@." (100. *. (l_seq -. l_nfp) /. l_seq)
