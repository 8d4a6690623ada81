(* nfp — command-line front end to the NFP framework.

   Subcommands mirror the paper's workflow: compile policies into
   service graphs (§4), print the dependency analysis (§4.1), inspect
   NF action profiles (§5.4), partition graphs across servers (§7),
   verify result correctness by replay (§6.4), and simulate deployments
   to measure latency/throughput (§6). *)

open Cmdliner
open Nfp_core

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_policy path =
  match Nfp_policy.Parser.parse (read_file path) with
  | Ok p -> Ok p
  | Error e -> Error (Printf.sprintf "%s: %s" path e)

let compile_policy ?field_sensitive_write_read policy =
  match Compiler.compile ?field_sensitive_write_read policy with
  | Ok o -> Ok o
  | Error es -> Error (String.concat "\n" es)

let instances_of_policy (policy : Nfp_policy.Rule.policy) graph =
  (* Instantiate each NF named in the graph from its binding (or its
     own name when it is itself a registered type). *)
  Nfp_nf.Registry.instances
    (List.map
       (fun name ->
         (name, Option.value (List.assoc_opt name policy.bindings) ~default:name))
       (Graph.nfs graph))

let or_die = function
  | Ok v -> v
  | Error e ->
      prerr_endline e;
      exit 1

(* --- compile ----------------------------------------------------------- *)

let policy_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"POLICY" ~doc:"Policy file.")

let tables_flag =
  Arg.(value & flag & info [ "tables" ] ~doc:"Also print the generated dataplane tables.")

let explain_flag =
  Arg.(value & flag & info [ "explain" ] ~doc:"Explain each pair's parallelism verdict.")

let dot_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "dot" ] ~docv:"FILE" ~doc:"Write a Graphviz rendering of the service graph.")

let fswr_flag =
  Arg.(
    value & flag
    & info [ "field-sensitive-write-read" ]
        ~doc:
          "Ablation: treat write-before-read pairs on different fields as parallelizable \
           (the paper's Table 3 keeps them sequential).")

let compile_cmd =
  let run path tables fswr dot explain =
    let policy = or_die (load_policy path) in
    let out = or_die (compile_policy ~field_sensitive_write_read:fswr policy) in
    Format.printf "service graph : %a@." Graph.pp out.graph;
    Format.printf "equivalent len: %d (of %d NFs)@."
      (Graph.equivalent_length out.graph)
      (Graph.nf_count out.graph);
    (match Compiler.sequential_graph policy with
    | Ok seq -> Format.printf "sequential    : %a@." Graph.pp seq
    | Error _ -> ());
    List.iter (fun w -> Format.printf "warning: %s@." w) out.warnings;
    let plan = or_die (Tables.of_output out) in
    Format.printf "copies/packet : %d header-only, %d full@." plan.header_copies
      plan.full_copies;
    if tables then Format.printf "%a@." Tables.pp plan;
    if explain then print_string (Compiler.explain out);
    match dot with
    | None -> ()
    | Some file ->
        let oc = open_out file in
        output_string oc (Graph.to_dot out.graph);
        close_out oc;
        Format.printf "wrote %s@." file
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a policy into a service graph (paper §4).")
    Term.(const run $ policy_arg $ tables_flag $ fswr_flag $ dot_flag $ explain_flag)

(* --- analyze ----------------------------------------------------------- *)

let analyze_cmd =
  let run fswr =
    Format.printf "Action dependency table (paper Table 3):@.%a@." Dependency.pp_table ();
    let s = Analysis.run ~field_sensitive_write_read:fswr () in
    Format.printf "%a@." Analysis.pp s
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Print the dependency table and NF-pair statistics (paper §4).")
    Term.(const run $ fswr_flag)

(* --- inspect ----------------------------------------------------------- *)

let inspect_cmd =
  let kind_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NF_TYPE" ~doc:"Registered NF type.")
  in
  let probes_arg =
    Arg.(value & opt int 64 & info [ "probes" ] ~doc:"Probe packets per field.")
  in
  let run kind probes =
    match Nfp_inspector.Inspector.inspect_registered ~probes kind with
    | None ->
        prerr_endline "unknown NF type or no built-in implementation";
        exit 1
    | Some (observed, comparison) ->
        Format.printf "declared: %a@." Nfp_nf.Action.pp_profile
          (Nfp_nf.Registry.profile_of kind);
        Format.printf "observed: %a@." Nfp_nf.Action.pp_profile observed;
        Format.printf "%a@." Nfp_inspector.Inspector.pp_comparison comparison
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:"Derive an NF action profile by behavioural probing (paper §5.4).")
    Term.(const run $ kind_arg $ probes_arg)

(* --- partition --------------------------------------------------------- *)

let partition_cmd =
  let cores_arg =
    Arg.(value & opt int 8 & info [ "cores" ] ~doc:"CPU cores per server.")
  in
  let run path cores =
    let policy = or_die (load_policy path) in
    let out = or_die (compile_policy policy) in
    match Partition.partition ~cores_per_server:cores out.graph with
    | Ok assignments -> Format.printf "%a@." Partition.pp assignments
    | Error e ->
        prerr_endline e;
        exit 1
  in
  Cmd.v
    (Cmd.info "partition"
       ~doc:"Partition a service graph across servers (paper §7 scalability).")
    Term.(const run $ policy_arg $ cores_arg)

(* --- replay ------------------------------------------------------------ *)

let packets_arg ~default =
  Arg.(value & opt int default & info [ "packets" ] ~doc:"Packets to send.")

let replay_cmd =
  let run path packets =
    let policy = or_die (load_policy path) in
    let out = or_die (compile_policy policy) in
    let seq_graph = or_die (Result.map_error (fun e -> e) (Compiler.sequential_graph policy)) in
    let chain () =
      let lookup = instances_of_policy policy seq_graph in
      List.map lookup (Graph.nfs seq_graph)
    in
    let deployment () =
      let plan = or_die (Tables.of_output out) in
      (plan, instances_of_policy policy out.graph)
    in
    let gen =
      Nfp_traffic.Pktgen.create
        {
          Nfp_traffic.Pktgen.default with
          payload_style = Nfp_traffic.Pktgen.Tagged;
          sizes = Nfp_traffic.Size_dist.datacenter;
        }
    in
    let o =
      Nfp_traffic.Replay.run ~chain ~deployment ~gen:(Nfp_traffic.Pktgen.packet gen)
        ~packets
    in
    Format.printf "replayed %d packets: %d agree, %d disagree@." o.total o.agreements
      (List.length o.disagreements);
    if not (Nfp_traffic.Replay.agrees o) then exit 1
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Verify the optimized graph matches sequential execution (paper §6.4).")
    Term.(const run $ policy_arg $ packets_arg ~default:1000)

(* --- simulate ---------------------------------------------------------- *)

let simulate_cmd =
  let size_arg =
    Arg.(value & opt int 64 & info [ "size" ] ~doc:"Frame size in bytes.")
  in
  let mergers_arg =
    Arg.(value & opt int 1 & info [ "mergers" ] ~doc:"Merger instances.")
  in
  let pcap_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "pcap" ] ~docv:"FILE" ~doc:"Capture the NFP deployment's output to a pcap file.")
  in
  let run path packets size mergers pcap =
    if packets < 1 then or_die (Error "nfp_cli simulate: --packets must be >= 1");
    let policy = or_die (load_policy path) in
    let out = or_die (compile_policy policy) in
    let plan = or_die (Tables.of_output out) in
    let gen =
      or_die
        (try
           Ok
             (Nfp_traffic.Pktgen.create
                { Nfp_traffic.Pktgen.default with sizes = Nfp_traffic.Size_dist.fixed size })
         with Invalid_argument msg -> Error msg)
    in
    let pkt i = Nfp_traffic.Pktgen.packet gen i in
    let measure label make =
      let hi = Nfp_sim.Nic.max_mpps ~frame_bytes:size in
      let mx = Nfp_sim.Harness.max_lossless_mpps ~make ~gen:pkt ~packets:(packets / 2) ~hi () in
      let r =
        Nfp_sim.Harness.run ~make ~gen:pkt
          ~arrivals:(Nfp_sim.Harness.Burst (0.9 *. mx, 32))
          ~packets ()
      in
      Format.printf "%-14s max %.2f Mpps, mean latency %.1f us (p99 %.1f)@." label mx
        (Nfp_algo.Stats.mean r.latency /. 1000.)
        (Nfp_algo.Stats.percentile r.latency 99. /. 1000.)
    in
    let stats_cell = ref (fun () -> []) in
    let nfp_make engine ~output =
      Nfp_infra.System.make
        ~config:{ Nfp_infra.System.default_config with mergers }
        ~stats:stats_cell ~plan
        ~nfs:(instances_of_policy policy out.graph)
        engine ~output
    in
    Format.printf "graph: %a@." Graph.pp out.graph;
    (* A bad deployment config is refused when the system is built. *)
    (try measure "NFP" nfp_make
     with Invalid_argument msg ->
       prerr_endline msg;
       exit 1);
    (* The last measured run's samplers survive; print utilization. *)
    let cores = !stats_cell () in
    if cores <> [] then begin
      Format.printf "per-core utilization of the last run:@.";
      let total_busy =
        List.fold_left (fun acc c -> max acc c.Nfp_infra.System.busy_ns) 1.0 cores
      in
      List.iter
        (fun (c : Nfp_infra.System.core_stats) ->
          Format.printf "  %-18s %10d pkts  busy %6.1f%%  stalled %5.1f%%@." c.core
            c.processed
            (100.0 *. c.busy_ns /. total_busy)
            (100.0 *. c.stalled_ns /. total_busy))
        cores
    end;
    (match pcap with
    | None -> ()
    | Some file ->
        let tap, bind, dump = Nfp_traffic.Pcap.capture () in
        let engine = Nfp_sim.Engine.create () in
        bind engine;
        let system = nfp_make engine ~output:tap in
        for i = 0 to min 999 (packets - 1) do
          Nfp_sim.Engine.schedule engine
            ~delay:(float_of_int i *. 1000.0)
            (fun () -> system.Nfp_sim.Harness.inject ~pid:(Int64.of_int i) (pkt i))
        done;
        Nfp_sim.Engine.run engine;
        Nfp_traffic.Pcap.write_file file (dump ());
        Format.printf "captured %d packets to %s@." (List.length (dump ())) file);
    match Compiler.sequential_graph policy with
    | Error _ -> ()
    | Ok seq ->
        let chain () =
          let lookup = instances_of_policy policy seq in
          List.map lookup (Graph.nfs seq)
        in
        let onvm_make engine ~output =
          Nfp_baseline.Opennetvm.make ~nfs:(chain ()) engine ~output
        in
        measure "OpenNetVM" onvm_make
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Measure a policy's latency and throughput on the simulated dataplane (paper §6).")
    Term.(
      const run $ policy_arg $ packets_arg ~default:30000 $ size_arg $ mergers_arg
      $ pcap_arg)

(* --- pcap-replay -------------------------------------------------------- *)

let pcap_replay_cmd =
  let in_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"IN.pcap" ~doc:"Input capture.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"OUT.pcap" ~doc:"Write surviving packets here.")
  in
  let run path input output_file =
    let policy = or_die (load_policy path) in
    let out = or_die (compile_policy policy) in
    let plan = or_die (Tables.of_output out) in
    let nfs = instances_of_policy policy out.graph in
    match Nfp_traffic.Pcap.read_file input with
    | Error e ->
        prerr_endline e;
        exit 1
    | Ok records ->
        let survivors = ref [] in
        let dropped = ref 0 in
        List.iter
          (fun (r : Nfp_traffic.Pcap.record) ->
            match Nfp_infra.Reference.run_plan ~plan ~nfs r.pkt with
            | Some pkt -> survivors := { r with Nfp_traffic.Pcap.pkt } :: !survivors
            | None -> incr dropped)
          records;
        let survivors = List.rev !survivors in
        Format.printf "graph: %a@." Graph.pp out.graph;
        Format.printf "%d packets in, %d out, %d dropped@." (List.length records)
          (List.length survivors) !dropped;
        match output_file with
        | None -> ()
        | Some f ->
            Nfp_traffic.Pcap.write_file f survivors;
            Format.printf "wrote %s@." f
  in
  Cmd.v
    (Cmd.info "pcap-replay"
       ~doc:"Run a pcap capture through a policy's deployed service graph.")
    Term.(const run $ policy_arg $ in_arg $ out_arg)

let main =
  Cmd.group
    (Cmd.info "nfp" ~version:"1.0.0"
       ~doc:"NFP: network function parallelism framework (SIGCOMM'17 reproduction).")
    [
      compile_cmd; analyze_cmd; inspect_cmd; partition_cmd; replay_cmd; simulate_cmd;
      pcap_replay_cmd;
    ]

let () = exit (Cmd.eval main)
