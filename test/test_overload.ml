(* Overload control plane: ring watermarks with hysteresis, the
   priority-aware admission controller, per-NF pressure-degrade modes
   and the restart circuit breaker. The headline claims:

   - a packet that IS delivered under overload is byte-identical to
     what the unloaded run delivers for the same pid: shedding changes
     which packets arrive, never their content;
   - the deployment's top admission class is never shed while lower
     classes are, and shed classes keep a deterministic trickle (no
     class starves outright);
   - the watermark latch does not flap under a steady sawtooth inside
     the hysteresis band;
   - the extended ledger accounts for every offered packet under random
     surge x crash plans;
   - with watermarks that can never be reached, the armed system is
     bit-identical to the unarmed one. *)

open Nfp_core

let check = Alcotest.check

let raises_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

(* ------------------------------------------------------------------ *)
(* Ring: watermark latch, wraparound, exact-capacity edges             *)
(* ------------------------------------------------------------------ *)

let fill r n = for _ = 1 to n do assert (Nfp_algo.Ring.enqueue r ()) done
let drain r n = for _ = 1 to n do ignore (Nfp_algo.Ring.dequeue_exn r) done

let ring_tests =
  [
    Alcotest.test_case "latch sets at high, releases at low" `Quick (fun () ->
        let r = Nfp_algo.Ring.create ~capacity:16 in
        Nfp_algo.Ring.set_watermarks r ~high:10 ~low:4;
        fill r 9;
        check Alcotest.bool "below high" false (Nfp_algo.Ring.pressured r);
        fill r 1;
        check Alcotest.bool "at high" true (Nfp_algo.Ring.pressured r);
        drain r 5;
        check Alcotest.bool "inside band stays latched" true
          (Nfp_algo.Ring.pressured r);
        drain r 1;
        check Alcotest.bool "at low releases" false (Nfp_algo.Ring.pressured r);
        check Alcotest.int "one episode" 1 (Nfp_algo.Ring.pressure_episodes r));
    Alcotest.test_case "steady sawtooth inside the band does not flap" `Quick
      (fun () ->
        let r = Nfp_algo.Ring.create ~capacity:16 in
        Nfp_algo.Ring.set_watermarks r ~high:10 ~low:4;
        fill r 10;
        check Alcotest.int "onset" 1 (Nfp_algo.Ring.pressure_episodes r);
        (* Oscillate between 5 and 9 — strictly inside (low, high) — for
           many cycles: the latch must hold without new onsets. *)
        for _ = 1 to 100 do
          drain r 5;
          check Alcotest.bool "still latched" true (Nfp_algo.Ring.pressured r);
          fill r 4;
          fill r 1
        done;
        check Alcotest.int "no flapping" 1 (Nfp_algo.Ring.pressure_episodes r);
        (* Release, then climb back to just under high: still released. *)
        drain r (Nfp_algo.Ring.length r - 4);
        check Alcotest.bool "released at low" false (Nfp_algo.Ring.pressured r);
        fill r 5;
        check Alcotest.bool "under high stays released" false
          (Nfp_algo.Ring.pressured r);
        fill r 1;
        check Alcotest.int "second onset only at high" 2
          (Nfp_algo.Ring.pressure_episodes r));
    Alcotest.test_case "latch tracks occupancy across index wraparound" `Quick
      (fun () ->
        let r = Nfp_algo.Ring.create ~capacity:4 in
        Nfp_algo.Ring.set_watermarks r ~high:3 ~low:1;
        (* 20 fill/drain cycles walk the head and tail many times around
           the backing array; each cycle is exactly one episode. *)
        for cycle = 1 to 20 do
          fill r 3;
          check Alcotest.bool "pressured each cycle" true
            (Nfp_algo.Ring.pressured r);
          drain r 2;
          check Alcotest.bool "released each cycle" false
            (Nfp_algo.Ring.pressured r);
          drain r 1;
          check Alcotest.int "episode per cycle" cycle
            (Nfp_algo.Ring.pressure_episodes r)
        done;
        check Alcotest.bool "empty at end" true (Nfp_algo.Ring.is_empty r));
    Alcotest.test_case "FIFO order survives wraparound under watermarks" `Quick
      (fun () ->
        let r = Nfp_algo.Ring.create ~capacity:4 in
        Nfp_algo.Ring.set_watermarks r ~high:4 ~low:0;
        let out = ref [] in
        for i = 1 to 12 do
          assert (Nfp_algo.Ring.enqueue r i);
          if i mod 2 = 0 then (
            out := Nfp_algo.Ring.dequeue_exn r :: !out;
            out := Nfp_algo.Ring.dequeue_exn r :: !out)
        done;
        check
          Alcotest.(list int)
          "FIFO across wrap"
          (List.init 12 (fun i -> i + 1))
          (List.rev !out));
    Alcotest.test_case "watermark at exact capacity" `Quick (fun () ->
        let r = Nfp_algo.Ring.create ~capacity:4 in
        Nfp_algo.Ring.set_watermarks r ~high:4 ~low:0;
        fill r 4;
        check Alcotest.int "full" 4 (Nfp_algo.Ring.length r);
        check Alcotest.bool "pressured only when full" true
          (Nfp_algo.Ring.pressured r);
        check Alcotest.bool "refused at capacity" false
          (Nfp_algo.Ring.enqueue r ());
        drain r 3;
        check Alcotest.bool "latched until empty" true
          (Nfp_algo.Ring.pressured r);
        drain r 1;
        check Alcotest.bool "released when empty" false
          (Nfp_algo.Ring.pressured r));
    Alcotest.test_case "invalid watermarks are rejected" `Quick (fun () ->
        let r = Nfp_algo.Ring.create ~capacity:4 in
        raises_invalid "high above capacity" (fun () ->
            Nfp_algo.Ring.set_watermarks r ~high:5 ~low:1);
        raises_invalid "low >= high" (fun () ->
            Nfp_algo.Ring.set_watermarks r ~high:2 ~low:2);
        raises_invalid "negative low" (fun () ->
            Nfp_algo.Ring.set_watermarks r ~high:2 ~low:(-1)));
  ]

(* ------------------------------------------------------------------ *)
(* Token bucket: zero-rate and burst-edge cases                        *)
(* ------------------------------------------------------------------ *)

let bucket_tests =
  [
    Alcotest.test_case "zero and negative rates are rejected" `Quick (fun () ->
        raises_invalid "zero rate" (fun () ->
            Nfp_algo.Token_bucket.create ~rate_bps:0.0 ~burst_bytes:1000);
        raises_invalid "negative rate" (fun () ->
            Nfp_algo.Token_bucket.create ~rate_bps:(-8.0) ~burst_bytes:1000);
        raises_invalid "zero burst" (fun () ->
            Nfp_algo.Token_bucket.create ~rate_bps:8000.0 ~burst_bytes:0));
    Alcotest.test_case "burst edge: exactly full burst admits, +1 never does"
      `Quick (fun () ->
        (* 8000 bps = 1000 bytes/s; bucket starts full at 1000 bytes. *)
        let b = Nfp_algo.Token_bucket.create ~rate_bps:8000.0 ~burst_bytes:1000 in
        check Alcotest.bool "oversized burst refused even when full" false
          (Nfp_algo.Token_bucket.admit b ~now_ns:0L ~size:1001);
        check Alcotest.bool "refusal consumed nothing" true
          (Nfp_algo.Token_bucket.admit b ~now_ns:0L ~size:1000);
        check Alcotest.bool "empty refuses one byte" false
          (Nfp_algo.Token_bucket.admit b ~now_ns:0L ~size:1));
    Alcotest.test_case "refill caps at burst and admits at the boundary" `Quick
      (fun () ->
        let b = Nfp_algo.Token_bucket.create ~rate_bps:8000.0 ~burst_bytes:1000 in
        assert (Nfp_algo.Token_bucket.admit b ~now_ns:0L ~size:1000);
        (* 0.5 s at 1000 bytes/s refills exactly 500 bytes. *)
        check Alcotest.bool "over the refill refused" false
          (Nfp_algo.Token_bucket.admit b ~now_ns:500_000_000L ~size:501);
        check Alcotest.bool "exactly the refill admits" true
          (Nfp_algo.Token_bucket.admit b ~now_ns:500_000_000L ~size:500);
        (* A long idle period refills to the burst cap, no further. *)
        check Alcotest.bool "a full burst after idling" true
          (Nfp_algo.Token_bucket.admit b ~now_ns:100_000_000_000L ~size:1000);
        check Alcotest.bool "capped at burst" false
          (Nfp_algo.Token_bucket.admit b ~now_ns:100_000_000_000L ~size:1));
  ]

(* ------------------------------------------------------------------ *)
(* The three-class rig: three identical two-firewall chains behind one *)
(* classifier, steered by destination port, admission classes 0/1/2.   *)
(* ------------------------------------------------------------------ *)

let class_labels = [| "bronze"; "silver"; "gold" |]

let rig_graphs ?(extra = 800) () =
  List.map
    (fun cls ->
      let label = class_labels.(cls) in
      let names = [ label ^ "-fw0"; label ^ "-fw1" ] in
      let graph = Graph.seq (List.map Graph.nf names) in
      let profile_of _ = Nfp_nf.Registry.profile_of "Firewall" in
      let plan =
        match Tables.plan ~profile_of ~priority:cls graph with
        | Ok p -> p
        | Error e -> Alcotest.failf "plan: %s" e
      in
      let table = Hashtbl.create 4 in
      List.iter
        (fun n ->
          Hashtbl.replace table n
            (fst (Nfp_nf.Firewall.create ~name:n ~extra_cycles:extra ())))
        names;
      ( Nfp_packet.Flow_match.make ~dport_range:(1000 + cls, 1000 + cls) (),
        plan,
        Hashtbl.find table ))
    [ 0; 1; 2 ]

(* Packet i belongs to chain (i mod 3); one flow per class keeps the
   microflow cache hot so classification cost is flat. *)
let rig_gen =
  let flows =
    Array.init 3 (fun cls ->
        Nfp_packet.Flow.make
          ~sip:(Option.get (Nfp_packet.Flow.ip_of_string "10.0.0.1"))
          ~dip:(Option.get (Nfp_packet.Flow.ip_of_string "10.0.0.2"))
          ~sport:(5000 + cls) ~dport:(1000 + cls) ~proto:6)
  in
  fun i ->
    Nfp_packet.Packet.create ~flow:flows.(i mod 3)
      ~payload:(String.make 18 'x') ()

let class_of_pid pid = Int64.to_int (Int64.rem pid 3L)

let rig_run ?overload ?fault ~arrivals ~packets () =
  let outs = ref [] in
  let make engine ~output =
    Nfp_infra.System.make_multi ?overload ?fault ~graphs:(rig_graphs ()) engine
      ~output:(fun ~pid pkt ->
        outs := (pid, Bytes.to_string (Nfp_packet.Packet.to_bytes pkt)) :: !outs;
        output ~pid pkt)
  in
  let r = Nfp_sim.Harness.run ~make ~gen:rig_gen ~arrivals ~packets () in
  (r, List.rev !outs)

(* Tight watermarks, degrade off: admission behaviour in isolation. *)
let tight =
  {
    Nfp_infra.System.high_watermark = 32;
    low_watermark = 8;
    degrade_enabled = false;
  }

let shed_of_class (d : Nfp_sim.Harness.drops) c =
  match List.assoc_opt c d.shed_by_class with Some n -> n | None -> 0

let overload_arrivals = Nfp_sim.Harness.Uniform 20.0

let admission_tests =
  [
    Alcotest.test_case "top class never shed while lower classes are" `Quick
      (fun () ->
        let r, outs = rig_run ~overload:tight ~arrivals:overload_arrivals
            ~packets:9000 ()
        in
        let d = r.health.drops in
        check Alcotest.bool "surge actually sheds" true (r.shed > 0);
        check Alcotest.bool "low class sheds first" true
          (shed_of_class d 0 > 0);
        check Alcotest.int "gold is never shed" 0 (shed_of_class d 2);
        check Alcotest.bool "shed is priority-ordered" true
          (shed_of_class d 0 >= shed_of_class d 1);
        (* No starvation: the trickle keeps every class delivering. *)
        let delivered = Array.make 3 0 in
        List.iter
          (fun (pid, _) ->
            let c = class_of_pid pid in
            delivered.(c) <- delivered.(c) + 1)
          outs;
        Array.iteri
          (fun c n ->
            if n = 0 then Alcotest.failf "class %s starved" class_labels.(c))
          delivered);
    Alcotest.test_case "shed taxonomy is internally consistent" `Quick
      (fun () ->
        let r, _ = rig_run ~overload:tight ~arrivals:overload_arrivals
            ~packets:6000 ()
        in
        let d = r.health.drops in
        check Alcotest.int "result.shed = drops.shed" r.shed d.shed;
        check Alcotest.int "per-class sheds sum to the total" d.shed
          (List.fold_left (fun a (_, n) -> a + n) 0 d.shed_by_class);
        check Alcotest.int "ingress_rejected = ring_drops" r.ring_drops
          d.ingress_rejected;
        check Alcotest.bool "pressure episodes recorded" true
          (r.health.pressure_episodes > 0));
    Alcotest.test_case
      "delivered packets under overload match the unloaded run byte-for-byte"
      `Quick (fun () ->
        let packets = 6000 in
        let baseline, bouts =
          rig_run ~arrivals:(Nfp_sim.Harness.Uniform 0.5) ~packets ()
        in
        check Alcotest.int "unloaded run delivers everything" baseline.offered
          baseline.completed;
        let expect = Hashtbl.create 4096 in
        List.iter (fun (pid, bytes) -> Hashtbl.replace expect pid bytes) bouts;
        let over, oouts =
          rig_run ~overload:tight ~arrivals:overload_arrivals ~packets ()
        in
        check Alcotest.bool "overloaded run sheds" true (over.shed > 0);
        check Alcotest.bool "overloaded run still delivers" true
          (over.completed > 0);
        List.iter
          (fun (pid, bytes) ->
            match Hashtbl.find_opt expect pid with
            | Some b ->
                if not (String.equal b bytes) then
                  Alcotest.failf "pid %Ld delivered with different bytes" pid
            | None -> Alcotest.failf "pid %Ld unknown to the unloaded run" pid)
          oouts);
    Alcotest.test_case "unreachable watermarks are bit-identical to unarmed"
      `Quick (fun () ->
        let cap =
          Nfp_infra.System.default_config.Nfp_infra.System.ring_capacity
        in
        let unreachable =
          {
            Nfp_infra.System.default_overload_config with
            high_watermark = cap;
            low_watermark = cap - 1;
          }
        in
        let arrivals = Nfp_sim.Harness.Uniform 2.0 and packets = 4000 in
        let a, aouts = rig_run ~arrivals ~packets () in
        let b, bouts = rig_run ~overload:unreachable ~arrivals ~packets () in
        check Alcotest.int "same completions" a.completed b.completed;
        check Alcotest.int "nothing shed" 0 b.shed;
        check Alcotest.int "no pressure episodes" 0 b.health.pressure_episodes;
        check
          Alcotest.(list (pair int64 string))
          "same deliveries in the same order" aouts bouts;
        check (Alcotest.float 0.0) "same mean latency"
          (Nfp_algo.Stats.mean a.latency)
          (Nfp_algo.Stats.mean b.latency);
        check (Alcotest.float 0.0) "same p99"
          (Nfp_algo.Stats.percentile a.latency 99.0)
          (Nfp_algo.Stats.percentile b.latency 99.0));
  ]

(* ------------------------------------------------------------------ *)
(* Admission ladder, driven directly: no deployment is built           *)
(* ------------------------------------------------------------------ *)

(* A controller over one graph per class 0..[top] (MID = class + 1),
   with a pressure switch the test flips, and the ledger it counts in. *)
let ladder ~top =
  let engine = Nfp_sim.Engine.create () in
  let pressure = ref true in
  let health = Nfp_sim.Harness.fresh_health () in
  let t =
    Nfp_infra.Overload.create ~engine ~config:Nfp_infra.System.default_overload_config
      ~priorities:(Array.init (top + 1) Fun.id) ~health ()
  in
  Nfp_infra.Overload.watch t ~pressured:(fun () -> !pressure);
  (engine, t, pressure, health)

(* [f ()], run at simulated time [ns]. *)
let at engine ns f =
  let result = ref None in
  Nfp_sim.Engine.schedule_at engine ns (fun () -> result := Some (f ()));
  Nfp_sim.Engine.run engine;
  Option.get !result

(* The classes one arrival each would shed now, lowest first. *)
let shed_now t ~top =
  List.filter (fun c -> Nfp_infra.Overload.shed t (c + 1)) (List.init (top + 1) Fun.id)

let ladder_tests =
  let classes = Alcotest.(list int) in
  [
    Alcotest.test_case "pressure climbs the shed level one class per 2 us poll"
      `Quick (fun () ->
        let engine, t, _, _ = ladder ~top:3 in
        let shed_at ns = at engine ns (fun () -> shed_now t ~top:3) in
        check classes "first poll" [ 0 ] (shed_at 0.0);
        check classes "no poll before 2 us" [ 0 ] (shed_at 1_999.0);
        check classes "second poll" [ 0; 1 ] (shed_at 2_000.0);
        check classes "between polls" [ 0; 1 ] (shed_at 3_000.0);
        check classes "third poll" [ 0; 1; 2 ] (shed_at 4_000.0);
        check classes "capped below the top class" [ 0; 1; 2 ] (shed_at 6_000.0));
    Alcotest.test_case "cleared pressure relaxes the level one class per poll"
      `Quick (fun () ->
        let engine, t, pressure, _ = ladder ~top:3 in
        let shed_at ns = at engine ns (fun () -> shed_now t ~top:3) in
        List.iter (fun ns -> ignore (shed_at ns)) [ 0.0; 2_000.0; 4_000.0 ];
        pressure := false;
        check classes "first relaxed poll" [ 0; 1 ] (shed_at 6_000.0);
        check classes "no poll before 2 us" [ 0; 1 ] (shed_at 7_999.0);
        check classes "second relaxed poll" [ 0 ] (shed_at 8_000.0);
        check classes "third relaxed poll" [] (shed_at 10_000.0);
        check classes "stays at zero" [] (shed_at 12_000.0));
    Alcotest.test_case "the top class is never shed" `Quick (fun () ->
        let engine, t, _, _ = ladder ~top:2 in
        for i = 0 to 49 do
          let ns = float_of_int i *. 1_000.0 in
          if at engine ns (fun () -> Nfp_infra.Overload.shed t 3) then
            Alcotest.failf "top class shed at %.0f ns" ns
        done;
        check Alcotest.bool "lower classes are shed" true
          (at engine 50_000.0 (fun () -> Nfp_infra.Overload.shed t 1));
        check
          Alcotest.(list (pair int int))
          "per-class counts" [ (0, 1); (1, 0); (2, 0) ]
          (Nfp_infra.Overload.shed_by_class t));
    Alcotest.test_case "one of every 16 arrivals of a shed class is admitted"
      `Quick (fun () ->
        let engine, t, _, health = ladder ~top:1 in
        let admitted =
          at engine 0.0 (fun () ->
              List.filter
                (fun _ -> not (Nfp_infra.Overload.shed t 1))
                (List.init 160 Fun.id))
        in
        check Alcotest.(list int) "the 16th, 32nd, ... arrival"
          (List.init 10 (fun k -> (16 * k) + 15))
          admitted;
        check Alcotest.int "the rest are shed" 150 health.drops.shed;
        check Alcotest.bool "the top class passes" false
          (at engine 0.0 (fun () -> Nfp_infra.Overload.shed t 2));
        check
          Alcotest.(list (pair int int))
          "per-class counts" [ (0, 150); (1, 0) ]
          (Nfp_infra.Overload.shed_by_class t));
  ]

(* ------------------------------------------------------------------ *)
(* Pressure-degrade modes: cheaper fidelity instead of lost packets    *)
(* ------------------------------------------------------------------ *)

let ids_make ~degrade_enabled engine ~output =
  let profile_of _ = Nfp_nf.Registry.profile_of "IDS" in
  let plan =
    match Tables.plan ~profile_of (Graph.nf "ids") with
    | Ok p -> p
    | Error e -> Alcotest.failf "plan: %s" e
  in
  let nf, _ = Nfp_nf.Ids.create ~name:"ids" () in
  let overload =
    { Nfp_infra.System.high_watermark = 32; low_watermark = 8; degrade_enabled }
  in
  Nfp_infra.System.make ~overload ~plan ~nfs:(fun _ -> nf) engine ~output

let degrade_tests =
  [
    Alcotest.test_case "IDS sheds fidelity under pressure, and only then"
      `Quick (fun () ->
        let gen i = rig_gen i in
        let r =
          Nfp_sim.Harness.run
            ~make:(ids_make ~degrade_enabled:true)
            ~gen
            ~arrivals:(Nfp_sim.Harness.Uniform 30.0)
            ~packets:6000 ()
        in
        check Alcotest.bool "degrade mode engaged" true
          (r.health.degrade_switches > 0);
        check Alcotest.bool "degraded packets recorded" true
          (r.health.drops.degraded > 0);
        check Alcotest.bool "not every packet degraded" true
          (r.health.drops.degraded < r.completed);
        (* Same surge with degrade disabled: full fidelity throughout. *)
        let r =
          Nfp_sim.Harness.run
            ~make:(ids_make ~degrade_enabled:false)
            ~gen
            ~arrivals:(Nfp_sim.Harness.Uniform 30.0)
            ~packets:6000 ()
        in
        check Alcotest.int "no degrade when disabled" 0
          r.health.degrade_switches;
        check Alcotest.int "no degraded packets when disabled" 0
          r.health.drops.degraded);
    Alcotest.test_case "unpressured IDS never degrades" `Quick (fun () ->
        let r =
          Nfp_sim.Harness.run
            ~make:(ids_make ~degrade_enabled:true)
            ~gen:rig_gen
            ~arrivals:(Nfp_sim.Harness.Uniform 0.2)
            ~packets:1000 ()
        in
        check Alcotest.int "no switches" 0 r.health.degrade_switches;
        check Alcotest.int "no degraded packets" 0 r.health.drops.degraded;
        check Alcotest.int "everything delivered" r.offered r.completed);
  ]

(* ------------------------------------------------------------------ *)
(* Circuit breaker: a crash-looping core is abandoned, not restarted   *)
(* forever                                                             *)
(* ------------------------------------------------------------------ *)

let breaker_tests =
  [
    Alcotest.test_case "restart-looping core trips to Bypass with backoff"
      `Quick (fun () ->
        (* fw0 costs ~20 us/packet, so even a one-packet breath outlasts
           the 5 us crash train: between a restart and the next crash
           the core never completes a breath, progress stays frozen, and
           consecutive detections accumulate: detect -> restart, detect
           -> backed-off restart, detect -> trip. *)
        let names = [ "fw0"; "fw1" ] in
        let profile_of _ = Nfp_nf.Registry.profile_of "Firewall" in
        let plan =
          match Tables.plan ~profile_of (Graph.seq (List.map Graph.nf names)) with
          | Ok p -> p
          | Error e -> Alcotest.failf "plan: %s" e
        in
        let crashes =
          List.init 220 (fun i ->
              Nfp_sim.Fault.crash
                ~at_ns:(100_000.0 +. (float_of_int i *. 5_000.0))
                "mid1:fw0")
        in
        let fault =
          {
            Nfp_infra.System.default_fault_config with
            plan = Nfp_sim.Fault.plan crashes;
            watchdog_interval_ns = 5_000.0;
            watchdog_deadline_ns = 20_000.0;
            restart_ns = 10_000.0;
            merge_timeout_ns = 0.0;
            checkpoint_interval_ns = 0.0;
            breaker_threshold = 2;
          }
        in
        let table = Hashtbl.create 4 in
        List.iter
          (fun n ->
            Hashtbl.replace table n
              (fst
                 (Nfp_nf.Firewall.create ~name:n ~extra_cycles:50_000 ())))
          names;
        let make engine ~output =
          Nfp_infra.System.make ~fault
            ~config:
              { Nfp_infra.System.default_config with ring_capacity = 4096 }
            ~plan ~nfs:(Hashtbl.find table) engine ~output
        in
        let r =
          Nfp_sim.Harness.run ~make ~gen:rig_gen
            ~arrivals:(Nfp_sim.Harness.Uniform 1.0) ~packets:2000 ()
        in
        check Alcotest.bool "breaker tripped" true (r.health.breaker_trips > 0);
        check Alcotest.bool "restarts backed off first" true
          (r.health.backoffs > 0);
        check Alcotest.bool "traffic kept flowing via bypass" true
          (r.health.bypassed_packets > 0);
        let state =
          List.find_map
            (fun (c : Nfp_sim.Harness.core_health) ->
              if c.core = "mid1:fw0" then Some c.state else None)
            r.health.cores
        in
        check
          Alcotest.(option string)
          "core ends bypassed" (Some "bypassed") state);
    Alcotest.test_case "threshold 0 keeps the recover-forever behaviour"
      `Quick (fun () ->
        let names = [ "fw0"; "fw1" ] in
        let profile_of _ = Nfp_nf.Registry.profile_of "Firewall" in
        let plan =
          match Tables.plan ~profile_of (Graph.seq (List.map Graph.nf names)) with
          | Ok p -> p
          | Error e -> Alcotest.failf "plan: %s" e
        in
        let fault =
          {
            Nfp_infra.System.default_fault_config with
            plan =
              Nfp_sim.Fault.plan
                [
                  Nfp_sim.Fault.crash ~at_ns:200_000.0 "mid1:fw0";
                  Nfp_sim.Fault.crash ~at_ns:700_000.0 "mid1:fw0";
                ];
            merge_timeout_ns = 0.0;
          }
        in
        let table = Hashtbl.create 4 in
        List.iter
          (fun n ->
            Hashtbl.replace table n
              (fst (Nfp_nf.Firewall.create ~name:n ~extra_cycles:300 ())))
          names;
        let make engine ~output =
          Nfp_infra.System.make ~fault
            ~config:
              { Nfp_infra.System.default_config with ring_capacity = 4096 }
            ~plan ~nfs:(Hashtbl.find table) engine ~output
        in
        let r =
          Nfp_sim.Harness.run ~make ~gen:rig_gen
            ~arrivals:(Nfp_sim.Harness.Uniform 1.0) ~packets:2000 ()
        in
        check Alcotest.int "no trips" 0 r.health.breaker_trips;
        check Alcotest.int "no backoffs" 0 r.health.backoffs;
        check Alcotest.bool "restarts happened" true (r.health.restarts > 0));
  ]

(* ------------------------------------------------------------------ *)
(* Property: the extended ledger holds under random surge x crash      *)
(* plans                                                               *)
(* ------------------------------------------------------------------ *)

let rig_cores =
  [|
    "mid1:bronze-fw0"; "mid1:bronze-fw1"; "mid2:silver-fw0"; "mid2:silver-fw1";
    "mid3:gold-fw0"; "mid3:gold-fw1";
  |]

let surge_case_gen =
  QCheck.Gen.(
    let* base = float_range 1.0 6.0 in
    let* shapes =
      list_size (int_range 1 3)
        (let* kind = int_range 0 2 in
         let* at = float_range 50_000.0 1_500_000.0 in
         let* factor = float_range 1.5 8.0 in
         let* dur = float_range 50_000.0 500_000.0 in
         return
           (match kind with
           | 0 -> Nfp_sim.Fault.Step { at_ns = at; factor }
           | 1 -> Nfp_sim.Fault.Spike { at_ns = at; duration_ns = dur; factor }
           | _ -> Nfp_sim.Fault.Ramp { from_ns = at; to_ns = at +. dur; factor }))
    in
    let* crashes =
      list_size (int_range 0 2)
        (pair
           (int_range 0 (Array.length rig_cores - 1))
           (float_range 100_000.0 1_200_000.0))
    in
    return (base, shapes, crashes))

let surge_case_arbitrary =
  QCheck.make
    ~print:(fun (base, shapes, crashes) ->
      Printf.sprintf "base %.2f Mpps, %d shapes, crashes %s" base
        (List.length shapes)
        (String.concat ","
           (List.map
              (fun (i, t) -> Printf.sprintf "%s@%.0f" rig_cores.(i) t)
              crashes)))
    surge_case_gen

let property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:15
         ~name:"extended ledger holds under any surge x crash plan"
         surge_case_arbitrary
         (fun (base, shapes, crashes) ->
           let fault =
             {
               Nfp_infra.System.default_fault_config with
               plan =
                 Nfp_sim.Fault.plan
                   (List.map
                      (fun (i, at_ns) ->
                        Nfp_sim.Fault.crash ~at_ns rig_cores.(i))
                      crashes);
             }
           in
           let overload =
             {
               Nfp_infra.System.default_overload_config with
               high_watermark = 32;
               low_watermark = 8;
             }
           in
           let r, _ =
             rig_run ~overload ~fault
               ~arrivals:
                 (Nfp_sim.Harness.Surge
                    (Nfp_sim.Fault.surge ~base_mpps:base shapes))
               ~packets:1500 ()
           in
           let d = r.health.drops in
           (* [Harness.run] already fails loudly if the ledger breaks;
              re-derive it here so the property is explicit. *)
           r.offered
           = r.completed + r.ring_drops + r.nf_drops + r.unmatched + r.shed
             + r.in_flight
           && r.in_flight >= 0
           && d.shed = r.shed
           && List.fold_left (fun a (_, n) -> a + n) 0 d.shed_by_class = d.shed
           && d.ingress_rejected = r.ring_drops
           && d.internal_rejected >= 0
           && shed_of_class d 2 = 0));
  ]

let () =
  Alcotest.run "nfp_overload"
    [
      ("ring watermarks", ring_tests);
      ("token bucket", bucket_tests);
      ("admission", admission_tests);
      ("ladder", ladder_tests);
      ("degrade", degrade_tests);
      ("breaker", breaker_tests);
      ("property", property_tests);
    ]
