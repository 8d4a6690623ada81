(* The repository benchmark: modeled dataplane metrics (simulated time)
   and simulator-speed metrics (host time) for one workload per run.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   It drives the public API only — Harness.run, Harness.max_lossless_mpps,
   System.make/make_multi and the stats, health and classifier counters
   — and times layers by wrapping the functions it hands to the system:
   each NF's process and cost_cycles, system.inject, the output callback
   and make. Traffic is open-loop: arrivals are engine events at their
   due time whatever the system's state, so latency is timed from the
   due time and generator lateness is zero by construction. Everything
   runs in one process on one domain.

   --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
   from a separate traced run. Either way every fixed-rate run is checked
   against a reference, and the last stdout line is one JSON object
   {correct, attempted, failed, metrics}. The exit code is 1 when a check
   fails, 2 on bad arguments. *)

module Harness = Nfp_sim.Harness
module Engine = Nfp_sim.Engine
module Packet = Nfp_packet.Packet
module System = Nfp_infra.System
module Nf = Nfp_nf.Nf
module W = Workloads

let now_ns = Trace.now_ns
let s_of_ns ns = float_of_int ns /. 1e9

let failures : string list ref = ref []

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.printf "check %-58s %s\n%!" msg (if ok then "ok" else "FAILED");
      if not ok then failures := msg :: !failures)
    fmt

let median xs =
  match List.sort compare xs with
  | [] -> Float.nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ------------------------------------------------------------------ *)
(* Seeds                                                               *)
(* ------------------------------------------------------------------ *)

(* One stream per facet, so adding a facet never shifts another's. *)
type seeds = { traffic : int64; arrivals : int64; jitter : int64; faults : int64; links : int64 }

let seeds_of n =
  let facet k = Nfp_algo.Hashing.mix64 (Int64.add (Int64.mul (Int64.of_int n) 16L) k) in
  { traffic = facet 1L; arrivals = facet 2L; jitter = facet 3L; faults = facet 4L; links = facet 5L }

(* ------------------------------------------------------------------ *)
(* Deployment                                                          *)
(* ------------------------------------------------------------------ *)

type ctx = {
  wl : W.t;
  seeds : seeds;
  graphs : W.graph list;
  template : int -> Packet.t;
  config : System.config;
  fault : System.fault_config option;
  links : System.links_config option;
}

(* Fresh NF instances for one graph, each passed through [wrap]. *)
let lookup ctx ~wrap (g : W.graph) =
  let table = Hashtbl.create 8 in
  List.iter
    (fun (name, kind) -> Hashtbl.replace table name (wrap (ctx.wl.instantiate ~name ~kind)))
    g.kinds;
  Hashtbl.find table

let deploy ctx ~faults ~wrap ~stats engine ~output =
  let fault = if faults then ctx.fault else None in
  let links = if faults then ctx.links else None in
  match ctx.graphs with
  | [ g ] ->
      System.make ~config:ctx.config ?fault ?links ~stats ~plan:g.plan ~nfs:(lookup ctx ~wrap g)
        engine ~output
  | graphs ->
      System.make_multi ~config:ctx.config ?fault ?links ~stats
        ~graphs:(List.map (fun (g : W.graph) -> (g.rule, g.plan, lookup ctx ~wrap g)) graphs)
        engine ~output

let gen ctx i = Packet.full_copy (ctx.template i)

(* ------------------------------------------------------------------ *)
(* Output digest                                                       *)
(* ------------------------------------------------------------------ *)

(* Order-insensitive digest of delivered (pid, wire bytes) pairs: a sum
   and a xor of two independent 63-bit mixes, plus the count. *)
type digest = { mutable n : int; mutable sum : int; mutable xor : int }

let new_digest () = { n = 0; sum = 0; xor = 0 }

let digest_add d pid pkt =
  let b = Packet.to_bytes pkt in
  let h = Nfp_algo.Hashing.fnv1a32_bytes b ~pos:0 ~len:(Bytes.length b) in
  let k = Nfp_algo.Hashing.mix2_int pid h in
  d.n <- d.n + 1;
  d.sum <- d.sum + k;
  d.xor <- d.xor lxor Nfp_algo.Hashing.mix2_int k 0x5bd1e995

let digest_equal a b = a.n = b.n && a.sum = b.sum && a.xor = b.xor

(* Ground truth: every packet through its graph's serial order on fresh
   NF instances, graph chosen by a first-match scan of the rules. *)
let sequential_digest ctx ~packets =
  let chains =
    List.map
      (fun (g : W.graph) ->
        let nfs = lookup ctx ~wrap:Fun.id g in
        (g.rule, List.map nfs g.plan.serial_order))
      ctx.graphs
  in
  let d = new_digest () in
  for i = 0 to packets - 1 do
    let pkt = gen ctx i in
    let matches (rule, _) = Nfp_packet.Flow_match.matches_packet rule pkt in
    match List.find_opt matches chains with
    | None -> ()
    | Some (_, nfs) -> (
        match Nfp_infra.Reference.run_sequential ~nfs pkt with
        | Some out -> digest_add d i out
        | None -> ())
  done;
  d

(* ------------------------------------------------------------------ *)
(* One fixed-rate run                                                  *)
(* ------------------------------------------------------------------ *)

type tracing = {
  tr : Trace.t;
  root : int;
  make_id : int;
  gen_id : int;
  inject_id : int;
  output_id : int;
  summary_id : int;
}

type run = {
  r : Harness.result;
  lat : float array;  (** post-warmup latencies, ns, sorted *)
  out_sum : float;  (** sum of first-delivery times: a cheap identity check *)
  digest : digest option;
  cores : System.core_stats list;
  clf : Harness.classifier_counters;
  wall_ns : int;  (** Harness.run, make included *)
  make_ns : int;
  minor_words : float;
  promoted_words : float;
  minor_gcs : int;
  major_gcs : int;
}

let warmup packets = packets / 100
let search_iterations = 12

let nf_wrapper (t : tracing) (nf : Nf.t) =
  let p = Trace.name t.tr ("nf.process:" ^ nf.kind) in
  let c = Trace.name t.tr ("nf.cost:" ^ nf.kind) in
  let process pkt = Trace.span t.tr p (Int64.to_int (Packet.pid pkt)) nf.process pkt in
  let cost_cycles pkt = Trace.span t.tr c (Int64.to_int (Packet.pid pkt)) nf.cost_cycles pkt in
  { nf with process; cost_cycles }

(* ------------------------------------------------------------------ *)
(* Host-speed calibration                                              *)
(* ------------------------------------------------------------------ *)

(* Shared sandboxes switch between host-speed modes for seconds at a
   time (1.6x apart on the machine this was tuned on), far beyond the
   bounds a regression gate needs. Every host-timed sample is therefore
   scaled by the speed of a fixed kernel timed next to it, to a reference
   host on which one round of the kernel takes [round_ref_s]. The kernel
   streams through a 16 MB array. Of the kernels tried (hashing with
   short-lived lists and a float sort, pure minor allocation, promotion,
   pointer chasing), its speed followed the simulator's most closely
   between the host's fast and slow periods, and it allocates nothing;
   none followed every slow period, so some host noise remains. No
   library code runs in it, so a change to the simulator cannot move its
   own yardstick. The array lives outside the OCaml heap: inside it, it
   changed how far the heap grew. *)
let round_ref_s = 0.025

let stream : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 21) in
  Bigarray.Array1.fill a 0;
  a

(* Host nanoseconds of [rounds] kernel rounds; an int, so that timing a
   round inside a run allocates nothing. *)
let calibrate_ns ~rounds =
  let t0 = now_ns () in
  for r = 1 to 6 * rounds do
    for i = 0 to Bigarray.Array1.dim stream - 1 do
      stream.{i} <- stream.{i} + r
    done
  done;
  now_ns () - t0

(* Calls [f] (which returns a value and the host seconds it measured)
   [count] times, with four kernel rounds (about 0.1 s) before the first
   call and after every call. Each sample comes back with its seconds
   scaled by the mean of the calibrations around it. *)
let interleaved ~count f =
  let rec go acc before k =
    if k >= count then List.rev acc
    else begin
      let v, secs = f () in
      let after = s_of_ns (calibrate_ns ~rounds:4) in
      let norm = secs *. 4.0 *. round_ref_s /. ((before +. after) /. 2.0) in
      go ((v, secs, norm) :: acc) after (k + 1)
    end
  in
  go [] (s_of_ns (calibrate_ns ~rounds:4)) 0

(* A timed run of the simulator lasts up to a few host seconds, long
   enough for the host to change speed inside it, so calibrating only
   around it tracked the host poorly. Instead the run is cut at packet
   boundaries into segments of at least [segment_ns], one kernel round is
   timed at the start, between segments and at the end, and each segment
   is scaled by the mean of the rounds on either side. The rounds' own
   time is left out of the run's. Floats live in [f] so that the
   bookkeeping allocates nothing: the run's allocation count stays exact
   whatever the number of segments. *)
let segment_ns = 150_000_000

type segments = {
  mutable start_ns : int;  (** start of the open segment *)
  mutable raw_ns : int;  (** segment time, kernel rounds left out *)
  mutable rounds : int;
  f : float array;  (** last round's seconds, round before that, calibrated seconds *)
}

let last_round = 0
and prev_round = 1
and calibrated_s = 2

let new_segments () = { start_ns = 0; raw_ns = 0; rounds = 0; f = Array.make 3 0.0 }

let round s =
  s.f.(prev_round) <- s.f.(last_round);
  s.f.(last_round) <- float_of_int (calibrate_ns ~rounds:1) /. 1e9;
  s.rounds <- s.rounds + 1

let close_segment s t =
  let seg = t - s.start_ns in
  round s;
  s.raw_ns <- s.raw_ns + seg;
  s.f.(calibrated_s) <-
    s.f.(calibrated_s)
    +. (float_of_int seg /. 1e9 *. round_ref_s
       /. ((s.f.(prev_round) +. s.f.(last_round)) /. 2.0));
  s.start_ns <- now_ns ()

(* Called before packet [i] is generated, so [make] stays out of the
   first segment. *)
let segment_probe s i =
  if i = 0 then begin
    round s;
    s.start_ns <- now_ns ()
  end
  else if i land 255 = 0 then begin
    let t = now_ns () in
    if t - s.start_ns >= segment_ns then close_segment s t
  end

let run_at ?tracing ?segments ?(faults = true) ~hashing ctx ~rate ~packets =
  let inj = Array.make packets Float.nan in
  let outt = Array.make packets Float.nan in
  let digest = if hashing then Some (new_digest ()) else None in
  let stats = ref (fun () -> []) in
  let system = ref None in
  let make_ns = ref 0 in
  let wrap = match tracing with Some t -> nf_wrapper t | None -> Fun.id in
  let make engine ~output =
    let t0 = now_ns () in
    let output =
      match tracing with
      | None -> output
      | Some t ->
          fun ~pid pkt -> Trace.span t.tr t.output_id (Int64.to_int pid) (output ~pid) pkt
    in
    let observed ~pid pkt =
      let i = Int64.to_int pid in
      if Float.is_nan outt.(i) then outt.(i) <- Engine.now engine;
      (match digest with Some d -> digest_add d i pkt | None -> ());
      output ~pid pkt
    in
    let build () = deploy ctx ~faults ~wrap ~stats engine ~output:observed in
    let s =
      match tracing with None -> build () | Some t -> Trace.span t.tr t.make_id (-1) build ()
    in
    system := Some s;
    let inject =
      match tracing with
      | None -> s.inject
      | Some t ->
          fun ~pid pkt -> Trace.span t.tr t.inject_id (Int64.to_int pid) (s.inject ~pid) pkt
    in
    make_ns := now_ns () - t0;
    {
      s with
      inject =
        (fun ~pid pkt ->
          inj.(Int64.to_int pid) <- Engine.now engine;
          inject ~pid pkt);
    }
  in
  let gen =
    match tracing with
    | None -> gen ctx
    | Some t -> fun i -> Trace.span t.tr t.gen_id i (gen ctx) i
  in
  let gen =
    match segments with
    | None -> gen
    | Some s ->
        fun i ->
          segment_probe s i;
          gen i
  in
  let harness () =
    Harness.run ~make ~gen ~arrivals:(Harness.Poisson rate) ~packets ~warmup:(warmup packets)
      ~seed:ctx.seeds.arrivals ()
  in
  (* Every run starts from a collected heap, so one run's garbage is
     not collected on the next one's clock. *)
  Gc.full_major ();
  let gc0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let r =
    match tracing with None -> harness () | Some t -> Trace.span t.tr t.root (-1) harness ()
  in
  let t_end = now_ns () in
  let wall_ns = t_end - t0 in
  Option.iter (fun s -> close_segment s t_end) segments;
  let w1 = Gc.minor_words () in
  let gc1 = Gc.quick_stat () in
  let w = warmup packets in
  let lat = ref [] and out_sum = ref 0.0 in
  for i = packets - 1 downto 0 do
    if not (Float.is_nan outt.(i)) then begin
      out_sum := !out_sum +. outt.(i);
      if i >= w then lat := (outt.(i) -. inj.(i)) :: !lat
    end
  done;
  let lat = Array.of_list !lat in
  Array.sort compare lat;
  let s = Option.get !system in
  {
    r;
    lat;
    out_sum = !out_sum;
    digest;
    cores = !stats ();
    clf = s.classifier ();
    wall_ns;
    make_ns = !make_ns;
    minor_words = w1 -. w0;
    promoted_words = gc1.promoted_words -. gc0.promoted_words;
    minor_gcs = gc1.minor_collections - gc0.minor_collections;
    major_gcs = gc1.major_collections - gc0.major_collections;
  }

(* Nearest rank, the definition Nfp_algo.Stats uses at the time this
   benchmark was written; computed here so a change to Stats cannot move
   the benchmark's numbers. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(if rank <= 0 then 0 else min (n - 1) (rank - 1))

let failed_of (r : Harness.result) = r.ring_drops + r.shed + r.unmatched + r.in_flight

let print_ledger label (r : Harness.result) =
  Printf.printf
    "ledger %-8s offered %d = completed %d + ingress_rejected %d + nf_dropped %d + unmatched %d \
     + shed %d + in_flight %d   fail_ratio %.6f (%d/%d)\n"
    label r.offered r.completed r.ring_drops r.nf_drops r.unmatched r.shed r.in_flight
    (float_of_int (failed_of r) /. float_of_int r.offered)
    (failed_of r) r.offered

(* Checks common to every fixed-rate run. *)
let check_run label reference (run : run) =
  let r = run.r in
  check
    (r.offered = r.completed + r.ring_drops + r.nf_drops + r.unmatched + r.shed + r.in_flight)
    "%s: ledger closes" label;
  check (failed_of r = 0) "%s: no packet failed" label;
  (match run.digest with
  | Some d -> check (digest_equal d reference) "%s: delivered (pid, bytes) match reference" label
  | None -> ());
  let n = Array.length run.lat in
  check (n = Nfp_algo.Stats.count r.latency) "%s: %d latency samples" label n;
  List.iter
    (fun p ->
      let mine = percentile run.lat p in
      let theirs = Nfp_algo.Stats.percentile r.latency p in
      check (mine = theirs) "%s: p%g equals Harness Stats (%.1f vs %.1f ns)" label p mine theirs)
    [ 50.0; 99.0; 99.9 ]

(* ------------------------------------------------------------------ *)
(* Setup                                                               *)
(* ------------------------------------------------------------------ *)

(* One full setup: policy compile and Tables.plan, then NF instantiation
   and System.make on a fresh engine. Returns (plan ns, make ns). *)
let setup_once ctx =
  let t0 = now_ns () in
  let graphs = ctx.wl.plans () in
  let t1 = now_ns () in
  let ctx = { ctx with graphs } in
  ignore
    (deploy ctx ~faults:true ~wrap:Fun.id ~stats:(ref (fun () -> [])) (Engine.create ())
       ~output:(fun ~pid:_ _ -> ()));
  let t2 = now_ns () in
  (t1 - t0, t2 - t1)

(* Setups are timed in [setup_batches] batches of the workload's
   [setup_batch] (about 0.1 s), long enough for the clock to stay out of
   the figure. Both counts are fixed so the process allocates the same
   whatever the host speed, which keeps the heap's high-water mark
   repeatable. Returns the median batch's calibrated per-setup seconds,
   and the raw plan and make shares. *)
let setup_batches = 9

let time_setup ctx =
  let batch = ctx.wl.setup_batch in
  let samples =
    interleaved ~count:setup_batches (fun () ->
        Gc.full_major ();
        let pl = ref 0 and mk = ref 0 in
        for _ = 1 to batch do
          let p, m = setup_once ctx in
          pl := !pl + p;
          mk := !mk + m
        done;
        let per x = s_of_ns x /. float_of_int batch in
        ((per !pl, per !mk), per (!pl + !mk)))
  in
  ( median (List.map (fun (_, _, norm) -> norm) samples),
    median (List.map (fun ((p, _), _, _) -> p) samples),
    median (List.map (fun ((_, m), _, _) -> m) samples),
    List.length samples,
    batch )

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

(* A metric: name, value, unit, and for a ratio its numerator and
   denominator. *)
let metric name value unit = (name, value, unit, None)

let ratio name num den unit =
  (name, (if den = 0.0 then 0.0 else num /. den), unit, Some (num, den))

(* Prints every metric, each ratio with its base, then the result object
   as the last line. *)
let emit ~attempted ~failed metrics =
  List.iter
    (fun (name, value, unit, base) ->
      Printf.printf "metric %-34s %16.6f %-9s%s\n" name value unit
        (match base with Some (n, d) -> Printf.sprintf " = %.6g / %.6g" n d | None -> ""))
    metrics;
  let m =
    List.map
      (fun (name, value, unit, _) ->
        let v = if Float.is_finite value then Printf.sprintf "%.17g" value else "0" in
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name v unit)
      metrics
  in
  let correct = !failures = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " m);
  exit (if correct then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let heap_mb () = float_of_int (Gc.quick_stat ()).top_heap_words *. 8.0 /. 1048576.0

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]";
  prerr_endline
    ("workloads: " ^ String.concat " " (List.map (fun (w : W.t) -> w.name) W.all));
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let out_dir = ref "" in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload := v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := int_of_string v;
        parse rest
    | "--trace" :: v :: rest ->
        trace := int_of_string v;
        parse rest
    | "--out-dir" :: v :: rest ->
        out_dir := v;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let wl =
    match List.find_opt (fun (w : W.t) -> w.name = !workload) W.all with
    | Some w -> w
    | None -> usage ()
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  let seeds = seeds_of !seed in
  let packets = wl.packets in
  let ctx =
    {
      wl;
      seeds;
      graphs = wl.plans ();
      template = wl.traffic ~seed:seeds.traffic (max wl.packets wl.search_packets);
      config = { wl.config with seed = seeds.jitter };
      fault = wl.fault ~seed:seeds.faults;
      links = wl.links ~seed:seeds.links;
    }
  in
  Printf.printf
    "provenance workload %s seed %d seconds %d trace %d nproc %d ocaml %s domains 1 \
     nominal_mpps %g high_mpps %g packets %d arrivals open-loop poisson generator_lateness_ns 0\n%!"
    wl.name !seed !seconds !trace
    (Domain.recommended_domain_count ())
    Sys.ocaml_version wl.nominal_mpps wl.high_mpps packets;
  let budget_ns = !seconds * 1_000_000_000 in
  (* Setup, median of batches. *)
  let setup_s, plan_s, make_s, setup_n, setup_batch = time_setup ctx in
  Printf.printf
    "setup median of %d batches x %d: %.6f calibrated s; raw plan %.6f s, make %.6f s\n%!"
    setup_n setup_batch setup_s plan_s make_s;
  (* Reference digest. *)
  let reference =
    match wl.reference with
    | W.Sequential -> sequential_digest ctx ~packets
    | W.Fault_free -> (
        let run = run_at ~faults:false ~hashing:true ctx ~rate:wl.nominal_mpps ~packets in
        check (failed_of run.r = 0) "fault-free twin: no packet failed";
        match run.digest with Some d -> d | None -> assert false)
  in
  Printf.printf "reference %s: %d deliveries\n%!"
    (match wl.reference with W.Sequential -> "sequential" | W.Fault_free -> "fault-free twin")
    reference.n;
  (* Nominal rate: one hashed pass (checked against the reference, and
     the warm-up for the timed repetitions). *)
  let nominal = run_at ~hashing:true ctx ~rate:wl.nominal_mpps ~packets in
  check_run "nominal" reference nominal;
  print_ledger "nominal" nominal.r;
  let high = run_at ~hashing:true ctx ~rate:wl.high_mpps ~packets in
  check_run "high" reference high;
  print_ledger "high" high.r;
  let attempted = nominal.r.offered + high.r.offered in
  let failed = failed_of nominal.r + failed_of high.r in
  (* Repetitions must reproduce the checked pass's modeled output, and
     unhashed repetitions must allocate identically. *)
  let repeats label (runs : run list) =
    let n = List.length runs in
    check
      (List.for_all (fun (run : run) -> run.out_sum = nominal.out_sum && run.lat = nominal.lat) runs)
      "%s x%d: modeled output repeats exactly" label n;
    match runs with
    | [] -> ()
    | first :: _ ->
        check
          (List.for_all (fun (run : run) -> run.minor_words = first.minor_words) runs)
          "%s x%d: allocation repeats exactly" label n
  in
  let n_lat = Array.length nominal.lat in
  let pct p = percentile nominal.lat p /. 1000.0 in
  Printf.printf "latency samples %d (post-warmup, %d beyond p99.9)\n%!" n_lat
    (n_lat - int_of_float (ceil (0.999 *. float_of_int n_lat)));
  let sim_s (run : run) = s_of_ns (run.wall_ns - run.make_ns) in
  if !trace = 0 then begin
    let t_search = now_ns () in
    let lossless =
      Harness.max_lossless_mpps
        ~make:(deploy ctx ~faults:true ~wrap:Fun.id ~stats:(ref (fun () -> [])))
        ~gen:(gen ctx) ~packets:wl.search_packets ~lo:wl.search_lo ~hi:wl.search_hi
        ~iterations:search_iterations ~domains:1 ()
    in
    Printf.printf "lossless search: [%g, %g] x %d iterations of %d packets, %.2f host s\n%!"
      wl.search_lo wl.search_hi search_iterations wl.search_packets
      (s_of_ns (now_ns () - t_search));
    check (lossless < wl.search_hi) "knee %.4f Mpps inside the bracket" lossless;
    (* The heap's high-water mark after every distinct piece of work has
       run once; the timed repetitions below only repeat the nominal run,
       and how many of them fit depends on the host's speed. *)
    let peak_heap_mb = heap_mb () in
    (* Timed repetitions for the whole budget, at least three. *)
    let start = now_ns () in
    let rec timed acc k =
      if k >= 3 && now_ns () - start > budget_ns then List.rev acc
      else begin
        let s = new_segments () in
        let run = run_at ~segments:s ~hashing:false ctx ~rate:wl.nominal_mpps ~packets in
        timed ((run, s) :: acc) (k + 1)
      end
    in
    let samples = timed [] 0 in
    let runs = List.map fst samples in
    repeats "timed reps" runs;
    let kpps secs = float_of_int packets /. secs /. 1000.0 in
    let raw = List.map (fun (_, s) -> kpps (s_of_ns s.raw_ns)) samples in
    let calibrated = List.map (fun (_, s) -> kpps s.f.(calibrated_s)) samples in
    let show l = String.concat " " (List.map (Printf.sprintf "%.1f") l) in
    Printf.printf "sim_kpps reps %d, kernel rounds %s\n  raw        %s\n  calibrated %s\n%!"
      (List.length raw)
      (String.concat " " (List.map (fun (_, s) -> string_of_int s.rounds) samples))
      (show raw) (show calibrated);
    emit ~attempted ~failed
      [
        metric "lossless_mpps" (lossless) "Mpps";
        metric "p50_us" (pct 50.0) "us";
        metric "p99_us" (pct 99.0) "us";
        metric "p999_us" (pct 99.9) "us";
        metric "p99_us_high" (percentile high.lat 99.0 /. 1000.0) "us";
        metric "sim_kpps" (median calibrated) "kpps";
        metric "alloc_words_per_pkt" ((List.hd runs).minor_words /. float_of_int packets) "words/pkt";
        metric "peak_heap_mb" peak_heap_mb "MB";
        metric "setup_s" (setup_s) "s";
      ]
  end
  else begin
    let tr = Trace.create ~capacity:200_000 ~sample_every:64 in
    let tracing =
      {
        tr;
        root = Trace.name tr "harness.run";
        make_id = Trace.name tr "system.make";
        gen_id = Trace.name tr "bench.gen";
        inject_id = Trace.name tr "classifier.inject";
        output_id = Trace.name tr "harness.output";
        summary_id = Trace.name tr "stats.summary";
      }
    in
    (* Untraced and traced repetitions alternate, so the overhead ratio
       compares runs made under the same machine conditions. *)
    let start = now_ns () in
    let rec reps plain traced k =
      if k >= 3 && now_ns () - start > budget_ns then (List.rev plain, List.rev traced)
      else begin
        let p = run_at ~hashing:false ctx ~rate:wl.nominal_mpps ~packets in
        let t = run_at ~tracing ~hashing:false ctx ~rate:wl.nominal_mpps ~packets in
        Trace.span tr tracing.summary_id (-1)
          (fun () ->
            List.iter
              (fun p -> ignore (Nfp_algo.Stats.percentile t.r.latency p))
              [ 50.0; 99.0; 99.9 ])
          ();
        reps (p :: plain) (t :: traced) (k + 1)
      end
    in
    let plain, traced = reps [] [] 0 in
    repeats "untraced reps" plain;
    repeats "traced reps" traced;
    let n_reps = List.length traced in
    let root_total = Trace.total_ns tr tracing.root in
    let self_sum = Trace.self_sum_ns tr - Trace.self_ns tr tracing.summary_id in
    check (self_sum = root_total) "self times sum to the traced total (%d ns)" root_total;
    let names = Trace.names tr in
    Printf.printf "traced reps %d, %d spans kept (%d unrecorded); per span name:\n" n_reps
      tr.Trace.n_spans tr.Trace.unrecorded;
    List.iter
      (fun (id, n) ->
        Printf.printf "  %-28s calls %10d  self %10.6f s  total %10.6f s\n" n
          (Trace.count tr id)
          (s_of_ns (Trace.self_ns tr id))
          (s_of_ns (Trace.total_ns tr id)))
      names;
    (if !out_dir <> "" then
       let path =
         Filename.concat !out_dir (Printf.sprintf "spans-%s-seed%d.json" wl.name !seed)
       in
       Trace.write tr path;
       Printf.printf "spans written to %s\n" path);
    let fi = float_of_int in
    let ids pre = List.filter (fun (_, n) -> String.starts_with ~prefix:pre n) names in
    let total f pre = fi (List.fold_left (fun acc (id, _) -> acc + f tr id) 0 (ids pre)) in
    let span_ns id = fi (Trace.self_ns tr id) and span_calls id = fi (Trace.count tr id) in
    let reps_pkts = fi (n_reps * packets) in
    let g = List.hd plain in
    (* Modeled counters come from the high-rate run. *)
    let dur = high.r.duration_ns in
    let h = high.r.health in
    let l = h.links in
    let offered = fi high.r.offered in
    let cores prefix =
      List.filter (fun (c : System.core_stats) -> String.starts_with ~prefix c.core) high.cores
    in
    let nf_cores = cores "mid" and mergers = cores "merger#" in
    let sum f cs = List.fold_left (fun acc (c : System.core_stats) -> acc +. f c) 0.0 cs in
    let busy (c : System.core_stats) = c.busy_ns in
    let max_busy = List.fold_left (fun acc c -> Float.max acc (busy c)) 0.0 nf_cores in
    let nf_kinds = [ "Forwarder"; "IPS"; "Monitor"; "LoadBalancer"; "Firewall" ] in
    let kind_ns k = total Trace.self_ns ("nf.process:" ^ k) +. total Trace.self_ns ("nf.cost:" ^ k) in
    emit ~attempted ~failed
      ([
         ratio "runtime.host_ns_per_pkt" (span_ns tracing.root) reps_pkts "ns/pkt";
         metric "gc.minor_collections" (fi g.minor_gcs) "count";
         metric "gc.major_collections" (fi g.major_gcs) "count";
         ratio "gc.promoted_words_per_pkt" g.promoted_words (fi packets) "words/pkt";
         ratio "nf.host_ns_per_call" (total Trace.self_ns "nf.process:")
           (total Trace.count "nf.process:") "ns/call";
       ]
      @ List.map (fun k -> ratio ("nf." ^ k ^ ".host_s") (kind_ns k /. 1e9) (fi n_reps) "s") nf_kinds
      @ [
          ratio "nf.calls_per_pkt" (total Trace.count "nf.process:") reps_pkts "calls/pkt";
          ratio "nf.cost_model_ns_per_call" (total Trace.self_ns "nf.cost:")
            (total Trace.count "nf.cost:") "ns/call";
          ratio "nf.busy_frac_max" max_busy dur "ratio";
          ratio "nf.stalled_frac"
            (sum (fun c -> c.stalled_ns) nf_cores)
            (fi (List.length nf_cores) *. dur) "ratio";
          ratio "merger.busy_frac" (sum busy mergers) (fi (List.length mergers) *. dur) "ratio";
          ratio "merger.processed_per_pkt" (sum (fun c -> fi c.processed) mergers) offered "ratio";
          ratio "classifier.host_ns_per_pkt" (span_ns tracing.inject_id)
            (span_calls tracing.inject_id) "ns/pkt";
          ratio "classifier.hit_ratio" (fi high.clf.hits)
            (fi (high.clf.hits + high.clf.misses)) "ratio";
          metric "classifier.evictions" (fi high.clf.evictions) "count";
          ratio "classifier.busy_frac" (sum busy (cores "classifier")) dur "ratio";
          metric "core.plan_s" (plan_s) "s";
          metric "system.make_s" (make_s) "s";
          ratio "ring.internal_rejected_per_pkt" (fi h.drops.internal_rejected) offered "ratio";
          metric "ring.ingress_rejected" (fi h.drops.ingress_rejected) "count";
          ratio "channel.retransmits_per_pkt" (fi l.retransmits) offered "ratio";
          metric "channel.link_drops" (fi l.link_drops) "count";
          (* No Duplicate fault is armed, so every suppressed duplicate
             is a retransmission whose original also arrived. *)
          ratio "channel.spurious_retx_ratio" (fi l.duplicates_suppressed) (fi l.retransmits)
            "ratio";
          metric "channel.duplicates_suppressed" (fi l.duplicates_suppressed) "count";
          metric "channel.reordered" (fi l.reordered) "count";
          metric "recovery.crashes" (fi h.crashes) "count";
          metric "recovery.checkpoints" (fi h.checkpoints) "count";
          ratio "recovery.replayed_per_crash" (fi h.replayed) (fi h.crashes) "ratio";
          metric "recovery.deduped" (fi h.deduped) "count";
          metric "recovery.salvaged" (fi h.salvaged) "count";
          metric "watchdog.detections" (fi h.detections) "count";
          ratio "harness.output_ns_per_pkt" (span_ns tracing.output_id)
            (span_calls tracing.output_id) "ns/pkt";
          ratio "stats.summary_s" (span_ns tracing.summary_id /. 1e9) (fi n_reps) "s";
          ratio "trace.overhead_ratio"
            (median (List.map sim_s traced))
            (median (List.map sim_s plain))
            "ratio";
        ])
  end
