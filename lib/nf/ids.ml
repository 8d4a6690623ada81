open Nfp_packet

type mode = [ `Detect | `Prevent ]

type stats = { alerts : unit -> int; scanned : unit -> int }

let default_signatures n =
  List.init n (fun i ->
      (* Snort-style payload tokens; deterministic, length 6-14. *)
      let len = 6 + (i mod 9) in
      String.init len (fun j -> Char.chr (97 + ((i * 31) + (j * 7)) mod 26)))

let base_profile =
  Action.
    [
      Read Field.Sip;
      Read Field.Dip;
      Read Field.Sport;
      Read Field.Dport;
      Read Field.Payload;
    ]

(* One automaton per process, shared by every instance and its [fresh]
   replicas: it is immutable after build (the "signature-automaton"
   state is [Read_only]), and building one per instance would cost a
   64 KB shift table each. *)
let automaton = Nf.shared (fun () -> Nfp_algo.Aho_corasick.build (default_signatures 100))

let rec create ?(name = "ids") ?(mode = `Detect) () =
  let automaton = automaton () in
  (* Scans the payload where it lies in the packet buffer: no copy. *)
  let scan buf pos len = Nfp_algo.Aho_corasick.matches_bytes automaton buf ~pos ~len in
  let counters = Nf.counters [ ("alerts-counter", 1); ("scanned-counter", 1) ] in
  let c = Nf.cells counters and alerts = 0 and scanned = 1 in
  let process pkt =
    c.(scanned) <- c.(scanned) + 1;
    if Packet.payload_exists pkt scan then begin
      c.(alerts) <- c.(alerts) + 1;
      match mode with `Detect -> Nf.Forward | `Prevent -> Nf.Dropped
    end
    else Nf.Forward
  in
  let profile = match mode with `Detect -> base_profile | `Prevent -> Action.Drop :: base_profile in
  let cost_cycles pkt = 2400 + (5 * Packet.payload_length pkt) in
  (* Pressure-degrade mode: sampled inspection. Every 8th packet gets
     the full automaton scan; the rest are waved through for the flat
     dispatch cost. Deterministic (a plain counter, no PRNG) so a
     degraded run is replayable. *)
  let tick = ref 0 in
  let degrade =
    {
      Nf.d_label = "sampled-1/8";
      d_cost_cycles = (fun pkt -> if !tick mod 8 = 0 then cost_cycles pkt else 300);
      d_process =
        (fun pkt ->
          let sampled = !tick mod 8 = 0 in
          incr tick;
          if sampled then process pkt
          else Nf.Forward);
    }
  in
  (* The Prevent verdict depends only on the packet's own payload and
     the immutable automaton, never on the counters, so IDS and IPS are
     both shardable: replicas reach identical per-packet verdicts. *)
  ( Nf.make ~name ~kind:(match mode with `Detect -> "IDS" | `Prevent -> "IPS") ~profile
      ~cost_cycles
      ~state_access:State_access.[ global Read_only "signature-automaton" ]
      ~fresh:(fun () -> fst (create ~name ~mode ()))
      ~degrade ~counters process,
    { alerts = (fun () -> c.(alerts)); scanned = (fun () -> c.(scanned)) } )
