(* Link channels: every inter-core edge of the deployment crosses one.

   A channel models the fabric port in front of a destination core's
   ring (so all edges landing on one core — classifier->NF, NF->NF,
   branch->merger, merger->delivery — share its link state, the way
   they share the physical port). Two modes:

   - Raw: the fabric's fault processes ([Nfp_sim.Fault.transit]) apply
     to every send and nothing protects the payload — drops vanish into
     the run ledger's in-flight residual, duplicates deliver twice,
     reordered transits arrive late. With no matching link spec a raw
     channel is a transparent function call, byte-identical to no
     channel at all.

   - Reliable: an opt-in ARQ layer over the same lossy fabric.
     Per-link sequence numbers; a bounded sender window (a full window
     refuses the send, preserving the upstream cursor-retry
     backpressure discipline); cumulative acks on a breath-completion
     cadence; NACK-driven retransmission when an out-of-order arrival
     exposes a gap, plus a head-of-line retransmit timer with
     exponential backoff and a per-packet budget; a bounded reorder
     buffer releasing strictly in sequence order (NFP's order-sensitive
     chains survive fabric reordering); receiver-side dedup by
     sequence; and link health probes that declare the link Down after
     [probe_timeout_k] consecutive timeouts inside a partition window —
     unacked packets then detour through the caller's [reroute] path
     and the link recovers (flap support) when a later send finds the
     partition over.

   Every timer self-quenches when its work drains — the simulation
   engine runs until its event heap empties, so a perpetual probe or
   ack tick would hang every run. Acks and probes are control-plane
   exchanges piggybacked on breath completions: they never traverse the
   lossy fabric themselves (the data-loss case is what the retransmit
   machinery exists for), which keeps the protocol provably
   terminating. *)

type stats = {
  mutable link_drops : int;
  mutable retransmits : int;
  mutable duplicates_suppressed : int;
  mutable reordered : int;
  mutable partitions : int;
  mutable reroutes : int;
}

let fresh_stats () =
  {
    link_drops = 0;
    retransmits = 0;
    duplicates_suppressed = 0;
    reordered = 0;
    partitions = 0;
    reroutes = 0;
  }

type reliability = {
  window : int;  (* max unacked sends; a full window refuses (backpressure) *)
  ack_interval_ns : float;  (* cumulative-ack cadence *)
  rto_ns : float;  (* initial head-of-line retransmit timeout *)
  rto_backoff : float;  (* RTO multiplier per consecutive firing *)
  rto_max_ns : float;  (* RTO ceiling *)
  retransmit_budget : int;  (* per-packet retransmissions before Down escalation *)
  reorder_window : int;  (* receiver reorder-buffer span *)
  probe_interval_ns : float;  (* health-probe cadence while data is outstanding *)
  probe_timeout_k : int;  (* consecutive probe timeouts declaring Down *)
  ack_ns : float;  (* processing cost of one cumulative ack *)
  retransmit_ns : float;  (* added transit delay of a retransmission *)
}

(* Both buffers are seq-indexed rings, so the per-packet path allocates
   nothing. The unacked sends are always the contiguous range
   [unacked_lo, next_seq): sends append at [next_seq], acks prune a
   prefix, and a Down flush empties it. It never exceeds [window], so
   slot [seq mod window] is unique for each unacked seq. The reorder
   buffer holds seqs inside [expected, expected + reorder_window), one
   per slot of [seq mod reorder_window]; [rx_seq] names the seq a slot
   holds ([-1] = free), since a Down flush scans the wider range
   [expected, next_seq), where slots alias. The payload rings are built
   on first use, filled with that payload: there is no ['a] to fill them
   with before. *)
type 'a t = {
  engine : Nfp_sim.Engine.t;
  state : Nfp_sim.Fault.link_state option;
  rel : reliability option;
  deliver : 'a -> bool;  (* the destination ring; [false] = full *)
  reroute : 'a -> unit;  (* detour around a Down link *)
  stats : stats;
  (* --- sender --- *)
  mutable next_seq : int;
  mutable unacked_lo : int;  (* lowest unacked seq *)
  mutable tx_payload : 'a array;
  tx_attempts : int array;
  tx_last : float array;  (* time of the last (re)transmission *)
  rto : Nfp_sim.Engine.timer Lazy.t;
  mutable rto_streak : int;  (* consecutive RTO firings without ack progress *)
  ack : Nfp_sim.Engine.timer Lazy.t;
  probe : Nfp_sim.Engine.timer Lazy.t;
  mutable probe_fails : int;
  mutable down : bool;
  (* --- receiver --- *)
  mutable expected : int;
  mutable rx_payload : 'a array;
  rx_seq : int array;
  retry_release : Nfp_sim.Engine.timer Lazy.t;  (* in-order release stalled on a full ring *)
}

let is_down ch = ch.down

let now ch = Nfp_sim.Engine.now ch.engine

let partitioned ch =
  match ch.state with
  | Some st -> Nfp_sim.Fault.link_partitioned st ~now_ns:(now ch)
  | None -> false

(* Run a refused delivery to completion off-core, at the same
   stall-poll cadence as a server's flush loop: used where the channel
   has already accepted the packet (delayed raw transits, Down-flush)
   and the only consumer left is the destination ring. *)
let drive_deliver ch x = Nfp_sim.Server.drive ch.engine (fun () -> ch.deliver x)

let unacked ch = ch.next_seq - ch.unacked_lo

let tx_slot ch seq = seq mod Array.length ch.tx_last

let rx_slot ch seq = seq mod Array.length ch.rx_seq

let buffered ch seq = ch.rx_seq.(rx_slot ch seq) = seq

(* ------------------------------------------------------------------ *)
(* Receiver: dedup, bounded reorder buffer, in-order release           *)
(* ------------------------------------------------------------------ *)

let rec release ch =
  let retry = Lazy.force ch.retry_release in
  if not (Nfp_sim.Engine.timer_armed retry) then
    let i = rx_slot ch ch.expected in
    if ch.rx_seq.(i) = ch.expected then
      if ch.deliver ch.rx_payload.(i) then begin
        ch.rx_seq.(i) <- -1;
        ch.expected <- ch.expected + 1;
        arm_ack ch;
        release ch
      end
      else
        (* Destination ring full: the head (and everything behind it)
           stays buffered; retry at the stall-poll cadence. *)
        Nfp_sim.Engine.arm_timer retry ~delay:150.0

(* Cumulative ack: prune every send below the receiver's [expected].
   One event per cadence interval, armed by release progress and
   re-armed only while something was pruned — an idle channel schedules
   nothing. *)
and arm_ack ch =
  match ch.rel with
  | Some rel when unacked ch > 0 ->
      Nfp_sim.Engine.arm_timer (Lazy.force ch.ack) ~delay:(rel.ack_interval_ns +. rel.ack_ns)
  | _ -> ()

(* Releases since this ack was armed need no re-arm here: the ack
   prunes up to [expected] itself, and each later release arms the next
   one. *)
let ack ch =
  if ch.unacked_lo < ch.expected then begin
    ch.unacked_lo <- ch.expected;
    ch.rto_streak <- 0
  end

(* ------------------------------------------------------------------ *)
(* Sender: transit draws, RTO + NACK retransmission, health probes     *)
(* ------------------------------------------------------------------ *)

let rec arrive ch seq payload =
  match ch.rel with
  | None -> assert false (* raw channels never sequence *)
  | Some rel ->
      if seq < ch.expected || buffered ch seq then
        (* A fabric duplicate, or a retransmission of something already
           received: consumed by the sequence filter. *)
        ch.stats.duplicates_suppressed <- ch.stats.duplicates_suppressed + 1
      else if seq >= ch.expected + rel.reorder_window then
        (* Beyond the reorder buffer: the port refuses the copy; the
           retransmit machinery re-delivers once the window advances. *)
        ch.stats.link_drops <- ch.stats.link_drops + 1
      else begin
        let i = rx_slot ch seq in
        if Array.length ch.rx_payload = 0 then
          ch.rx_payload <- Array.make (Array.length ch.rx_seq) payload
        else ch.rx_payload.(i) <- payload;
        ch.rx_seq.(i) <- seq;
        if seq > ch.expected then nack ch ~upto:seq;
        release ch
      end

(* First transmission: drawn against the fabric at send time. A clean
   pass arrives synchronously — a lossless reliable channel adds no
   latency to the payload path. *)
and transmit ch seq payload =
  match ch.state with
  | None -> arrive ch seq payload
  | Some st -> (
      match Nfp_sim.Fault.transit st ~now_ns:(now ch) with
      | Nfp_sim.Fault.T_drop -> ch.stats.link_drops <- ch.stats.link_drops + 1
      | Nfp_sim.Fault.T_pass -> arrive ch seq payload
      | Nfp_sim.Fault.T_pass_dup gap ->
          arrive ch seq payload;
          Nfp_sim.Engine.schedule ch.engine ~delay:gap (fun () ->
              arrive ch seq payload)
      | Nfp_sim.Fault.T_delay d ->
          ch.stats.reordered <- ch.stats.reordered + 1;
          Nfp_sim.Engine.schedule ch.engine ~delay:d (fun () ->
              arrive ch seq payload))

(* A retransmission pays [retransmit_ns] on top of whatever the fabric
   does to it — and the fabric may well lose it again. The payload is
   read now: its slot may carry a later seq by the time the copy lands. *)
and retransmit ch seq rel =
  ch.stats.retransmits <- ch.stats.retransmits + 1;
  let i = tx_slot ch seq in
  ch.tx_last.(i) <- now ch;
  let payload = ch.tx_payload.(i) in
  let deliver_later extra =
    Nfp_sim.Engine.schedule ch.engine ~delay:(rel.retransmit_ns +. extra) (fun () ->
        arrive ch seq payload)
  in
  match ch.state with
  | None -> deliver_later 0.0
  | Some st -> (
      match Nfp_sim.Fault.transit st ~now_ns:(now ch) with
      | Nfp_sim.Fault.T_drop -> ch.stats.link_drops <- ch.stats.link_drops + 1
      | Nfp_sim.Fault.T_pass -> deliver_later 0.0
      | Nfp_sim.Fault.T_pass_dup gap ->
          deliver_later 0.0;
          deliver_later gap
      | Nfp_sim.Fault.T_delay d ->
          ch.stats.reordered <- ch.stats.reordered + 1;
          deliver_later d)

(* NACK: an out-of-order arrival at [upto] exposes every missing seq
   below it; retransmit the ones still unacked and not merely buffered,
   at most once per ack interval each (the guard stops a jumbled —
   delayed, not lost — transit from triggering a retransmission storm
   while its original is still in flight). *)
and nack ch ~upto =
  match ch.rel with
  | None -> ()
  | Some rel ->
      let t = now ch in
      for seq = ch.expected to upto - 1 do
        let i = tx_slot ch seq in
        if
          seq >= ch.unacked_lo
          && (not (buffered ch seq))
          && t -. ch.tx_last.(i) >= rel.ack_interval_ns
        then begin
          ch.tx_attempts.(i) <- ch.tx_attempts.(i) + 1;
          if ch.tx_attempts.(i) > rel.retransmit_budget then go_down ch
          else retransmit ch seq rel
        end
      done

(* Head-of-line retransmit timer: armed while anything is unacked,
   backed off exponentially while acks make no progress. Budget
   exhaustion escalates to Down — the retransmit path is itself a
   partition detector for fabrics that eat every copy. *)
and arm_rto ch =
  let rto = Lazy.force ch.rto in
  match ch.rel with
  | Some rel
    when (not (Nfp_sim.Engine.timer_armed rto))
         && (not ch.down)
         && unacked ch > 0 ->
      Nfp_sim.Engine.arm_timer rto
        ~delay:
          (Float.min rel.rto_max_ns
             (rel.rto_ns *. (rel.rto_backoff ** float_of_int ch.rto_streak)))
  | _ -> ()

and rto ch =
  match ch.rel with
  | Some rel when (not ch.down) && unacked ch > 0 ->
      let seq = ch.unacked_lo in
      if seq < ch.expected || buffered ch seq then
        (* Received (released or buffered) but not yet cumulatively
           acked: no data to recover, just wait for the ack cadence. *)
        arm_rto ch
      else begin
        let i = tx_slot ch seq in
        ch.tx_attempts.(i) <- ch.tx_attempts.(i) + 1;
        if ch.tx_attempts.(i) > rel.retransmit_budget then go_down ch
        else begin
          ch.rto_streak <- ch.rto_streak + 1;
          retransmit ch seq rel;
          arm_rto ch
        end
      end
  | _ -> ()  (* everything acked: quench *)

(* Down transition: flush the port in sequence order — buffered
   arrivals deliver (they made it across), unacked sends detour through
   [reroute] — then resync the receiver to the sender's next sequence
   number (an out-of-band control-plane exchange, like a migration
   commit). The link stays Down until a later send observes the
   partition window over. *)
and go_down ch =
  if not ch.down then begin
    ch.down <- true;
    ch.stats.partitions <- ch.stats.partitions + 1;
    for seq = ch.expected to ch.next_seq - 1 do
      if buffered ch seq then begin
        let i = rx_slot ch seq in
        ch.rx_seq.(i) <- -1;
        drive_deliver ch ch.rx_payload.(i)
      end
      else if seq >= ch.unacked_lo then begin
        ch.stats.reroutes <- ch.stats.reroutes + 1;
        ch.reroute ch.tx_payload.(tx_slot ch seq)
      end
    done;
    ch.expected <- ch.next_seq;
    ch.unacked_lo <- ch.next_seq;
    ch.probe_fails <- 0;
    ch.rto_streak <- 0
  end

(* Health probes: while data is outstanding, sample the link every
   interval. Probes only test the partition predicate (pure in time —
   they never consume the fabric's loss draws); [probe_timeout_k]
   consecutive failures declare Down. Retransmit-budget exhaustion is
   the slower, loss-driven path to the same verdict. *)
let arm_probe ch =
  match ch.rel with
  | Some rel
    when rel.probe_interval_ns > 0.0 && (not ch.down) && unacked ch > 0 ->
      Nfp_sim.Engine.arm_timer (Lazy.force ch.probe) ~delay:rel.probe_interval_ns
  | _ -> ()

let probe ch =
  match ch.rel with
  | Some rel when (not ch.down) && unacked ch > 0 ->
      if partitioned ch then begin
        ch.probe_fails <- ch.probe_fails + 1;
        if ch.probe_fails >= rel.probe_timeout_k then go_down ch else arm_probe ch
      end
      else begin
        ch.probe_fails <- 0;
        arm_probe ch
      end
  | _ -> ()

(* The four timers are built on first arming: a raw channel never
   needs them. *)
let create ~engine ~name ?state ?reliability ~deliver ~reroute ~stats () =
  let timer what f = Nfp_sim.Engine.timer engine ~name:(name ^ ":" ^ what) f in
  let window, reorder_window =
    match reliability with
    | Some r -> (max 1 r.window, max 1 r.reorder_window)
    | None -> (0, 0)
  in
  let rec ch =
    {
      engine;
      state;
      rel = reliability;
      deliver;
      reroute;
      stats;
      next_seq = 0;
      unacked_lo = 0;
      tx_payload = [||];
      tx_attempts = Array.make window 0;
      tx_last = Array.make window 0.0;
      rto = lazy (timer "rto" (fun () -> rto ch));
      rto_streak = 0;
      ack = lazy (timer "ack" (fun () -> ack ch));
      probe = lazy (timer "probe" (fun () -> probe ch));
      probe_fails = 0;
      down = false;
      expected = 0;
      rx_payload = [||];
      rx_seq = Array.make reorder_window (-1);
      retry_release = lazy (timer "release" (fun () -> release ch));
    }
  in
  ch

(* ------------------------------------------------------------------ *)
(* Send                                                                *)
(* ------------------------------------------------------------------ *)

let send_raw ch x =
  match ch.state with
  | None -> ch.deliver x
  | Some st -> (
      match Nfp_sim.Fault.transit st ~now_ns:(now ch) with
      | Nfp_sim.Fault.T_drop ->
          (* Vanished on the wire: accepted by the fabric, never seen
             again — the ledger's in-flight residual absorbs it. *)
          ch.stats.link_drops <- ch.stats.link_drops + 1;
          true
      | Nfp_sim.Fault.T_pass -> ch.deliver x
      | Nfp_sim.Fault.T_pass_dup gap ->
          let ok = ch.deliver x in
          if ok then
            Nfp_sim.Engine.schedule ch.engine ~delay:gap (fun () ->
                drive_deliver ch x);
          ok
      | Nfp_sim.Fault.T_delay d ->
          ch.stats.reordered <- ch.stats.reordered + 1;
          Nfp_sim.Engine.schedule ch.engine ~delay:d (fun () -> drive_deliver ch x);
          true)

let rec send ch x =
  match ch.rel with
  | None -> send_raw ch x
  | Some rel ->
      if ch.down then
        if not (partitioned ch) then begin
          (* The partition window has passed: the next probe cycle would
             see health, so the link comes back up (flap support) and
             this send takes the normal path. *)
          ch.down <- false;
          ch.probe_fails <- 0;
          send ch x
        end
        else begin
          ch.stats.reroutes <- ch.stats.reroutes + 1;
          ch.reroute x;
          true
        end
      else if unacked ch >= rel.window then false
      else begin
        let seq = ch.next_seq in
        ch.next_seq <- seq + 1;
        let i = tx_slot ch seq in
        if Array.length ch.tx_payload = 0 then
          ch.tx_payload <- Array.make (Array.length ch.tx_last) x
        else ch.tx_payload.(i) <- x;
        ch.tx_attempts.(i) <- 0;
        ch.tx_last.(i) <- now ch;
        transmit ch seq x;
        arm_rto ch;
        arm_probe ch;
        true
      end
