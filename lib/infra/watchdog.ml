type recovery = Restart | Bypass | Degrade

type config = {
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

let default =
  {
    plan = Nfp_sim.Fault.empty;
    watchdog_interval_ns = 30_000.0;
    watchdog_deadline_ns = 120_000.0;
    merge_timeout_ns = 250_000.0;
    restart_ns = Nfp_sim.Cost.default.restart_ns;
    recovery_of = (fun _ -> Restart);
    checkpoint_interval_ns = 100_000.0;
    log_capacity = 4096;
    breaker_threshold = 0;
    dedup_capacity = 65_536;
  }

(* The counters a watchdog keeps: its own recovery actions plus the
   lossless-recovery cells' checkpoints and replays. *)
type counters = {
  mutable detections : int;
  mutable restarts : int;
  mutable bypasses : int;
  mutable degrades : int;
  mutable recoveries : int;
  mutable breaker_trips : int;
  mutable backoffs : int;
  mutable salvaged : int;
  mutable checkpoints : int;
  mutable forced_checkpoints : int;
  mutable replayed : int;
}

type t = {
  engine : Nfp_sim.Engine.t;
  fault : config option;
  cost : Nfp_sim.Cost.t;
  (* Checkpointing armed: a non-empty fault plan and a positive
     checkpoint interval. *)
  lossless : bool;
  counters : counters;
  (* Per service graph: [true] while Degrade recovery holds graph
     [mid] on its sequential twin. *)
  degraded : bool array;
  mutable watching : watching option;  (* set by {!watch} under a fault config *)
}

(* Lossless-recovery cell of one NF replica: the last checkpoint, plus
   a bounded log of pre-processing packet copies appended since (each
   carries its MID/PID/version metadata). A full log forces a
   checkpoint early — never a silent loss — so the log never holds more
   than [capacity] packets: it is an array of that many slots, each a
   distinct packet, refilled in place by later appends. Slots
   [0, materialised) hold packets; the array is built on the first
   append, its unmaterialised tail filled with that packet as a
   placeholder. [charge] bills checkpoint time to the replica's core;
   {!watch} wires it to the probe's server. *)
and cell =
  | No_cell
  | Cell of {
      wd : t;
      nf : Nfp_nf.Nf.t;
      snap : unit -> Nfp_nf.Nf.state;
      restore : Nfp_nf.Nf.state -> unit;
      capacity : int;
      mutable last : Nfp_nf.Nf.state;
      mutable log : Nfp_packet.Packet.t array;
      mutable log_len : int;
      mutable materialised : int;
      mutable charge : float -> unit;
    }

and probe =
  | Probe : {
      server : ('job, 'send) Nfp_sim.Server.t;
      nf : (int * string) option;
      drain : ('job, 'send) Nfp_sim.Server.t -> int;
      cell : cell;
    }
      -> probe

(* What a watchdog keeps per watched core: its recovery state, its
   heartbeat baseline and its circuit-breaker count; plus the
   checkpoint clock and the check timer. *)
and watching = {
  fc : config;
  probes : probe array;
  wstate : [ `Up | `Restarting | `Bypassed ] array;
  prev_processed : int array;
  prev_stalled : float array;
  last_progress : float array;
  (* Consecutive watchdog detections of each core since its last
     observed processed-packet progress. *)
  consec : int array;
  mutable next_ckpt : float;
  timer : Nfp_sim.Engine.timer;
}

let create ~engine ~cost ~graphs ?fault () =
  let lossless =
    match fault with
    | Some fc -> (not (Nfp_sim.Fault.is_empty fc.plan)) && fc.checkpoint_interval_ns > 0.0
    | None -> false
  in
  {
    engine;
    fault;
    cost;
    lossless;
    counters =
      {
        detections = 0;
        restarts = 0;
        bypasses = 0;
        degrades = 0;
        recoveries = 0;
        breaker_trips = 0;
        backoffs = 0;
        salvaged = 0;
        checkpoints = 0;
        forced_checkpoints = 0;
        replayed = 0;
      };
    degraded = Array.make graphs false;
    watching = None;
  }

let counters t = t.counters

let degraded t mid = t.degraded.(mid - 1)

let no_cell = No_cell

let cell t (nf : Nfp_nf.Nf.t) =
  match (t.lossless, t.fault, nf.snapshot, nf.restore) with
  | true, Some fc, Some snap, Some restore ->
      Cell
        {
          wd = t;
          nf;
          snap;
          restore;
          capacity = fc.log_capacity;
          last = snap ();
          log = [||];
          log_len = 0;
          materialised = 0;
          charge = ignore;
        }
  | _ -> No_cell

let logging = function No_cell -> false | Cell _ -> true

(* Re-seed the cell from the NF's current state. Also the migration
   commit: the replica's state just changed out from under the
   checkpoint (entries carved out at the source, folded in at the
   destination), so a later crash-replay would otherwise resurrect
   migrated state at the source or lose absorbed state at the
   destination. *)
let refresh = function
  | No_cell -> ()
  | Cell c ->
      c.last <- c.snap ();
      c.log_len <- 0

let checkpoint ~forced = function
  | No_cell -> ()
  | Cell c as cell ->
      (* An empty log means no packet touched the NF since the last
         snapshot — the state cannot have changed, so re-snapshotting
         would buy nothing and still charge the core. *)
      if c.log_len > 0 then begin
        refresh cell;
        let w = c.wd.counters in
        w.checkpoints <- w.checkpoints + 1;
        if forced then w.forced_checkpoints <- w.forced_checkpoints + 1;
        c.charge (Nfp_sim.Cost.ns_of_cycles c.wd.cost c.wd.cost.checkpoint_cycles)
      end

let log cell pkt =
  match cell with
  | No_cell -> ()
  | Cell c ->
      if c.log_len >= c.capacity then checkpoint ~forced:true cell;
      let i = c.log_len in
      if i < c.materialised then Nfp_packet.Packet.copy_into ~dst:c.log.(i) pkt
      else begin
        let copy = Nfp_packet.Packet.full_copy pkt in
        if i = 0 then c.log <- Array.make c.capacity copy else c.log.(i) <- copy;
        c.materialised <- i + 1
      end;
      c.log_len <- i + 1

(* Restore the checkpoint and re-process the log in arrival order on
   the logged copies: state effects replay exactly, nothing is emitted
   (the original emissions stand — output suppression), and the time is
   returned as added downtime. The replayed state is the fresh
   checkpoint; the log restarts empty. Uncharged: the core is down and
   the replay is already in its downtime. *)
let replay = function
  | No_cell -> 0.0
  | Cell c as cell ->
      c.restore c.last;
      let cost = c.wd.cost and w = c.wd.counters in
      let extra = ref 0.0 in
      for i = 0 to c.log_len - 1 do
        let pkt = c.log.(i) in
        let cycles = cost.replay_cycles + c.nf.cost_cycles pkt in
        (try ignore (c.nf.process pkt) with _ -> ());
        w.replayed <- w.replayed + 1;
        extra := !extra +. Nfp_sim.Cost.ns_of_cycles cost cycles
      done;
      refresh cell;
      !extra

let mark_progress ws i s now =
  ws.prev_processed.(i) <- Nfp_sim.Server.processed s;
  ws.prev_stalled.(i) <- Nfp_sim.Server.stalled_ns s;
  ws.last_progress.(i) <- now

(* Fixed restart backoff: the n-th consecutive restart of a core waits
   [restart_ns * backoff_factor^(n-1)], capped at [backoff_max_ns]. *)
let backoff_factor = 2.0

let backoff_max_ns = 2_000_000.0

(* The n-th consecutive restart of a core backs off exponentially; past
   [breaker_threshold] the circuit breaker trips — an NF core is
   bypassed instead of restart-looping forever. A threshold of 0
   disables both (the pre-breaker behavior, bit for bit). *)
let recover t ws i (Probe p) =
  let engine = t.engine and fc = ws.fc and w = t.counters and consec = ws.consec in
  let s = p.server and breaker_on = fc.breaker_threshold > 0 in
  w.detections <- w.detections + 1;
  consec.(i) <- consec.(i) + 1;
  let restart_delay () =
    if breaker_on && consec.(i) > 1 then begin
      w.backoffs <- w.backoffs + 1;
      Float.min backoff_max_ns
        (fc.restart_ns *. (backoff_factor ** float_of_int (consec.(i) - 1)))
    end
    else fc.restart_ns
  in
  let restart_core ~on_up () =
    ws.wstate.(i) <- `Restarting;
    Nfp_sim.Server.kill s;
    (* Lossless restart: restore the last checkpoint and replay the
       input log before the core comes back — the replay time extends
       the outage — then re-admit the reclaimed casualties instead of
       flushing them. *)
    let replay_ns = replay p.cell in
    Nfp_sim.Engine.schedule engine ~delay:(restart_delay () +. replay_ns) (fun () ->
        if t.lossless then begin
          let jobs, emits = Nfp_sim.Server.casualty_counts s in
          w.salvaged <- w.salvaged + jobs + emits
        end;
        ignore (Nfp_sim.Server.revive ~flush:(not t.lossless) s);
        w.restarts <- w.restarts + 1;
        ws.wstate.(i) <- `Up;
        mark_progress ws i s (Nfp_sim.Engine.now engine);
        on_up ())
  in
  let bypass_core () =
    ws.wstate.(i) <- `Bypassed;
    w.bypasses <- w.bypasses + 1;
    Nfp_sim.Server.kill s;
    ignore (p.drain p.server)
  in
  match p.nf with
  | None -> restart_core ~on_up:ignore ()
  | Some (mid, nfname) ->
      if breaker_on && consec.(i) > fc.breaker_threshold then begin
        w.breaker_trips <- w.breaker_trips + 1;
        bypass_core ()
      end
      else (
        match fc.recovery_of nfname with
        | Restart -> restart_core ~on_up:ignore ()
        | Bypass -> bypass_core ()
        | Degrade ->
            t.degraded.(mid - 1) <- true;
            w.degrades <- w.degrades + 1;
            restart_core
              ~on_up:(fun () ->
                t.degraded.(mid - 1) <- false;
                w.recoveries <- w.recoveries + 1)
              ())

let check t ws =
  let fc = ws.fc in
  let now = Nfp_sim.Engine.now t.engine in
  (* Periodic checkpoint tick: snapshot every live core's NF state and
     truncate its input log. Rides the watchdog's wake/sleep cycle, so
     an idle system takes no checkpoints. *)
  if t.lossless && now >= ws.next_ckpt then begin
    Array.iteri
      (fun i (Probe p) ->
        if ws.wstate.(i) = `Up && not (Nfp_sim.Server.is_down p.server) then
          checkpoint ~forced:false p.cell)
      ws.probes;
    ws.next_ckpt <- now +. fc.checkpoint_interval_ns
  end;
  let pending = ref false in
  Array.iteri
    (fun i probe ->
      let (Probe { server = s; _ }) = probe in
      let pc = Nfp_sim.Server.processed s and st = Nfp_sim.Server.stalled_ns s in
      if pc > ws.prev_processed.(i) || st > ws.prev_stalled.(i) then begin
        (* Real processed progress (not just stall retries) closes the
           breaker window: the core is alive again. *)
        if pc > ws.prev_processed.(i) then ws.consec.(i) <- 0;
        mark_progress ws i s now
      end
      else if Nfp_sim.Server.queue_length s = 0 then
        (* An idle core is healthy. Keeping its baseline fresh makes
           the deadline clock start when work is queued, not when it
           last processed — otherwise a burst landing on a long-idle
           core (e.g. merge timeouts releasing a wedge) trips an
           instant false kill. *)
        ws.last_progress.(i) <- now
      else if Nfp_sim.Server.is_paused s && not (Nfp_sim.Server.is_down s) then
        (* A quiesced migration source is healthy: the elastic
           controller froze it deliberately and owns unfreezing it
           (commit or abort) — declaring it dead would restart a core
           mid-handover. The breaker window stays open too: a pause is
           not progress. *)
        ws.last_progress.(i) <- now
      else if Nfp_sim.Server.is_busy s && not (Nfp_sim.Server.is_down s) then
        (* A core mid-breath is healthy: its completion event is
           already on the calendar. With large batches a single breath
           can legally outlast the deadline while the processed
           counter stands still — only a *down* core (crashed or hung,
           which [interrupt] marks) may have a frozen heartbeat counted
           against it. *)
        ws.last_progress.(i) <- now
      else if ws.wstate.(i) = `Up && now -. ws.last_progress.(i) > fc.watchdog_deadline_ns
      then recover t ws i probe;
      match ws.wstate.(i) with
      | `Bypassed -> ()
      | `Restarting -> pending := true
      | `Up ->
          if
            if Nfp_sim.Server.is_down s then Nfp_sim.Server.queue_length s > 0
            else Nfp_sim.Server.queue_length s > 0 || Nfp_sim.Server.is_busy s
          then pending := true)
    ws.probes;
  if !pending then Nfp_sim.Engine.arm_timer ws.timer ~delay:fc.watchdog_interval_ns

let kick t =
  match t.watching with
  | Some ws when not (Nfp_sim.Engine.timer_armed ws.timer) ->
      (* Reset the heartbeats on wake-up: idle time must not count
         against the deadline. The checkpoint clock restarts with the
         watchdog for the same reason. *)
      let now = Nfp_sim.Engine.now t.engine in
      if t.lossless then ws.next_ckpt <- now +. ws.fc.checkpoint_interval_ns;
      Array.iteri (fun i (Probe p) -> mark_progress ws i p.server now) ws.probes;
      Nfp_sim.Engine.arm_timer ws.timer ~delay:ws.fc.watchdog_interval_ns
  | _ -> ()

let state t i =
  match t.watching with
  | Some ws when ws.wstate.(i) = `Bypassed -> Some "bypassed"
  | Some ws when ws.wstate.(i) = `Restarting -> Some "restarting"
  | _ -> None

(* Every core's checkpoint time lands on its own server, so each cell's
   charge is wired once the probes exist. Without a fault config the
   watchdog stays inert: [kick] does nothing and no core is watched. *)
let watch t probes =
  Array.iter
    (fun (Probe p) ->
      match p.cell with
      | Cell c -> c.charge <- Nfp_sim.Server.charge p.server
      | No_cell -> ())
    probes;
  match t.fault with
  | None -> ()
  | Some fc ->
      let n = Array.length probes in
      let timer =
        Nfp_sim.Engine.timer t.engine ~name:"watchdog" (fun () ->
            match t.watching with Some ws -> check t ws | None -> ())
      in
      t.watching <-
        Some
          {
            fc;
            probes;
            wstate = Array.make n `Up;
            prev_processed = Array.make n 0;
            prev_stalled = Array.make n 0.0;
            last_progress = Array.make n 0.0;
            consec = Array.make n 0;
            next_ckpt = infinity;
            timer;
          }
