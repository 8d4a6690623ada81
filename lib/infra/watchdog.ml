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
  backoff_factor : float;
  backoff_max_ns : float;
  breaker_fallback : recovery;
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
    backoff_factor = 2.0;
    backoff_max_ns = 2_000_000.0;
    breaker_fallback = Bypass;
    dedup_capacity = 65_536;
  }

type probe =
  | Probe : {
      server : ('job, 'send) Nfp_sim.Server.t;
      nf : (int * string) option;
      drain : unit -> int;
      checkpoint : unit -> unit;
      replay : unit -> float;
    }
      -> probe

type t = {
  kick : unit -> unit;
  state : int -> string option;
  mutable detections : int;
  mutable restarts : int;
  mutable bypasses : int;
  mutable degrades : int;
  mutable recoveries : int;
  mutable breaker_trips : int;
  mutable backoffs : int;
  mutable salvaged : int;
}

let off =
  {
    kick = ignore;
    state = (fun _ -> None);
    detections = 0;
    restarts = 0;
    bypasses = 0;
    degrades = 0;
    recoveries = 0;
    breaker_trips = 0;
    backoffs = 0;
    salvaged = 0;
  }

let create ~engine (fc : config) ~lossless ~degraded probes =
  let n = Array.length probes in
  let wstate = Array.make n `Up in
  let prev_processed = Array.make n 0 in
  let prev_stalled = Array.make n 0.0 in
  let last_progress = Array.make n 0.0 in
  let active = ref false in
  let next_ckpt = ref infinity in
  let mark_progress i s now =
    prev_processed.(i) <- Nfp_sim.Server.processed s;
    prev_stalled.(i) <- Nfp_sim.Server.stalled_ns s;
    last_progress.(i) <- now
  in
  (* Circuit breaker: consecutive watchdog detections of each core since
     its last observed processed-packet progress. The n-th consecutive
     restart backs off exponentially; past [breaker_threshold] the
     breaker trips — an NF core falls to the [breaker_fallback] policy
     instead of restart-looping forever. A threshold of 0 disables both
     (the pre-breaker behavior, bit for bit). *)
  let consec = Array.make n 0 in
  let breaker_on = fc.breaker_threshold > 0 in
  let rec t =
    {
      kick;
      state =
        (fun i ->
          match wstate.(i) with
          | `Bypassed -> Some "bypassed"
          | `Restarting -> Some "restarting"
          | `Up -> None);
      detections = 0;
      restarts = 0;
      bypasses = 0;
      degrades = 0;
      recoveries = 0;
      breaker_trips = 0;
      backoffs = 0;
      salvaged = 0;
    }
  and recover i (Probe p) =
    let s = p.server in
    t.detections <- t.detections + 1;
    consec.(i) <- consec.(i) + 1;
    let restart_delay () =
      if breaker_on && consec.(i) > 1 then begin
        t.backoffs <- t.backoffs + 1;
        Float.min fc.backoff_max_ns
          (fc.restart_ns *. (fc.backoff_factor ** float_of_int (consec.(i) - 1)))
      end
      else fc.restart_ns
    in
    let restart_core ~on_up () =
      wstate.(i) <- `Restarting;
      Nfp_sim.Server.kill s;
      (* Lossless restart: restore the last checkpoint and replay the
         input log before the core comes back — the replay time extends
         the outage — then re-admit the reclaimed casualties instead of
         flushing them. *)
      let replay_ns = if lossless then p.replay () else 0.0 in
      Nfp_sim.Engine.schedule engine ~delay:(restart_delay () +. replay_ns) (fun () ->
          if lossless then begin
            let jobs, emits = Nfp_sim.Server.casualty_counts s in
            t.salvaged <- t.salvaged + jobs + emits
          end;
          ignore (Nfp_sim.Server.revive ~flush:(not lossless) s);
          t.restarts <- t.restarts + 1;
          wstate.(i) <- `Up;
          mark_progress i s (Nfp_sim.Engine.now engine);
          on_up ())
    in
    let bypass_core () =
      wstate.(i) <- `Bypassed;
      t.bypasses <- t.bypasses + 1;
      Nfp_sim.Server.kill s;
      ignore (p.drain ())
    in
    let degrade mid =
      degraded.(mid - 1) <- true;
      t.degrades <- t.degrades + 1
    in
    match p.nf with
    | None -> restart_core ~on_up:ignore ()
    | Some (mid, nfname) ->
        if breaker_on && consec.(i) > fc.breaker_threshold then begin
          t.breaker_trips <- t.breaker_trips + 1;
          match fc.breaker_fallback with
          | Restart | Bypass -> bypass_core ()
          | Degrade ->
              (* Pin the graph to its sequential twin and remove the
                 hopeless core; no [on_up] ever clears the degraded
                 flag. *)
              degrade mid;
              bypass_core ()
        end
        else (
          match fc.recovery_of nfname with
          | Restart -> restart_core ~on_up:ignore ()
          | Bypass -> bypass_core ()
          | Degrade ->
              degrade mid;
              restart_core
                ~on_up:(fun () ->
                  degraded.(mid - 1) <- false;
                  t.recoveries <- t.recoveries + 1)
                ())
  and check () =
    let now = Nfp_sim.Engine.now engine in
    (* Periodic checkpoint tick: snapshot every live core's NF state and
       truncate its input log. Rides the watchdog's wake/sleep cycle, so
       an idle system takes no checkpoints. *)
    if lossless && now >= !next_ckpt then begin
      Array.iteri (fun i (Probe p) -> if wstate.(i) = `Up then p.checkpoint ()) probes;
      next_ckpt := now +. fc.checkpoint_interval_ns
    end;
    let pending = ref false in
    Array.iteri
      (fun i probe ->
        let (Probe { server = s; _ }) = probe in
        let pc = Nfp_sim.Server.processed s and st = Nfp_sim.Server.stalled_ns s in
        if pc > prev_processed.(i) || st > prev_stalled.(i) then begin
          (* Real processed progress (not just stall retries) closes the
             breaker window: the core is alive again. *)
          if pc > prev_processed.(i) then consec.(i) <- 0;
          mark_progress i s now
        end
        else if Nfp_sim.Server.queue_length s = 0 then
          (* An idle core is healthy. Keeping its baseline fresh makes
             the deadline clock start when work is queued, not when it
             last processed — otherwise a burst landing on a long-idle
             core (e.g. merge timeouts releasing a wedge) trips an
             instant false kill. *)
          last_progress.(i) <- now
        else if Nfp_sim.Server.is_paused s && not (Nfp_sim.Server.is_down s) then
          (* A quiesced migration source is healthy: the elastic
             controller froze it deliberately and owns unfreezing it
             (commit or abort) — declaring it dead would restart a core
             mid-handover. The breaker window stays open too: a pause is
             not progress. *)
          last_progress.(i) <- now
        else if Nfp_sim.Server.is_busy s && not (Nfp_sim.Server.is_down s) then
          (* A core mid-breath is healthy: its completion event is
             already on the calendar. With large batches a single breath
             can legally outlast the deadline while the processed
             counter stands still — only a *down* core (crashed or hung,
             which [interrupt] marks) may have a frozen heartbeat counted
             against it. *)
          last_progress.(i) <- now
        else if wstate.(i) = `Up && now -. last_progress.(i) > fc.watchdog_deadline_ns then
          recover i probe;
        match wstate.(i) with
        | `Bypassed -> ()
        | `Restarting -> pending := true
        | `Up ->
            if
              if Nfp_sim.Server.is_down s then Nfp_sim.Server.queue_length s > 0
              else Nfp_sim.Server.queue_length s > 0 || Nfp_sim.Server.is_busy s
            then pending := true)
      probes;
    if !pending then Nfp_sim.Engine.schedule engine ~delay:fc.watchdog_interval_ns check
    else active := false
  and kick () =
    if not !active then begin
      active := true;
      (* Reset the heartbeats on wake-up: idle time must not count
         against the deadline. The checkpoint clock restarts with the
         watchdog for the same reason. *)
      let now = Nfp_sim.Engine.now engine in
      if lossless then next_ckpt := now +. fc.checkpoint_interval_ns;
      Array.iteri (fun i (Probe p) -> mark_progress i p.server now) probes;
      Nfp_sim.Engine.schedule engine ~delay:fc.watchdog_interval_ns check
    end
  in
  t
