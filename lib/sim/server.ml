(* Mutable floats of a mixed record box a fresh float on every store,
   so the per-breath counters live in their own all-float record (OCaml
   stores those flat): busy/stall accounting and the fault scalings are
   written on the hottest path. *)
type fstate = {
  mutable busy_ns : float;
  mutable stalled_ns : float;
  (* Management work (e.g. a state checkpoint) charged to this core:
     the accumulated time is added to the next breath's completion,
     then reset. 0.0 is a bitwise identity on the service-time sums. *)
  mutable extra_ns : float;
  (* Fault scalings (Fault.core). The defaults are exact identities —
     [slow] of 1.0, drop probability 0.0 — so an unfaulted server
     behaves bit-for-bit as before the fault subsystem existed. *)
  mutable slow : float;
  mutable drop_p : float;
  (* The breath being charged: running sum of its jobs' service. *)
  mutable finish : float;
}

type cell = { mutable ns : float }

type ('job, 'send) t = {
  engine : Engine.t;
  name : string;
  ring : 'job Nfp_algo.Ring.t;
  batch : int;
  (* Per-breath dispatch cycles the second and later jobs of one breath
     do not pay again (dequeue synchronization, run-to-completion
     dispatch): the breath's first job is charged its full legacy
     service time, followers are charged [service_ns j - burst_saving_ns]
     (floored at zero) before jitter. 0.0 — and any breath of one job,
     hence any [batch] of 1 — is bit-for-bit the legacy per-packet
     charging. *)
  burst_saving_ns : float;
  jitter : (float * Nfp_algo.Prng.t) option;
  retry_ns : float;
  service_ns : 'job -> cell -> unit;
  service : cell;
  execute : 'job -> 'send array;
  emit : 'job -> 'send -> bool;
  f : fstate;
  mutable busy : bool;
  mutable processed : int;
  mutable down : bool;
  (* [paused] is the migration quiesce state: the core is healthy but
     administratively frozen — no new breaths start and no orphans pump
     while it holds, yet the ring keeps accepting jobs (backpressure,
     not loss) and injected faults still land ([down] and [paused] are
     independent). Distinct from [down] so the watchdog can tell a
     quiesced core from a dead one. *)
  mutable paused : bool;
  mutable fault_prng : Nfp_algo.Prng.t option;
  (* The core's two wake-ups — breath completion and flush retry — are
     callbacks allocated once, at [create]. [armed] is the engine
     sequence number of the one this core is waiting for (-1: none); a
     firing with any other number is stale — an interrupt or pause
     gave it up and reclaimed its work synchronously (see below) — and
     does nothing. *)
  mutable armed : int;
  complete : unit -> unit;
  retry : unit -> unit;
  mutable crashes : int;
  mutable fault_drops : int;
  mutable flushed : int;
  (* Breath scratch, reused across breaths so the steady state
     allocates nothing per packet. [jobs.(0 .. n_inflight-1)] mirrors
     the burst the core is currently serving (allocated lazily at the
     first breath, Ring-style, because ['job] has no default value).
     After execution, job [i]'s sends are [sends.(i)]; the flush owes
     downstream sends [send_cursor ..] of job [emit_cursor], then all
     of jobs [emit_cursor + 1 .. n_emits - 1]. Consumed slots keep a
     stale reference until the next breath overwrites them — bounded by
     [batch], same retention policy as the flat [Ring]. *)
  mutable jobs : 'job array;
  mutable n_inflight : int;
  sends : 'send array array;
  mutable n_emits : int;
  mutable emit_cursor : int;
  mutable send_cursor : int;
  (* Casualty bookkeeping (cold path, plain lists). [interrupt] moves
     the in-flight breath into [limbo] (jobs dequeued but never
     executed) and the pending emissions into [orphans] (jobs executed
     whose emissions are pending). The ring, [limbo] and [orphans]
     model state that survives the crash of the core's NF process —
     they live in the runtime's shared memory — so a recovery policy
     chooses what to do with them: [revive ~flush:true] discards the
     lot into [flushed] (lossy Restart), [revive ~flush:false]
     re-admits everything in order (lossless recovery), and a
     [casualty_sink] reroutes them as they fall (Bypass). *)
  mutable limbo : 'job list;
  mutable orphans : (unit -> bool) list;
  mutable casualty_sink : ('job list -> (unit -> bool) list -> unit) option;
  (* Retries a stalled orphan emission; built on first use. *)
  pump : Engine.timer Lazy.t;
}

let call _ send = send ()

(* Charge one job to the breath in [f.finish]: its service time, less
   the burst saving for a follower (floored at zero), jittered, scaled
   by any slowdown. *)
let charge_job t job ~follower =
  t.service_ns job t.service;
  let base =
    if follower then Float.max 0.0 (t.service.ns -. t.burst_saving_ns) else t.service.ns
  in
  let base =
    match t.jitter with
    | None -> base
    | Some (frac, prng) ->
        base *. (1.0 +. (frac *. ((2.0 *. Nfp_algo.Prng.float prng) -. 1.0)))
  in
  (* *. 1.0 is bitwise identity, so the multiply is free of behavioral
     change when no slowdown fault is installed. *)
  t.f.finish <- t.f.finish +. (base *. t.f.slow)

(* A drop fault makes the job vanish between dequeue and execution (a
   corrupted ring slot); the server still "processes" it — progress
   heartbeats keep beating, only the work is lost. *)
let run_job t job =
  match t.fault_prng with
  | Some prng when t.f.drop_p > 0.0 && Nfp_algo.Prng.float prng < t.f.drop_p ->
      t.fault_drops <- t.fault_drops + 1;
      [||]
  | _ -> t.execute job

let stash t jobs emits =
  if jobs <> [] || emits <> [] then
    match t.casualty_sink with
    | Some sink -> sink jobs emits
    | None ->
        (* The reclaimed breath was inhaled from the front of the work
           order, so it is older than anything still in limbo — prepend
           to keep per-flow processing order across a pause/interrupt. *)
        t.limbo <- jobs @ t.limbo;
        t.orphans <- t.orphans @ emits

let has_work t = t.limbo <> [] || not (Nfp_algo.Ring.is_empty t.ring)

(* Fill [jobs.(n ..)] from limbo, up to [batch]; the new count. *)
let rec take_limbo t n =
  if n < t.batch then
    match t.limbo with
    | j :: rest ->
        t.limbo <- rest;
        t.jobs.(n) <- j;
        take_limbo t (n + 1)
    | [] -> n
  else n

(* Emit the breath's sends in order; stall and retry on backpressure.
   The cursors shadow the worklist so an interrupt can reclaim it. *)
let rec flush t =
  let e = t.emit_cursor in
  if e >= t.n_emits then begin
    t.n_emits <- 0;
    t.emit_cursor <- 0;
    t.busy <- false;
    run_batch t
  end
  else begin
    let sends = t.sends.(e) in
    let i = t.send_cursor in
    if i >= Array.length sends then begin
      t.send_cursor <- 0;
      t.emit_cursor <- e + 1;
      t.processed <- t.processed + 1;
      flush t
    end
    else if t.emit t.jobs.(e) sends.(i) then begin
      t.send_cursor <- i + 1;
      flush t
    end
    else begin
      t.f.stalled_ns <- t.f.stalled_ns +. t.retry_ns;
      t.armed <- Engine.arm t.engine ~delay:t.retry_ns t.retry
    end
  end

(* Work reclaimed as orphans is emitted before any new breath runs, so
   downstream still sees this core's packets in processing order. *)
and pump_orphans t =
  if (not t.down) && not t.paused then begin
    match t.orphans with
    | [] -> run_batch t
    | thunk :: rest ->
        if thunk () then begin
          t.processed <- t.processed + 1;
          t.orphans <- rest;
          pump_orphans t
        end
        else begin
          t.f.stalled_ns <- t.f.stalled_ns +. t.retry_ns;
          Engine.arm_timer (Lazy.force t.pump) ~delay:t.retry_ns
        end
  end

(* One breath: inhale up to [batch] jobs (reclaimed limbo first — those
   were dequeued before anything now in the ring — then an rx burst
   from the ring), charge their service back to back, execute and
   exhale at completion — the rx_burst/tx_burst pattern of a DPDK poll
   loop, with all per-breath state in reused scratch arrays. *)
and run_batch t =
  if (not t.busy) && (not t.down) && (not t.paused) && t.orphans = [] && has_work t
  then begin
    t.busy <- true;
    let j0 =
      match t.limbo with
      | j :: rest ->
          t.limbo <- rest;
          j
      | [] -> Nfp_algo.Ring.dequeue_exn t.ring
    in
    if Array.length t.jobs = 0 then t.jobs <- Array.make t.batch j0
    else t.jobs.(0) <- j0;
    let n = take_limbo t 1 in
    let n =
      if n < t.batch then n + Nfp_algo.Ring.dequeue_into t.ring t.jobs n (t.batch - n)
      else n
    in
    t.n_inflight <- n;
    let f = t.f in
    f.finish <- f.extra_ns;
    f.extra_ns <- 0.0;
    charge_job t j0 ~follower:false;
    for i = 1 to n - 1 do
      charge_job t t.jobs.(i) ~follower:true
    done;
    f.busy_ns <- f.busy_ns +. f.finish;
    t.armed <- Engine.arm t.engine ~delay:f.finish t.complete
  end

let complete t () =
  if Engine.firing t.engine = t.armed then begin
    t.armed <- -1;
    let n = t.n_inflight in
    t.n_inflight <- 0;
    for i = 0 to n - 1 do
      t.sends.(i) <- run_job t t.jobs.(i)
    done;
    t.n_emits <- n;
    t.emit_cursor <- 0;
    t.send_cursor <- 0;
    flush t
  end

let retry t () =
  if Engine.firing t.engine = t.armed then begin
    t.armed <- -1;
    flush t
  end

(* The casualties of an interrupt, as lists (cold path): the in-flight
   breath's unexecuted jobs and the pending emissions, each job's
   remaining sends wrapped in a retryable thunk. *)
let reclaim_inflight t =
  let jobs = ref [] in
  for i = t.n_inflight - 1 downto 0 do
    jobs := t.jobs.(i) :: !jobs
  done;
  t.n_inflight <- 0;
  !jobs

let pending_emission emit job sends from =
  let next = ref from in
  let rec go () =
    if !next >= Array.length sends then true
    else if emit job sends.(!next) then begin
      incr next;
      go ()
    end
    else false
  in
  go

let emission emit job sends = pending_emission emit job sends 0

let reclaim_emits t =
  let emits = ref [] in
  for e = t.n_emits - 1 downto t.emit_cursor do
    let from = if e = t.emit_cursor then t.send_cursor else 0 in
    emits := pending_emission t.emit t.jobs.(e) t.sends.(e) from :: !emits
  done;
  t.n_emits <- 0;
  t.emit_cursor <- 0;
  t.send_cursor <- 0;
  !emits

(* The core stops. The in-flight breath and any pending emissions are
   reclaimed synchronously — the wake-up they were waiting for becomes
   stale — so no work is silently dropped between the crash and
   whatever recovery policy runs later. *)
let interrupt t =
  if not t.down then begin
    t.down <- true;
    t.armed <- -1;
    let jobs = reclaim_inflight t and emits = reclaim_emits t in
    stash t jobs emits
  end

let resume t =
  if t.down then begin
    t.down <- false;
    t.busy <- false;
    pump_orphans t
  end

let default_retry_ns = 150.0

(* Run a retryable emission that no core owns to completion, polling at
   a core's default stall cadence. *)
let rec drive engine emission =
  if not (emission ()) then
    Engine.schedule engine ~delay:default_retry_ns (fun () -> drive engine emission)

let create ~engine ~name ~ring_capacity ~batch ?(burst_saving_ns = 0.0) ?jitter
    ?(retry_ns = default_retry_ns) ?watermarks ?fault ~service_ns ~execute ~emit () =
  let batch = max 1 batch in
  let ring = Nfp_algo.Ring.create ~capacity:ring_capacity in
  (match watermarks with
  | None -> ()
  | Some (high, low) -> Nfp_algo.Ring.set_watermarks ring ~high ~low);
  let rec t =
    {
      engine;
      name;
      ring;
      batch;
      burst_saving_ns;
      jitter;
      retry_ns;
      service_ns;
      service = { ns = 0.0 };
      execute;
      emit;
      f =
        {
          busy_ns = 0.0;
          stalled_ns = 0.0;
          extra_ns = 0.0;
          slow = 1.0;
          drop_p = 0.0;
          finish = 0.0;
        };
      busy = false;
      processed = 0;
      down = false;
      paused = false;
      fault_prng = None;
      armed = -1;
      complete = (fun () -> complete t ());
      retry = (fun () -> retry t ());
      crashes = 0;
      fault_drops = 0;
      flushed = 0;
      jobs = [||];
      n_inflight = 0;
      sends = Array.make batch [||];
      n_emits = 0;
      emit_cursor = 0;
      send_cursor = 0;
      limbo = [];
      orphans = [];
      casualty_sink = None;
      pump = lazy (Engine.timer engine ~name:(name ^ ":pump") (fun () -> pump_orphans t));
    }
  in
  (match fault with
  | None -> ()
  | Some (f : Fault.core) ->
      t.fault_prng <- Some f.prng;
      List.iter
        (function
          | Fault.Crash { at_ns } ->
              Engine.schedule engine ~delay:at_ns (fun () ->
                  if not t.down then begin
                    t.crashes <- t.crashes + 1;
                    interrupt t
                  end)
          | Fault.Hang { at_ns; duration_ns } ->
              Engine.schedule engine ~delay:at_ns (fun () -> interrupt t);
              Engine.schedule engine ~delay:(at_ns +. duration_ns) (fun () -> resume t)
          | Fault.Slowdown { at_ns; factor } ->
              Engine.schedule engine ~delay:at_ns (fun () -> t.f.slow <- t.f.slow *. factor)
          | Fault.Drop { probability } -> t.f.drop_p <- min 1.0 (t.f.drop_p +. probability))
        f.events);
  t

let offer t job =
  if Nfp_algo.Ring.enqueue t.ring job then begin
    if not t.busy then run_batch t;
    true
  end
  else false

(* ------------------------------------------------------------------ *)
(* Fault control surface (used by the System watchdog)                 *)
(* ------------------------------------------------------------------ *)

(* Administrative stop: same mechanics as a crash, but not counted as
   one (used when the watchdog bypasses a core out of the graph). *)
let kill t = interrupt t

(* Remove and return everything queued, without processing it. *)
let drain t =
  let rec go acc =
    if Nfp_algo.Ring.is_empty t.ring then List.rev acc
    else go (Nfp_algo.Ring.dequeue_exn t.ring :: acc)
  in
  go []

(* Route casualties to [sink] instead of stashing them — and hand over
   whatever already stashed, so a sink installed after the kill still
   sees the in-flight batch the kill reclaimed. *)
let set_casualty_sink t sink =
  t.casualty_sink <- Some sink;
  let jobs = t.limbo and emits = t.orphans in
  t.limbo <- [];
  t.orphans <- [];
  if jobs <> [] || emits <> [] then sink jobs emits

let casualty_counts t = (List.length t.limbo, List.length t.orphans)

let charge t ns = t.f.extra_ns <- t.f.extra_ns +. ns

(* Bring a down core back. [flush] discards everything the crash left
   behind — the backlog that accumulated in the ring plus the reclaimed
   in-flight jobs and pending emissions (counted in [flushed],
   returned): lossy Restart semantics. [flush:false] re-admits all of
   it in order — orphaned emissions drain first, then the reclaimed
   batch, then the ring backlog — the lossless recovery path. *)
let revive ?(flush = true) t =
  let lost =
    if flush then begin
      let n =
        Nfp_algo.Ring.length t.ring + List.length t.limbo + List.length t.orphans
      in
      ignore (drain t);
      t.limbo <- [];
      t.orphans <- [];
      t.flushed <- t.flushed + n;
      n
    end
    else 0
  in
  resume t;
  lost

(* ------------------------------------------------------------------ *)
(* Migration quiesce surface (used by the System elastic controller)   *)
(* ------------------------------------------------------------------ *)

(* Freeze the core for a state snapshot: the in-flight breath (if any)
   is reclaimed exactly as an interrupt would — unexecuted jobs to
   limbo, pending emissions to orphans — but the core stays [up]; it
   simply starts no new work until [unpause]. The ring keeps accepting
   offers, so upstream sees backpressure, never loss. *)
let pause t =
  if not t.paused then begin
    t.paused <- true;
    if t.busy then begin
      t.armed <- -1;
      t.busy <- false;
      let jobs = reclaim_inflight t and emits = reclaim_emits t in
      stash t jobs emits
    end
  end

let unpause t =
  if t.paused then begin
    t.paused <- false;
    if not t.down then pump_orphans t
  end

let is_paused t = t.paused

(* Hand the unexecuted backlog — reclaimed limbo first (older), then the
   ring contents — to the caller, clearing both. Orphaned emissions stay:
   those jobs already executed here and must emit from here. *)
let take_backlog t =
  let jobs = t.limbo @ drain t in
  t.limbo <- [];
  jobs

(* Put jobs back at the head of the work order (behind any older limbo):
   the migration commit returns the non-migrating share of a taken
   backlog this way. Does not kick the poll loop — callers hold the
   core paused while they shuffle work. *)
let requeue t jobs = t.limbo <- t.limbo @ jobs

let free_slots t = Nfp_algo.Ring.capacity t.ring - Nfp_algo.Ring.length t.ring

let name t = t.name

let processed t = t.processed

let rejected t = Nfp_algo.Ring.rejected_total t.ring

let pressured t = Nfp_algo.Ring.pressured t.ring

let pressure_episodes t = Nfp_algo.Ring.pressure_episodes t.ring

let busy_ns t = t.f.busy_ns

let stalled_ns t = t.f.stalled_ns

let queue_length t =
  Nfp_algo.Ring.length t.ring + List.length t.limbo + List.length t.orphans

let is_down t = t.down

let is_busy t = t.busy

let crashes t = t.crashes

let fault_drops t = t.fault_drops

let flushed t = t.flushed
