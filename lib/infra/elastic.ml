open Nfp_packet

type config = {
  min_replicas : int;
  max_replicas : int;
  buckets : int;
  control_interval_ns : float;
  scale_out_occupancy : float;
  scale_in_occupancy : float;
  migration_batch : int;
  transfer_ns : float;
  migration_deadline_ns : float;
  commit_retry_ns : float;
  cooldown_ns : float;
}

let default =
  {
    min_replicas = 1;
    max_replicas = 4;
    buckets = 64;
    control_interval_ns = 20_000.0;
    scale_out_occupancy = 0.5;
    scale_in_occupancy = 0.05;
    migration_batch = 16;
    transfer_ns = 30_000.0;
    migration_deadline_ns = 200_000.0;
    commit_retry_ns = 2_000.0;
    cooldown_ns = 50_000.0;
  }

(* One in-flight bucket migration: two-phase. Phase 1 (freeze) pauses
   the source replica and schedules the commit [transfer_ns] later;
   phase 2 (commit) either aborts — any party down, or no destination
   ring space by the deadline — rolling back to the old map with the
   source unfrozen and nothing observable changed, or atomically (one
   simulation event): carves the moving flows' state out of the source
   NF, folds it into the destination, re-homes the frozen in-flight
   packets and flips the map buckets. *)
type migration = {
  mg_src : int;
  mg_dst : int;
  mg_buckets : int list;
  mg_deadline : float;
}

(* Steering state of one scalable NF slot. [st_map.(b)] is the replica
   index owning bucket [b]; the send sites read it per attempt, so a
   single-event flip can never race an in-flight packet. *)
type steer = {
  st_map : int array;
  mutable st_active : int;  (* replicas 0 .. active-1 receive traffic *)
  mutable st_draining : int;  (* replica being scaled in; -1 = none *)
  mutable st_last_op : float;  (* cooldown clock *)
  mutable st_backoff : float;
  (* no migration may start before this time: set after an abort so the
     just-unfrozen source drains its backlog before the controller can
     freeze it again (otherwise a hopeless migration — e.g. a moved set
     larger than the destination ring — restarts every tick and the
     source starves forever) *)
  mutable st_mig : migration option;  (* at most one in flight per slot *)
}

(* The initial identity map ([b mod active]) reproduces static sharding
   over the initially-active replicas. *)
let steer ec ~replicas ~base =
  let init = min replicas (max base ec.min_replicas) in
  {
    st_map = Array.init ec.buckets (fun b -> b mod init);
    st_active = init;
    st_draining = -1;
    st_backoff = 0.0;
    st_last_op = neg_infinity;
    st_mig = None;
  }

let owner st hash = st.st_map.(hash mod Array.length st.st_map)

type 'send slot = {
  servers : (Context.t, 'send) Nfp_sim.Server.t array;
  nfs : Nfp_nf.Nf.t array;
  cells : Watchdog.cell array;
  hash : Context.t -> int;
  reachable : int -> bool;
  rehome : (Context.t -> unit) array;
  steer : steer;
}

type t = {
  mutable tick : Nfp_sim.Engine.timer option;
  interval : float;
  migrating : unit -> int;
  core_state : string -> string option;
}

let off =
  {
    tick = None;
    interval = 0.0;
    migrating = (fun () -> 0);
    core_state = (fun _ -> None);
  }

(* Same bytes, same hash: [Hashing.pack_a]/[pack_b] over a [Flow.t]
   give the limbs [Packet.key_a]/[key_b] read from each of the flow's
   packets, so the extract predicate's bucket agrees with the steering
   bucket of every packet of the flow. *)
let bucket_of_flow nb (f : Flow.t) =
  Nfp_algo.Hashing.rss2_int
    (Nfp_algo.Hashing.pack_a f.Flow.sip f.Flow.sport f.Flow.proto)
    (Nfp_algo.Hashing.pack_b f.Flow.dip f.Flow.dport)
  mod nb

let owned st r = Array.fold_left (fun acc o -> if o = r then acc + 1 else acc) 0 st.st_map

let kick t =
  match t.tick with
  | Some tm -> Nfp_sim.Engine.arm_timer tm ~delay:t.interval
  | None -> ()

(* Ticks every [control_interval_ns] while the system has work (kicked
   from inject, stops when idle, like the watchdog); per slot it retires
   drained replicas, rebalances bucket ownership, and makes
   cooldown-gated scale decisions from ring occupancy. At most one
   migration is in flight per slot; its commit is an independently
   scheduled event, so a down controller never wedges a frozen source —
   the commit fires and aborts. *)
let create ~engine ?fault (ec : config) ~ring_capacity ~busy
    ~(health : Nfp_sim.Harness.health) slots =
  if List.is_empty slots then off
  else begin
    let slots = Array.of_list slots in
    let nb = ec.buckets in
    (* The controller is itself a crashable party: a fault plan may
       target the pseudo-core "elastic" — while it is down, no scale
       decision runs and any commit falling due aborts. *)
    let controller_down = ref false in
    (* A replica behind a link the channels declared Down is
       unreachable, dead or not: the controller must not activate it,
       rebalance onto it, or migrate toward it until the partition
       heals. *)
    let alive s r = (not (Nfp_sim.Server.is_down s.servers.(r))) && s.reachable r in
    (* Where a drain sends its next batch: the least-owned live active
       replica other than the draining one; -1 when none is alive. *)
    let drain_target s =
      let st = s.steer and dst = ref (-1) in
      for r = 0 to st.st_active - 1 do
        if r <> st.st_draining && alive s r && (!dst < 0 || owned st r < owned st !dst)
        then dst := r
      done;
      !dst
    in
    (* A drain only counts as pending while it can move: its replica is
       alive to be a migration source, and another active replica is
       alive to receive its buckets. With nothing queued the watchdog
       has no reason to restart a crashed core, so ticking for a
       stalled drain would never end. The next [inject] kick resumes
       it. *)
    let can_drain s =
      s.steer.st_draining >= 0 && alive s s.steer.st_draining && drain_target s >= 0
    in
    let occ s r =
      float_of_int (Nfp_sim.Server.queue_length s.servers.(r))
      /. float_of_int (max 1 ring_capacity)
    in
    (* Highest-numbered owned buckets first: deterministic, and a
       draining replica hands its range back in the order scale-out
       granted it. *)
    let pick_buckets st ~src ~count =
      let picked = ref [] and n = ref 0 in
      for b = nb - 1 downto 0 do
        if !n < count && st.st_map.(b) = src then begin
          picked := b :: !picked;
          incr n
        end
      done;
      !picked
    in
    let by_name = Hashtbl.create 32 in
    Array.iter
      (fun s ->
        Array.iteri
          (fun r srv -> Hashtbl.replace by_name (Nfp_sim.Server.name srv) (s.steer, r, srv))
          s.servers)
      slots;
    let rec t =
      {
        tick = None;
        interval = ec.control_interval_ns;
        migrating =
          (fun () ->
            Array.fold_left
              (fun acc s ->
                match s.steer.st_mig with
                | Some mg -> acc + Nfp_sim.Server.queue_length s.servers.(mg.mg_src)
                | None -> acc)
              0 slots);
        core_state;
      }
    (* Phase 2: commit or roll back. Abort leaves the old map in force
       with the source unfrozen — nothing observable changed since the
       freeze (the backlog only aged). The commit path is one simulation
       event: backlog partition, state carve/fold, recovery-cell refresh,
       map flip, re-home — no packet can interleave. *)
    and commit s () =
      let st = s.steer in
      match st.st_mig with
      | None -> ()
      | Some mg ->
          let now = Nfp_sim.Engine.now engine in
          let src = s.servers.(mg.mg_src) and dst = s.servers.(mg.mg_dst) in
          let abort () =
            st.st_mig <- None;
            health.migration_aborts <- health.migration_aborts + 1;
            st.st_last_op <- now;
            st.st_backoff <- now +. ec.cooldown_ns;
            Nfp_sim.Server.unpause src
          in
          if
            !controller_down || Nfp_sim.Server.is_down src || Nfp_sim.Server.is_down dst
            || not (s.reachable mg.mg_dst)
          then abort ()
          else begin
            let backlog = Nfp_sim.Server.take_backlog src in
            let moved, kept =
              List.partition (fun ctx -> List.mem (s.hash ctx mod nb) mg.mg_buckets) backlog
            in
            if Nfp_sim.Server.free_slots dst < List.length moved then begin
              (* No room at the destination: put the backlog back
                 untouched and retry until the deadline, then roll
                 back. *)
              Nfp_sim.Server.requeue src backlog;
              if
                (* More frozen packets than the destination ring can
                   ever hold: no amount of retrying helps, and every
                   retry keeps the source frozen and its backlog
                   growing. *)
                List.length moved > ring_capacity
                || now +. ec.commit_retry_ns > mg.mg_deadline
              then abort ()
              else Nfp_sim.Engine.schedule engine ~delay:ec.commit_retry_ns (commit s)
            end
            else begin
              Nfp_sim.Server.requeue src kept;
              (* State transfer: carve the moving flows' per-flow entries
                 out of the source instance and fold them into the
                 destination ([None] = Replicated_readonly, where
                 replicas are interchangeable and nothing moves). *)
              (match s.nfs.(mg.mg_src).Nfp_nf.Nf.extract with
              | Some extract ->
                  let in_moved flow = List.mem (bucket_of_flow nb flow) mg.mg_buckets in
                  Nfp_nf.Nf.absorb s.nfs.(mg.mg_dst) (extract in_moved)
              | None -> ());
              Watchdog.refresh s.cells.(mg.mg_src);
              Watchdog.refresh s.cells.(mg.mg_dst);
              List.iter (fun b -> st.st_map.(b) <- mg.mg_dst) mg.mg_buckets;
              st.st_mig <- None;
              health.migrations <- health.migrations + 1;
              health.migrated_packets <- health.migrated_packets + List.length moved;
              st.st_last_op <- now;
              (* Unpause first: orphaned emissions of already-executed
                 source jobs pump now, so downstream sees them before
                 anything the destination emits for the re-homed
                 packets. *)
              Nfp_sim.Server.unpause src;
              (* Room was verified above and nothing ran since, so these
                 offers cannot fail; the re-home retry loop is a backstop,
                 not a code path. Under links the re-home crosses the
                 migrate channel — drops there retransmit like any other
                 edge. *)
              List.iter s.rehome.(mg.mg_dst) moved
            end
          end
    (* Phase 1: freeze the source and schedule the commit one transfer
       window later. *)
    and start s ~src ~dst ~count =
      let st = s.steer in
      if
        count > 0 && src <> dst && alive s src && alive s dst
        && (not (Nfp_sim.Server.is_paused s.servers.(src)))
        && Nfp_sim.Engine.now engine >= st.st_backoff
      then begin
        let buckets = pick_buckets st ~src ~count in
        if buckets <> [] then begin
          st.st_mig <-
            Some
              {
                mg_src = src;
                mg_dst = dst;
                mg_buckets = buckets;
                mg_deadline = Nfp_sim.Engine.now engine +. ec.migration_deadline_ns;
              };
          Nfp_sim.Server.pause s.servers.(src);
          Nfp_sim.Engine.schedule engine ~delay:ec.transfer_ns (commit s)
        end
      end
    and step s =
      let st = s.steer in
      if st.st_mig = None then begin
        let now = Nfp_sim.Engine.now engine in
        let n = Array.length s.servers in
        let floor_active = max 1 (min ec.min_replicas n) in
        let limit = min ec.max_replicas n in
        (* Retire a drained replica: it owns no buckets, so no packet can
           reach it — deactivation is pure bookkeeping. Its counters stay
           in the [health] sums (cluster totals must not dip when a core
           disappears from the active set). *)
        if st.st_draining >= 0 && owned st st.st_draining = 0 then begin
          st.st_active <- st.st_active - 1;
          st.st_draining <- -1;
          health.scale_ins <- health.scale_ins + 1;
          st.st_last_op <- now
        end;
        if st.st_draining >= 0 then begin
          (* Scale-in in progress: hand the draining replica's buckets to
             the least-owned other active replica, one batch per tick. *)
          let dst = drain_target s in
          if dst >= 0 then
            start s ~src:st.st_draining ~dst
              ~count:(min ec.migration_batch (owned st st.st_draining))
        end
        else begin
          (* Rebalance toward equal ownership (this is also how a
             just-activated replica, owning nothing, fills up). *)
          let mx = ref (-1) and mn = ref (-1) in
          for r = 0 to st.st_active - 1 do
            if alive s r then begin
              if !mx < 0 || owned st r > owned st !mx then mx := r;
              if !mn < 0 || owned st r < owned st !mn then mn := r
            end
          done;
          if !mx >= 0 && !mn >= 0 && owned st !mx - owned st !mn >= 2 then
            start s ~src:!mx ~dst:!mn
              ~count:(min ec.migration_batch ((owned st !mx - owned st !mn) / 2))
          else if now -. st.st_last_op >= ec.cooldown_ns then begin
            let max_occ = ref 0.0 in
            for r = 0 to st.st_active - 1 do
              if alive s r then max_occ := Float.max !max_occ (occ s r)
            done;
            if
              !max_occ >= ec.scale_out_occupancy && st.st_active < limit
              && alive s st.st_active
            then begin
              (* Activate the next standby; rebalance moves buckets onto
                 it from the next tick on. *)
              st.st_active <- st.st_active + 1;
              health.scale_outs <- health.scale_outs + 1;
              st.st_last_op <- now
            end
            else if !max_occ <= ec.scale_in_occupancy && st.st_active > floor_active
            then begin
              st.st_draining <- st.st_active - 1;
              st.st_last_op <- now
            end
          end
        end
      end
    and tick () =
      if not !controller_down then Array.iter step slots;
      if Array.exists (fun s -> s.steer.st_mig <> None || can_drain s) slots || busy ()
      then kick t
    (* Health view: a paused source reports "migrating", an inactive
       replica "standby" — operators can tell a quiesced or
       not-yet-activated core from a dead one. *)
    and core_state name =
      match Hashtbl.find_opt by_name name with
      | None -> None
      | Some (st, r, srv) ->
          if Nfp_sim.Server.is_paused srv then Some "migrating"
          else if r >= st.st_active then Some "standby"
          else None
    in
    t.tick <- Some (Nfp_sim.Engine.timer engine ~name:"elastic" tick);
    (* Controller fault site: the pseudo-core "elastic". *)
    (match fault with
    | None -> ()
    | Some (fc : Watchdog.config) -> (
        match Nfp_sim.Fault.for_core fc.plan "elastic" with
        | None -> ()
        | Some fcore ->
            List.iter
              (function
                | Nfp_sim.Fault.Crash { at_ns } ->
                    Nfp_sim.Engine.schedule engine ~delay:at_ns (fun () ->
                        controller_down := true;
                        Nfp_sim.Engine.schedule engine ~delay:fc.restart_ns (fun () ->
                            controller_down := false))
                | Nfp_sim.Fault.Hang { at_ns; duration_ns } ->
                    Nfp_sim.Engine.schedule engine ~delay:at_ns (fun () ->
                        controller_down := true);
                    Nfp_sim.Engine.schedule engine ~delay:(at_ns +. duration_ns) (fun () ->
                        controller_down := false)
                | Nfp_sim.Fault.Slowdown _ | Nfp_sim.Fault.Drop _ -> ())
              fcore.Nfp_sim.Fault.events));
    t
  end
