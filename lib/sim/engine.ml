(* The clock lives in an all-float record: OCaml stores such records
   flat, so advancing time is a plain store. As a mutable float field of
   the mixed record below it would box a fresh float on every event —
   the simulator's single hottest write. [key] carries the time of the
   element a heap sift is placing, for the same reason: a float argument
   of a recursive function is boxed on every call. *)
type clock = { mutable ns : float; mutable key : float }

(* The event queue: a binary min-heap on (time, seq) with the keys in
   parallel unboxed arrays, so ordering never goes through a closure or
   a boxed comparison, and hole-bubbling sifts that move one element per
   level instead of swapping. *)
type t = {
  clock : clock;
  mutable times : float array;
  mutable seqs : int array;
  mutable actions : (unit -> unit) array;
  mutable size : int;
  mutable next_seq : int;
  mutable firing : int;
  (* Timer firings among the [size] queued events, and how many timers
     in a row have fired with nothing else queued (the livelock
     guard). *)
  mutable timers : int;
  mutable streak : int;
}

let nop () = ()

let create () =
  {
    clock = { ns = 0.0; key = 0.0 };
    times = [||];
    seqs = [||];
    actions = [||];
    size = 0;
    next_seq = 0;
    firing = -1;
    timers = 0;
    streak = 0;
  }

let now t = t.clock.ns

let firing t = t.firing

let pending t = t.size

let grow t =
  let capacity = Array.length t.actions in
  let capacity' = if capacity = 0 then 64 else capacity * 2 in
  let times' = Array.make capacity' 0.0 in
  let seqs' = Array.make capacity' 0 in
  let actions' = Array.make capacity' nop in
  Array.blit t.times 0 times' 0 t.size;
  Array.blit t.seqs 0 seqs' 0 t.size;
  Array.blit t.actions 0 actions' 0 t.size;
  t.times <- times';
  t.seqs <- seqs';
  t.actions <- actions'

let place t i seq action =
  t.times.(i) <- t.clock.key;
  t.seqs.(i) <- seq;
  t.actions.(i) <- action

(* Bubble the hole at [i] up to where (clock.key, seq) belongs. *)
let rec sift_up t i seq action =
  if i = 0 then place t i seq action
  else begin
    let parent = (i - 1) / 2 in
    let tp = t.times.(parent) and time = t.clock.key in
    if time < tp || (time = tp && seq < t.seqs.(parent)) then begin
      t.times.(i) <- tp;
      t.seqs.(i) <- t.seqs.(parent);
      t.actions.(i) <- t.actions.(parent);
      sift_up t parent seq action
    end
    else place t i seq action
  end

(* Bubble the hole at [i] down to where (clock.key, seq) belongs. *)
let rec sift_down t i seq action =
  let left = (2 * i) + 1 in
  if left >= t.size then place t i seq action
  else begin
    let right = left + 1 in
    let child =
      if right < t.size then begin
        let tl = t.times.(left) and tr = t.times.(right) in
        if tr < tl || (tr = tl && t.seqs.(right) < t.seqs.(left)) then right else left
      end
      else left
    in
    let tc = t.times.(child) and time = t.clock.key in
    if tc < time || (tc = time && t.seqs.(child) < seq) then begin
      t.times.(i) <- tc;
      t.seqs.(i) <- t.seqs.(child);
      t.actions.(i) <- t.actions.(child);
      sift_down t child seq action
    end
    else place t i seq action
  end

let arm_at t time action =
  if not (time >= t.clock.ns) then invalid_arg "Engine.schedule_at: time is in the past";
  if t.size = Array.length t.actions then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let i = t.size in
  t.size <- i + 1;
  t.clock.key <- time;
  sift_up t i seq action;
  seq

let schedule_at t time action = ignore (arm_at t time action)

let arm t ~delay action =
  if not (delay >= 0.0) then invalid_arg "Engine.schedule: negative delay";
  arm_at t (t.clock.ns +. delay) action

let schedule t ~delay action = ignore (arm t ~delay action)

exception Livelock of string

type timer = { engine : t; mutable armed : bool; fire : unit -> unit }

(* Far above the longest timer-only streak any test, bench experiment
   or perfbench workload reaches; DESIGN.md explains the bound. *)
let livelock_streak = 100_000

(* A timer firing is the only event that pays for the guard: a timer
   that fires with no ordinary event left to run cannot be waiting for
   anything but another timer. *)
let timer t ~name callback =
  let rec tm =
    {
      engine = t;
      armed = false;
      fire =
        (fun () ->
          tm.armed <- false;
          t.timers <- t.timers - 1;
          t.streak <- (if t.size > t.timers then 0 else t.streak + 1);
          if t.streak > livelock_streak then raise (Livelock name);
          callback ());
    }
  in
  tm

let arm_timer tm ~delay =
  if not tm.armed then begin
    schedule tm.engine ~delay tm.fire;
    tm.armed <- true;
    tm.engine.timers <- tm.engine.timers + 1
  end

let timer_armed tm = tm.armed

(* Remove the minimum and return its action; its time and seq are read
   by the caller beforehand. The vacated tail slot keeps referencing the
   element that moved, which stays live in the heap, so the popped
   action itself is not retained. *)
let pop t =
  let top = t.actions.(0) in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    t.clock.key <- t.times.(last);
    sift_down t 0 t.seqs.(last) t.actions.(last)
  end;
  top

let run ?until ?(max_events = max_int) t =
  let deadline = match until with Some u -> u | None -> infinity in
  let clock = t.clock in
  let rec go remaining =
    if remaining > 0 && t.size > 0 then begin
      let time = t.times.(0) in
      if time > deadline then clock.ns <- deadline
      else begin
        let seq = t.seqs.(0) in
        let action = pop t in
        clock.ns <- time;
        t.firing <- seq;
        action ();
        t.firing <- -1;
        go (remaining - 1)
      end
    end
  in
  go max_events
