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

(* Queue [action] at (clock.key, seq): the caller sets the key and has
   taken [seq]. *)
let insert t seq action =
  if t.size = Array.length t.actions then grow t;
  let i = t.size in
  t.size <- i + 1;
  sift_up t i seq action

let reserve_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let arm_at t time action =
  if not (time >= t.clock.ns) then invalid_arg "Engine.schedule_at: time is in the past";
  let seq = reserve_seq t in
  t.clock.key <- time;
  insert t seq action;
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

(* A line's pending sends, oldest first, in parallel arrays of
   power-of-two capacity: each send's payload and the (time, seq) it
   fires at. As in [Nfp_algo.Ring], a popped slot keeps its stale
   payload until a later send overwrites it, so a line keeps at most its
   capacity (the most sends ever in flight at once) alive. Clearing the
   slot instead would make every send store a young value over an old
   one, one more remembered-set entry per send.

   The delay is constant and time never goes back, so a line's sends
   fire in the order they were made, and only the oldest needs a place
   in the engine's heap. A non-empty line holds exactly one heap entry,
   at its oldest send's (time, seq); an empty line holds none. *)
type ('a, 'b) line = {
  l_engine : t;
  l_delay : float;
  mutable l_firsts : 'a array;
  mutable l_seconds : 'b array;
  mutable l_tags : int array;
  mutable l_times : float array;
  mutable l_seqs : int array;
  mutable l_head : int;
  mutable l_len : int;
  l_fire : unit -> unit;
}

(* The head fires: queue the next send's entry before [deliver] runs, so
   that a send made from inside [deliver] finds the line non-empty and
   adds no second entry, and the entry keeps the (time, seq) that send
   took when it was made. *)
let line_pop l deliver =
  let i = l.l_head in
  let a = l.l_firsts.(i) and b = l.l_seconds.(i) and tag = l.l_tags.(i) in
  let next = (i + 1) land (Array.length l.l_tags - 1) in
  l.l_head <- next;
  l.l_len <- l.l_len - 1;
  if l.l_len > 0 then begin
    l.l_engine.clock.key <- l.l_times.(next);
    insert l.l_engine l.l_seqs.(next) l.l_fire
  end;
  deliver a b tag

let line t ~delay deliver =
  if not (delay >= 0.0) then invalid_arg "Engine.line: negative delay";
  let rec l =
    {
      l_engine = t;
      l_delay = delay;
      l_firsts = [||];
      l_seconds = [||];
      l_tags = [||];
      l_times = [||];
      l_seqs = [||];
      l_head = 0;
      l_len = 0;
      l_fire = (fun () -> line_pop l deliver);
    }
  in
  l

let line_grow l a b =
  let cap = Array.length l.l_tags in
  let cap' = max 16 (2 * cap) in
  let firsts = Array.make cap' a and seconds = Array.make cap' b in
  let tags = Array.make cap' 0 and times = Array.make cap' 0.0 and seqs = Array.make cap' 0 in
  for i = 0 to l.l_len - 1 do
    let j = (l.l_head + i) land (cap - 1) in
    firsts.(i) <- l.l_firsts.(j);
    seconds.(i) <- l.l_seconds.(j);
    tags.(i) <- l.l_tags.(j);
    times.(i) <- l.l_times.(j);
    seqs.(i) <- l.l_seqs.(j)
  done;
  l.l_firsts <- firsts;
  l.l_seconds <- seconds;
  l.l_tags <- tags;
  l.l_times <- times;
  l.l_seqs <- seqs;
  l.l_head <- 0

(* A send takes its seq and time as [schedule] would, so it fires at the
   (time, seq) a closure per send would have had; only a send into an
   empty line queues a heap entry. *)
let send l a b tag =
  if l.l_len = Array.length l.l_tags then line_grow l a b;
  let e = l.l_engine in
  let i = (l.l_head + l.l_len) land (Array.length l.l_tags - 1) in
  let seq = e.next_seq and time = e.clock.ns +. l.l_delay in
  e.next_seq <- seq + 1;
  l.l_firsts.(i) <- a;
  l.l_seconds.(i) <- b;
  l.l_tags.(i) <- tag;
  l.l_times.(i) <- time;
  l.l_seqs.(i) <- seq;
  l.l_len <- l.l_len + 1;
  if l.l_len = 1 then begin
    e.clock.key <- time;
    insert e seq l.l_fire
  end

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

(* Top level, so that a run allocates no closure: [deadline] arrives
   boxed (from [until], or the static [infinity]) and is passed on as
   is. *)
let rec drain t deadline remaining =
  if remaining > 0 && t.size > 0 then begin
    let time = t.times.(0) in
    if time > deadline then t.clock.ns <- deadline
    else begin
      let seq = t.seqs.(0) in
      let action = pop t in
      t.clock.ns <- time;
      t.firing <- seq;
      action ();
      t.firing <- -1;
      drain t deadline (remaining - 1)
    end
  end

let run ?until ?(max_events = max_int) t =
  let deadline = match until with Some u -> u | None -> infinity in
  if not (deadline >= t.clock.ns) then invalid_arg "Engine.run: until is in the past";
  drain t deadline max_events
