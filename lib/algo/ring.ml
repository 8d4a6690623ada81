(* Slots are a raw ['a array] (allocated at first enqueue, using that
   element as the initializer) rather than ['a option array]: boxing
   every slot in [Some] costs an allocation per enqueue on the
   simulator's hottest path. Dequeued slots keep a stale reference
   until overwritten, which retains at most [capacity] elements —
   rings are small and short-lived, so that is cheaper than nulling. *)
type 'a t = {
  mutable data : 'a array;
  capacity : int;
  mutable head : int; (* next slot to dequeue *)
  mutable size : int;
  mutable rejected : int;
  (* Occupancy watermarks (0 = disabled). Pressure latches on at
     [size >= high] and releases only at [size <= low]; the gap is the
     hysteresis band that keeps a queue oscillating around one level
     from flapping the upstream backpressure signal. *)
  mutable high : int;
  mutable low : int;
  mutable pressured : bool;
  mutable episodes : int; (* lifetime count of pressure onsets *)
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  {
    data = [||];
    capacity;
    head = 0;
    size = 0;
    rejected = 0;
    high = 0;
    low = 0;
    pressured = false;
    episodes = 0;
  }

let set_watermarks t ~high ~low =
  if high <= 0 || high > t.capacity then
    invalid_arg "Ring.set_watermarks: high must be in 1..capacity";
  if low < 0 || low >= high then
    invalid_arg "Ring.set_watermarks: low must be in 0..high-1";
  t.high <- high;
  t.low <- low

(* Re-evaluate the latch after any size change. Cheap enough for the
   hot path: one load and branch when watermarks are disabled. *)
let[@inline] update_pressure t =
  if t.high > 0 then
    if t.pressured then (if t.size <= t.low then t.pressured <- false)
    else if t.size >= t.high then begin
      t.pressured <- true;
      t.episodes <- t.episodes + 1
    end

let pressured t = t.pressured

let pressure_episodes t = t.episodes

let capacity t = t.capacity

let length t = t.size

let is_empty t = t.size = 0

let enqueue t x =
  if t.size = t.capacity then begin
    t.rejected <- t.rejected + 1;
    false
  end
  else begin
    if Array.length t.data = 0 then t.data <- Array.make t.capacity x;
    let tail = t.head + t.size in
    let tail = if tail >= t.capacity then tail - t.capacity else tail in
    t.data.(tail) <- x;
    t.size <- t.size + 1;
    update_pressure t;
    true
  end

(* Unchecked pop for the server poll loop: pairs with [is_empty], so no
   option is allocated per job. *)
let dequeue_exn t =
  if t.size = 0 then invalid_arg "Ring.dequeue_exn: empty ring";
  let x = t.data.(t.head) in
  let head = t.head + 1 in
  t.head <- (if head = t.capacity then 0 else head);
  t.size <- t.size - 1;
  update_pressure t;
  x

(* Burst dequeue for the breath loop: drain up to [max] elements into
   [dst.(0) .. dst.(n-1)] without options or per-element dispatch.
   Wrap-around is handled the same way single dequeues handle it (the
   head index wraps modulo capacity); dequeued slots keep their stale
   reference, as above. *)
let dequeue_into t dst pos max =
  if pos < 0 || pos > Array.length dst then
    invalid_arg "Ring.dequeue_into: destination position out of range";
  let n = min (min t.size max) (Array.length dst - pos) in
  let data = t.data in
  let head = ref t.head in
  for i = 0 to n - 1 do
    dst.(pos + i) <- data.(!head);
    let h = !head + 1 in
    head := if h = t.capacity then 0 else h
  done;
  t.head <- !head;
  t.size <- t.size - n;
  update_pressure t;
  n

let rejected_total t = t.rejected
