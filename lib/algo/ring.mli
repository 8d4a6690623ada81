(** Bounded FIFO ring buffer.

    Models the single-producer single-consumer receive/transmit rings that
    NFP allocates in shared huge pages: fixed capacity, reference-passing
    (no element copies), drop-on-full semantics decided by the caller.
    A dequeue that empties the ring rewinds it to its first slot, so a
    ring keeps alive at most its occupancy high-water mark plus one
    element, not its capacity. *)

type 'a t

val create : capacity:int -> 'a t
(** [create ~capacity] is an empty ring holding at most [capacity]
    elements. @raise Invalid_argument if [capacity <= 0]. *)

val capacity : 'a t -> int

val length : 'a t -> int

val is_empty : 'a t -> bool

val enqueue : 'a t -> 'a -> bool
(** [enqueue t x] appends [x]; returns [false] (ring unchanged) when
    full — the caller decides whether that is a drop or backpressure. *)

val dequeue_into : 'a t -> 'a array -> int -> int -> int
(** [dequeue_into t dst pos max] drains up to [max] elements (bounded
    by the ring's occupancy and the room left in [dst] from [pos]) into
    [dst.(pos) ..], in FIFO order, and returns how many it moved — the
    breath loop's rx burst. Equivalent to that many {!dequeue_exn}
    calls; allocates nothing. @raise Invalid_argument when [pos] is
    outside [dst]. *)

val dequeue_exn : 'a t -> 'a
(** Pop the oldest element, without an option box — for poll loops
    that already checked {!is_empty}.
    @raise Invalid_argument when empty. *)

val set_watermarks : 'a t -> high:int -> low:int -> unit
(** [set_watermarks t ~high ~low] arms the occupancy watermarks:
    {!pressured} latches [true] when [length t >= high] and releases
    only once [length t <= low]. The [high - low] gap is the hysteresis
    band that keeps a queue oscillating around one level from flapping
    the signal. @raise Invalid_argument unless
    [0 <= low < high <= capacity]. *)

val pressured : 'a t -> bool
(** Whether the occupancy latch is currently on. Always [false] when
    watermarks are disarmed (the default). *)

val pressure_episodes : 'a t -> int
(** Lifetime count of pressure onsets (off-to-on transitions) — a
    flapping detector: a steady sawtooth inside the hysteresis band
    must not grow this. *)

val rejected_total : 'a t -> int
(** Lifetime count of enqueues refused because the ring was full. *)
