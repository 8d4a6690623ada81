(** Discrete-event simulation engine.

    A single priority queue of timestamped callbacks. Time is in
    nanoseconds of simulated wall clock; events at equal times fire in
    scheduling order (a monotonic sequence number breaks ties), so runs
    are fully deterministic.

    Every scheduled event gets that sequence number, and the engine
    exposes the one of the event that is firing. A component can thus
    schedule one callback it allocated once, many times over, and tell
    the firing it is waiting for from an older firing it has given up
    on ({!arm} and {!firing}) — no closure per event. *)

type t

val create : unit -> t

val now : t -> float
(** Current simulated time in nanoseconds. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** [schedule t ~delay f] fires [f] at [now t +. delay]. Negative and
    NaN delays raise [Invalid_argument]. *)

val schedule_at : t -> float -> (unit -> unit) -> unit
(** Absolute-time variant; times in the past, and NaN, raise
    [Invalid_argument]. *)

val arm : t -> delay:float -> (unit -> unit) -> int
(** {!schedule} that returns the event's sequence number: while the
    event fires, {!firing} returns that number. *)

val firing : t -> int
(** Sequence number of the event whose callback is running; [-1]
    outside {!run}. *)

val reserve_seq : t -> int
(** Take the next sequence number exactly as {!arm} would, and queue
    nothing. A component that keeps a deadline itself, instead of
    scheduling it, holds its place in the event order with the
    reserved number: a (time, seq) sorts before the firing event when
    its time is earlier, or equal with a smaller seq than {!firing}. *)

(** {2 Timers}

    A timer is a named callback, allocated once, with at most one
    firing of it queued: the engine's form of a control loop that
    re-arms itself while it has work and goes quiet when idle. *)

type timer

exception Livelock of string
(** Raised out of {!run} by a timer firing, carrying the timer's name,
    once more than {!livelock_streak} timer firings in a row have found
    no ordinary (non-timer) event queued: the timers only wake each
    other and simulated time runs on forever. *)

val livelock_streak : int
(** The longest run of timer-only firings {!run} tolerates. Kept for
    tests: the livelock tests run a timer loop just past it. *)

val timer : t -> name:string -> (unit -> unit) -> timer
(** An unarmed timer that runs the callback each time it fires. *)

val arm_timer : timer -> delay:float -> unit
(** Queue one firing [delay] from now, taking one sequence number as
    {!schedule} would. A no-op while the timer is armed; the timer
    disarms just before its callback runs, so the callback may re-arm
    it. Negative delays raise [Invalid_argument]. *)

val timer_armed : timer -> bool
(** Whether a firing is queued. *)

(** {2 Lines}

    A line is a constant-delay FIFO: every send arrives [delay] after
    it was sent, through one callback allocated with the line. Each
    send carries two values and an int tag, held in the line's own
    growable arrays, so sending and firing allocate nothing once the
    arrays have grown to the most sends in flight at once. *)

type ('a, 'b) line

val line : t -> delay:float -> ('a -> 'b -> int -> unit) -> ('a, 'b) line
(** [line t ~delay deliver]: an empty line whose sends reach
    [deliver]. Negative and NaN delays raise [Invalid_argument]. *)

val send : ('a, 'b) line -> 'a -> 'b -> int -> unit
(** [send l a b tag] queues [deliver a b tag] [delay] from now. It
    takes one sequence number, exactly as {!schedule} would, and fires
    at the same (time, seq) as [schedule t ~delay (fun () -> deliver a
    b tag)]. The delay is constant and time never goes back, so a
    line's sends fire in the order they were made: the line keeps each
    send's (time, seq) with its payload and holds a single heap entry,
    for its oldest send, whatever the number in flight. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Drain the queue, advancing time. [until] stops the clock at a
    deadline (remaining events stay queued); [max_events] bounds work
    as a runaway guard. A deadline before {!now}, or NaN, raises
    [Invalid_argument]: the clock never goes back. Kept for tests:
    [until], which the tests use to stop the clock mid-run. *)

val pending : t -> int
(** The number of queued heap entries: one per scheduled event or armed
    timer, and one per non-empty line, however many sends it holds.
    Zero exactly when {!run} has nothing left to fire, which is all
    [Harness] reads from it. *)
