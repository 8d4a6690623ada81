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
(** The longest run of timer-only firings {!run} tolerates. *)

val timer : t -> name:string -> (unit -> unit) -> timer
(** An unarmed timer that runs the callback each time it fires. *)

val arm_timer : timer -> delay:float -> unit
(** Queue one firing [delay] from now, taking one sequence number as
    {!schedule} would. A no-op while the timer is armed; the timer
    disarms just before its callback runs, so the callback may re-arm
    it. Negative delays raise [Invalid_argument]. *)

val timer_armed : timer -> bool
(** Whether a firing is queued. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Drain the queue, advancing time. [until] stops the clock at a
    deadline (remaining events stay queued); [max_events] bounds work
    as a runaway guard. *)

val pending : t -> int
