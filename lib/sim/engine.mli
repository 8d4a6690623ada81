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
(** [schedule t ~delay f] fires [f] at [now t +. delay]. Negative
    delays raise [Invalid_argument]. *)

val schedule_at : t -> float -> (unit -> unit) -> unit
(** Absolute-time variant; times in the past raise [Invalid_argument]. *)

val arm : t -> delay:float -> (unit -> unit) -> int
(** {!schedule} that returns the event's sequence number: while the
    event fires, {!firing} returns that number. *)

val firing : t -> int
(** Sequence number of the event whose callback is running; [-1]
    outside {!run}. *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** Drain the queue, advancing time. [until] stops the clock at a
    deadline (remaining events stay queued); [max_events] bounds work
    as a runaway guard. *)

val pending : t -> int
