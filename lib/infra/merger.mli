(** The mergers of the compiled dataplane (paper §5.3): instances
    shared across service graphs ("a merger instance can merge any
    packet from any service graph"), each with a private accumulating
    table keyed by PID and (MID, merge point), and, with more than one,
    the merger-agent core that hashes the PID to pick an instance. *)

val build :
  Runtime.t ->
  instances:int ->
  (Program.cdelivery, Program.csend) Nfp_sim.Server.t array
  * (Program.cdelivery, unit) Nfp_sim.Server.t option
  * (Program.cdelivery -> bool)
(** [instances] merger cores ([merger#<i>]), the agent core with more
    than one, and the port merge deliveries enter by: the agent's, or
    the PID-hashed instance's. A merger completes an accumulation when
    every expected branch has arrived, or, when
    [rt.merge_timeout_ns > 0], that long after it opened, with the
    branches that did arrive; a branch arriving after its merge
    completed is consumed (counted in [health.deduped]) when the dedup
    filters are armed. *)
