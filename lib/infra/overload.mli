(** The overload control plane of a {!System} deployment: the ring
    watermarks its cores arm, the priority-aware admission controller
    at the classifier front end (the shed ladder with its poll and
    trickle) and the per-replica pressure-degrade switch. {!System}
    re-exports {!config} as [System.overload_config]. *)

type config = {
  high_watermark : int;
      (** ring occupancy at which a core's pressure latch raises; must
          satisfy [0 <= low < high <= ring_capacity] *)
  low_watermark : int;
      (** occupancy at which the latch releases — the hysteresis band
          [low..high] keeps a sawtooth queue from flapping the signal *)
  degrade_enabled : bool;
      (** let NFs that declare an [Nf.degrade] mode coarsen while their
          own ring sits above the watermark *)
}

val default : config

type t
(** One deployment's admission controller. *)

val create :
  engine:Nfp_sim.Engine.t ->
  ?config:config ->
  priorities:int array ->
  health:Nfp_sim.Harness.health ->
  unit ->
  t
(** [priorities.(mid - 1)] is the admission class of graph [mid]
    (negative counts as 0). Sheds, degraded packets and degrade
    switches are counted in the deployment's ledger [health]. Without
    [config] the controller is inert: no watermarks, nothing shed, no
    NF degraded. *)

val watermarks : t -> (int * int) option
(** [(high, low)] for every core's ring, or [None] when unarmed. *)

val watch : t -> pressured:(unit -> bool) -> unit
(** Install the deployment-wide pressure predicate (some core's
    watermark latch is raised) that the shed ladder polls. *)

val shed : t -> int -> bool
(** Whether to refuse a packet of graph [mid] at the NIC boundary now.
    At most once per 2 us poll the shed level climbs one class while
    the pressure predicate holds (never past the highest class, which
    is therefore never shed) and relaxes one class while it does not.
    A packet whose class is below the level is shed, except every
    16th such arrival of its class (the trickle). *)

val shed_by_class : t -> (int * int) list
(** [(class, shed)] for every class up to the highest; [[]] when
    unarmed. *)

(** {2 Pressure-degrade switch} *)

type switch
(** One NF replica's choice between full fidelity and its declared
    [Nf.degrade] mode. *)

val switch : t -> Nfp_nf.Nf.t -> switch
(** Full fidelity always unless the controller is armed with
    [degrade_enabled] and the NF declares a degrade mode. *)

val bind : switch -> pressured:(unit -> bool) -> unit
(** Install the replica's own ring-pressure predicate, once its core
    exists. *)

val cost_cycles : switch -> Nfp_packet.Packet.t -> int
(** The NF's cycle cost for this packet, in the current mode. *)

val process : switch -> Nfp_packet.Packet.t -> Nfp_nf.Nf.verdict
(** Run the NF on the packet, degraded while the replica is
    pressured. *)
