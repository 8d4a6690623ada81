(** Dataplane cost model.

    All per-packet work is charged in CPU cycles on a 3.0 GHz core (the
    paper's Xeon E5-2690 v2). The constants are calibrated once against
    the paper's published measurements (Fig. 7, Table 4) and recorded in
    DESIGN.md; benches do not re-tune them. *)

type t = {
  ghz : float;  (** core clock, cycles per nanosecond *)
  ring_enqueue : int;  (** write a packet reference into a ring *)
  ring_dequeue : int;  (** read one out *)
  classifier : int;  (** CT lookup + metadata tagging *)
  classify_hit : int;  (** microflow-cache hit: one exact-match probe *)
  classify_group : int;  (** per tuple-space group probed on a cache miss *)
  classify_rule : int;
      (** per CT rule examined by the reference linear scan *)
  switch_forward : int;
      (** OpenNetVM-style centralized switch, per packet (its RX/TX
          path is the bottleneck; per-hop relaying is pipelined) *)
  switch_per_hop : int;  (** additional per relayed hop *)
  header_copy : int;  (** 64-byte header-only copy *)
  copy_base : int;  (** fixed cost of any copy *)
  copy_per_byte : float;  (** full-copy cost per payload byte *)
  merge_delivery : int;  (** merger bookkeeping per received copy *)
  merge_op : int;  (** per merge operation applied *)
  merger_agent : int;  (** load-balancing hash + forward *)
  nf_runtime : int;  (** NF runtime overhead per packet (FT lookup) *)
  rtc_call : int;  (** per-NF function-call overhead in the RTC model *)
  wire_ns : float;  (** generator + NIC round trip, nanoseconds *)
  batch : int;  (** poll-mode batch size (DPDK rx burst) *)
  burst_saving : int;
      (** per-job dispatch cycles the second and later jobs of one
          poll-loop breath do not repay (ring-dequeue synchronization +
          run-to-completion dispatch — amortized across the burst, as
          in DPDK/BESS). {!Nfp_sim.Server} deducts them from follower
          service times; breaths of one job always pay full price, so a
          batch size of 1 reproduces per-packet charging exactly. *)
  restart_ns : float;
      (** bringing a crashed NF container back: respawn + ring
          re-attachment (§7 fault model) *)
  log_append : int;
      (** appending one packet reference to a core's input log, charged
          per packet while lossless recovery is armed *)
  checkpoint_cycles : int;
      (** snapshotting an NF's state tables at a checkpoint, charged to
          the NF core ahead of its next batch *)
  replay_cycles : int;
      (** per-packet dequeue+dispatch overhead of replaying the input
          log during recovery, on top of the NF's own processing cost *)
  ack_cycles : int;
      (** assembling + processing one cumulative ack of a reliable link
          channel (piggybacked on a breath completion), modeled as
          transit delay on the channel *)
  retransmit_cycles : int;
      (** re-emitting one tx-buffered packet onto the fabric after a
          loss, modeled as added transit delay of the retransmission *)
}

val default : t
(** Containers on pinned cores with shared-memory rings (the paper's
    prototype). *)

val classified : t
(** {!default} with the classification-structure terms charged
    ([classify_hit]/[classify_group]/[classify_rule] non-zero), so
    measured latency reflects hit-vs-miss behaviour and rule-table
    size. They default to zero in {!default} because the §6
    reproduction experiments charge classification as the flat
    [classifier] constant (the seed calibration) and their results must
    not move; the classify bench opts in. *)

val vm : t
(** Virtual-machine deployment (paper §7 discussion): the same dataplane
    behind virtio-style rings — ring operations, copies and NIC paths
    cost several times more, everything else is unchanged. *)

val ns_of_cycles : t -> int -> float
