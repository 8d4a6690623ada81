(** Deterministic packet generator — the stand-in for the paper's
    DPDK packet-generator server.

    [packet t i] always builds the same packet for the same index, so
    runs are reproducible and the replay check can feed identical
    streams to two systems. The default traffic avoids the synthetic
    firewall ACL's deny bands and the IDS signature alphabet, so no NF
    drops packets unless an experiment asks for it. *)

open Nfp_packet

type payload_style =
  | Random_bytes  (** uniform bytes *)
  | Ascii  (** mixed-case alphanumeric (never matches IDS signatures) *)
  | Tagged  (** Ascii prefixed with "#<index>;" for replay tracking *)

type config = {
  flows : int;  (** distinct 5-tuples cycled through *)
  sizes : Size_dist.t;  (** frame-size distribution *)
  proto : int;  (** transport protocol, default TCP *)
  payload_style : payload_style;
  seed : int64;
}

val default : config
(** 64 flows, 64-byte frames, TCP, Ascii payloads. *)

type t

val create : config -> t
(** @raise Invalid_argument if [flows <= 0] or a frame size in [sizes]
    is below the 54 bytes of headers every generated frame carries. *)

val packet : t -> int -> Packet.t
(** The [i]-th packet (freshly allocated each call). *)

val flow_of_index : t -> int -> Flow.t
(** The flow of the [i]-th packet. Kept for tests: the generator tests
    check the flow cycle with it. *)
