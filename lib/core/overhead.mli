(** Resource-overhead model — paper §6.3.1.

    With Header-Only Copying, parallelizing at degree [d] materializes
    [d - 1] extra 64-byte header copies per packet, so the overhead
    ratio for an [s]-byte packet is [ro = 64 (d - 1) / s]. Averaged over
    the data-center packet-size distribution of the IMC'10 study the
    paper cites, this is 0.088 (d - 1) — 8.8 % at degree 2. *)

val ratio : packet_bytes:int -> degree:int -> float
(** [ro = 64 (d-1) / s]. @raise Invalid_argument on degree < 1 or
    non-positive size. *)

val ratio_distribution : sizes:(int * float) list -> degree:int -> float
(** Byte-weighted overhead over a (size, probability) distribution:
    copied bytes relative to total traffic bytes, [64 (d-1) / E[s]]. *)

val datacenter_ratio : degree:int -> float
(** {!ratio_distribution} over {!Nfp_traffic}'s IMC distribution is
    computed in the bench harness; this constant-based variant uses the
    paper's mean result: [0.088 * (degree - 1)]. *)

val plan_overhead :
  Tables.plan -> packet_bytes:int -> float
(** Measured overhead of a concrete plan: copied bytes (header-only
    and full) relative to the packet size. *)
