(** 10 GbE line-rate model.

    Ethernet framing adds 20 bytes per packet on the wire (preamble,
    start delimiter, inter-frame gap), so a 64-byte frame peaks at
    14.88 Mpps on a 10 Gbit/s link — the line-speed curve of the
    paper's Fig. 7(b). *)

val max_mpps : frame_bytes:int -> float
(** Packets per second at line rate for a given frame size, in
    millions. @raise Invalid_argument when [frame_bytes <= 0]. *)
