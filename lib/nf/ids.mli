(** Signature-matching intrusion detection (paper §6.1: "similar to the
    core signature matching component of Snort with 100 signature
    inspection rules").

    [`Detect] mode only raises alerts (Table 2's NIDS profile —
    no Drop); [`Prevent] mode drops matching packets, the IPS behaviour
    the paper's Priority example and the west–east service chain rely
    on. *)

type mode = [ `Detect | `Prevent ]

type stats = { alerts : unit -> int; scanned : unit -> int }

val default_signatures : int -> string list
(** [default_signatures n] is a deterministic set of [n] payload
    signatures. *)

val create : ?name:string -> ?mode:mode -> unit -> Nf.t * stats
(** Scans for [default_signatures 100]. Default mode: [`Detect]. *)
